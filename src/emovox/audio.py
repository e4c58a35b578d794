"""Audio ingestion, 8 kHz resampling, the frame grid, and speech/voicing segmentation.

All downstream feature code consumes the 8 kHz mono `Waveform` produced here
and frames it on the one 25/10 ms grid defined here (``grid``, ``frames``).
Segmentation is decided per grid frame and kept as frame masks: the VAD's
speech mask, and the voicing mask whose run boundaries are the transitions,
each with the 80 ms chunk of samples centred on it.
Resampling is NumPy alone (no ``scipy.signal``): the Kaiser low-pass of
``scipy.signal.firwin`` is designed once per operating rate, and the
polyphase decimation of ``scipy.signal.resample_poly`` is one matrix
product per file with a matrix built once per input rate.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .arrays import frozen
from .errors import MalformedWavError, UnsupportedWavError, UpsamplingError

if TYPE_CHECKING:
    from .analysis import Analysis
    from .dsp import F0Track

TARGET_RATE = 8000
MAX_RESAMPLE_TAPS = 2 ** 17
# floats of the resampler's product held at once (8 MB)
_PRODUCT_FLOATS = 2 ** 20
# taps per block of the resampler's filter design (64 kB each)
KAISER_BLOCK_TAPS = 2 ** 13
FRAME_MS = 25.0
STEP_MS = 10.0

# VAD tuning: noise floor from the 10th percentile of frame log-energy,
# capped at -60 dBFS so speech-only input stays speech on a second pass.
VAD_NOISE_PERCENTILE = 10.0
VAD_MARGIN_DB = 10.0
VAD_FLOOR_CAP_DB = -60.0
VAD_SMOOTH_FRAMES = 5

MIN_VOICED_RUN_FRAMES = 3
TRANSITION_CHUNK_S = 0.080


@dataclass(frozen=True)
class Waveform:
    """Mono audio: samples in [-1, 1] plus sample rate and an opaque source id."""

    samples: np.ndarray
    sample_rate: int
    source_id: str = ""

    def __post_init__(self):
        samples = frozen(self.samples)
        if samples.ndim != 1 or samples.size == 0:
            raise ValueError("waveform must be a non-empty 1-D sample sequence")
        if not np.all(np.isfinite(samples)):
            raise ValueError("waveform contains non-finite samples")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        object.__setattr__(self, "samples", samples)

    @property
    def duration_s(self) -> float:
        return self.samples.size / self.sample_rate

    def __len__(self):
        return self.samples.size


def load_wav(path) -> Waveform:
    """Read a PCM RIFF/WAVE file as a mono Waveform (see ``parse_wav``).

    Raises FileNotFoundError, MalformedWavError, or UnsupportedWavError.
    """
    with open(path, "rb") as fh:
        return parse_wav(fh.read(), path)


def parse_wav(raw: bytes, path="") -> Waveform:
    """Decode the bytes of a PCM RIFF/WAVE file (8/16-bit, mono or stereo).

    Stereo channels are averaged; integer samples are scaled to [-1, 1].
    ``path`` names the source in errors and becomes the source id.  Raises
    MalformedWavError or UnsupportedWavError.
    """
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise MalformedWavError(f"{path}: not a RIFF/WAVE file")

    fmt = None
    data = None
    pos = 12
    while pos + 8 <= len(raw):
        chunk_id = raw[pos:pos + 4]
        (chunk_size,) = struct.unpack_from("<I", raw, pos + 4)
        body = raw[pos + 8:pos + 8 + chunk_size]
        if chunk_id == b"fmt ":
            if len(body) < 16:
                raise MalformedWavError(f"{path}: truncated fmt chunk")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
        pos += 8 + chunk_size + (chunk_size & 1)  # chunks are word-aligned

    if fmt is None or data is None:
        raise MalformedWavError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, sample_rate, _, _, bits = fmt
    if audio_format != 1:
        raise UnsupportedWavError(f"{path}: non-PCM format tag {audio_format}")
    if bits not in (8, 16):
        raise UnsupportedWavError(f"{path}: {bits}-bit PCM not supported")
    if n_channels < 1 or sample_rate <= 0:
        raise MalformedWavError(f"{path}: invalid fmt fields")

    if bits == 8:
        x = (np.frombuffer(data, dtype=np.uint8).astype(np.float64) - 128.0) / 128.0
    else:
        usable = len(data) - (len(data) % 2)
        x = np.frombuffer(data[:usable], dtype="<i2").astype(np.float64) / 32768.0
    if n_channels > 1:
        usable = x.size - (x.size % n_channels)
        x = x[:usable].reshape(-1, n_channels).mean(axis=1)
    if x.size == 0:
        raise MalformedWavError(f"{path}: empty data chunk")
    x.flags.writeable = False  # nothing else holds x, so Waveform keeps it uncopied
    return Waveform(x, int(sample_rate), source_id=str(path))


def _kaiser_lowpass(numtaps: int, cutoff: float, beta: float) -> np.ndarray:
    """Kaiser-windowed sinc with unit DC gain; ``cutoff`` is relative to Nyquist.

    The design of ``scipy.signal.firwin(numtaps, cutoff, window=("kaiser", beta))``.
    The window is ``np.kaiser``'s formula; it and the sinc are elementwise,
    so they run over blocks of ``KAISER_BLOCK_TAPS`` taps with the bits of
    one whole-array pass, and only the gain uses the whole filter.
    """
    h = np.empty(numtaps)
    alpha = (numtaps - 1) / 2.0
    for lo in range(0, numtaps, KAISER_BLOCK_TAPS):
        n = np.arange(lo, min(lo + KAISER_BLOCK_TAPS, numtaps), dtype=np.float64)
        window = np.i0(beta * np.sqrt(1 - ((n - alpha) / alpha) ** 2.0)) / np.i0(beta)
        h[lo:lo + n.size] = cutoff * np.sinc(cutoff * (n - alpha)) * window
    h /= h.sum()
    return h


@functools.lru_cache(maxsize=8)
def _decimation_taps(op_rate: int) -> np.ndarray:
    """Windowed-sinc low-pass for the polyphase resampler (read-only, shared).

    Passband holds to ~3.9 kHz, stopband from ~4.04 kHz; the -6 dB point sits
    just under the 4 kHz target Nyquist so near-Nyquist content survives.
    Designed once per operating rate.  The tap count is checked before any
    design work: every standard rate up to 192 kHz needs at most 126,466
    taps, while a header rate such as 96,001 Hz would need 27.5 M; a
    rejected rate raises and is not cached.  Order and beta come from
    Kaiser's formulas for 80 dB over a 140 Hz transition band, as
    ``scipy.signal.kaiserord`` gives them.
    """
    atten_db, cutoff_hz, width_hz = 80.0, 3970.0, 140.0
    width = 2.0 * width_hz / op_rate
    numtaps = math.ceil((atten_db - 7.95) / 2.285 / (math.pi * width) + 1) | 1
    if numtaps > MAX_RESAMPLE_TAPS:
        raise UnsupportedWavError(
            f"resampling to {TARGET_RATE} Hz needs a {numtaps}-tap filter "
            f"(limit {MAX_RESAMPLE_TAPS})")
    taps = _kaiser_lowpass(numtaps, 2.0 * cutoff_hz / op_rate, 0.1102 * (atten_db - 8.7))
    taps.setflags(write=False)
    return taps


@functools.lru_cache(maxsize=8)
def _polyphase_matrix(up: int, down: int) -> tuple[np.ndarray, int]:
    """The decimator for one rate as one read-only matrix, and its lead.

    Upsampling by ``up``, filtering with the N taps scaled by ``up`` and
    keeping every ``down``-th sample maps input blocks of B = b*down samples
    to output blocks of b*up samples: output block q is the sum over block
    lags d of input block q - d times a (B x b*up) matrix M_d.  The matrix
    holds the A nonzero M_d side by side, from d = -lead up.  The framing is
    ``scipy.signal.resample_poly``'s: the filter is pre-padded to centre
    the outputs on it, and the first ``n_pre_remove`` outputs are dropped.
    The block period P = b*up*down is kept near N / 8, so the product does
    about (1 + 2P / N) times the n_out * N / up multiply-adds of a direct
    polyphase filter (1.25x, or more where up*down alone exceeds N / 8).
    """
    taps = _decimation_taps(TARGET_RATE * down)
    n = taps.size
    half_len = (n - 1) // 2
    n_pre_pad = down - half_len % down
    n_pre_remove = (half_len + n_pre_pad) // down
    h = np.concatenate([np.zeros(n_pre_pad), taps * up])
    b = max(1, n // (8 * up * down))
    period = b * up * down
    # the tap index that input sample u of a block sends to output s of a
    # block d blocks later is d * period + base[u, s]
    base = ((np.arange(b * up) + n_pre_remove) * down
            - np.arange(b * down)[:, None] * up)
    lead = int(base.max()) // period
    lags = np.arange(-lead, (h.size - 1 - int(base.min())) // period + 1)
    index = lags[None, :, None] * period + base[:, None, :]
    matrix = np.where((index >= 0) & (index < h.size), h[np.clip(index, 0, h.size - 1)], 0.0)
    matrix = matrix.reshape(b * down, -1)
    matrix.setflags(write=False)
    return matrix, lead


def _decimate(x: np.ndarray, up: int, down: int) -> np.ndarray:
    """``scipy.signal.resample_poly(x, up, down, window=taps)`` as block products.

    The product runs over at most ``_PRODUCT_FLOATS`` outputs of the matrix
    at a time, so a long file needs several and its memory stays bounded.
    """
    matrix, lead = _polyphase_matrix(up, down)
    rows, cols = matrix.shape
    out_cols = rows // down * up
    n_out = -(-x.size * up // down)
    n_blocks = -(-x.size // rows)
    blocks = np.zeros(n_blocks * rows)
    blocks[:x.size] = x
    blocks = blocks.reshape(n_blocks, rows)
    n_lags = cols // out_cols
    acc = np.zeros((n_blocks + n_lags - 1, out_cols))
    step = max(1, _PRODUCT_FLOATS // cols)
    for p in range(0, n_blocks, step):
        z = blocks[p:p + step] @ matrix
        for j in range(n_lags):
            acc[p + j:p + j + z.shape[0]] += z[:, j * out_cols:(j + 1) * out_cols]
    return acc[lead:].ravel()[:n_out]


def resample_to_8k(w: Waveform) -> Waveform:
    """Band-limit below 4 kHz and decimate to the common 8 kHz rate."""
    if w.sample_rate == TARGET_RATE:
        return w
    if w.sample_rate < TARGET_RATE:
        raise UpsamplingError(
            f"{w.source_id or 'waveform'}: rate {w.sample_rate} < {TARGET_RATE}; "
            "upsampling not supported")
    g = math.gcd(TARGET_RATE, w.sample_rate)
    up, down = TARGET_RATE // g, w.sample_rate // g
    try:
        y = np.clip(_decimate(w.samples, up, down), -1.0, 1.0)
    except UnsupportedWavError as exc:   # the tap check, with the file named
        raise UnsupportedWavError(
            f"{w.source_id or 'waveform'}: rate {w.sample_rate}: {exc}") from None
    y.flags.writeable = False  # nothing else holds y, so Waveform keeps it uncopied
    return Waveform(y, TARGET_RATE, source_id=w.source_id)


def grid(rate: int) -> tuple[int, int]:
    """Length and step in samples of the 25/10 ms frame grid at ``rate``."""
    return round(FRAME_MS * rate / 1000.0), round(STEP_MS * rate / 1000.0)


def frame_count(n_samples: int, frame_len: int, step: int) -> int:
    if n_samples < frame_len:
        return 0
    return (n_samples - frame_len) // step + 1


def frames(x: np.ndarray, length: int, step: int) -> np.ndarray:
    """Frames of ``length`` samples every ``step`` along the last axis of x.

    A read-only strided view of x, not a copy: (..., n_frames, length).
    """
    if x.shape[-1] < length:
        return np.zeros(x.shape[:-1] + (0, length))
    return sliding_window_view(x, length, axis=-1)[..., ::step, :]


def frame_signal(w: Waveform) -> np.ndarray:
    """Rectangular frames of the 25/10 ms grid, one per row (n_frames x frame_len)."""
    return frames(w.samples, *grid(w.sample_rate))


def _runs(labels: np.ndarray):
    """Run-length encode a 1-D bool/int label array into (start, end, value)."""
    labels = np.asarray(labels)
    if labels.size == 0:
        return []
    starts = np.flatnonzero(np.concatenate([[True], labels[1:] != labels[:-1]]))
    ends = np.append(starts[1:], labels.size)
    return list(zip(starts.tolist(), ends.tolist(), labels[starts].tolist()))


def _merge_short_runs(runs):
    """Absorb runs shorter than MIN_VOICED_RUN_FRAMES into their neighbours.

    One left-to-right pass with the result of flipping the leftmost short run
    until none is left (or one run remains): that run's left neighbour is
    always long, so the flip joins it to the runs on both sides.  Only a
    short first run has no left neighbour; it takes its right one's value.
    """
    out = []  # [start, end, value], every entry but a lone first one long
    for start, end, value in runs:
        if out and out[-1][2] == value:           # the run after a flip
            out[-1][1] = end
        elif len(out) == 1 and out[0][1] - out[0][0] < MIN_VOICED_RUN_FRAMES:
            out[0] = [out[0][0], end, value]      # a short first run flips
        else:
            out.append([start, end, value])
        if len(out) > 1 and end - out[-1][0] < MIN_VOICED_RUN_FRAMES:
            out.pop()                             # flips into its left neighbour
            out[-1][1] = end
    return out


def detect_speech(a: "Analysis") -> np.ndarray:
    """Energy + periodicity VAD: the speech mask of an utterance's grid frames.

    A grid frame (``a.rect_frames``) is speech when it clears the noise floor
    by 10 dB or carries a pitch in ``a.f0``; decisions are smoothed with a
    5-frame majority vote.
    """
    if a.rect_frames.shape[0] == 0:
        return np.zeros(0, dtype=bool)
    energy_db = 10.0 * np.log10(np.mean(a.rect_frames ** 2, axis=1) + 1e-12)
    floor = min(np.percentile(energy_db, VAD_NOISE_PERCENTILE), VAD_FLOOR_CAP_DB)
    voiced = a.f0.values > 0
    speech = (energy_db > floor + VAD_MARGIN_DB) | voiced

    if speech.size >= 2:
        half = VAD_SMOOTH_FRAMES // 2
        padded = np.pad(speech.astype(int), half, mode="edge")
        votes = np.convolve(padded, np.ones(VAD_SMOOTH_FRAMES, dtype=int), "valid")
        speech = votes > VAD_SMOOTH_FRAMES // 2
    return speech


def voiced_segments(w: Waveform, f0: "F0Track"):
    """Voicing mask of the grid frames, and its run boundaries with their chunks.

    Voicing runs shorter than 3 frames are absorbed by their neighbors.
    Returns the merged mask, one flag per boundary between runs (True for an
    onset, unvoiced -> voiced), and a (boundaries x 80 ms) matrix of the
    samples centred on each boundary's first sample, zero-padded at the
    signal edges.
    """
    runs = np.array(_merge_short_runs(_runs(np.asarray(f0.values) > 0)),
                    dtype=np.intp).reshape(-1, 3)
    starts, values = runs[:, 0], runs[:, 2].astype(bool)
    mask = np.repeat(values, runs[:, 1] - starts)
    chunk_len = round(TRANSITION_CHUNK_S * w.sample_rate)
    padded = np.pad(w.samples, (chunk_len // 2, chunk_len - chunk_len // 2))
    chunks = padded[starts[1:, None] * grid(w.sample_rate)[1] + np.arange(chunk_len)]
    return mask, values[1:], chunks
