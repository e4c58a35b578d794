"""The 2010 paralinguistic-challenge acoustic set: 1596 dimensions.

38 low-level descriptors on a 25/10 ms grid (pitch family from 60 ms
windows), 3-frame moving-average smoothing, first-order deltas, and 21
statistical functionals: (38 + 38) x 21 = 1596.

Loudness is approximated by log frame energy and voicing probability by the
normalized-correlation peak; see the package docs for the deviations from
the original challenge toolkit.  Per-frame jitter and shimmer come from the
pulses of every voiced 60 ms window, picked in one scan of the utterance and
measured by ``phonation.glottal_cycles``, which phonation uses too.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Analysis
from ..audio import FRAME_MS, Waveform, grid
from ..dsp import (delta, estimate_f0, log_frame_energy, log_mel_energies, lpc,
                   lsp_from_lpc, mfcc_frames, moving_average, power_spectrum, PREEMPHASIS)
from ..functionals import IS10_FUNCTIONALS, apply_functionals
from .phonation import glottal_cycles, pulse_windows

from . import FeatureVector

N_MELS_MFCC = 26
PITCH_FRAME_MS = 60.0
# Frames per block of the pulse scan: bounds its per-sample arrays.
PULSE_BLOCK_FRAMES = 1024

LLD_NAMES = tuple(
    ["pcm_loudness"]
    + [f"mfcc{k}" for k in range(15)]
    + [f"logmel{k}" for k in range(8)]
    + [f"lsp{k}" for k in range(8)]
    + ["f0", "f0_env", "voicing_prob", "jitter_local", "jitter_ddp",
       "shimmer_local"])

assert len(LLD_NAMES) == 38


def _pitch_grid_track(w: Waveform):
    """F0/strength from 60 ms windows, center-aligned with the 25 ms grid.

    Padding both ends by (60-25)/2 ms keeps the frame count and frame centers
    identical to the 25/10 ms analysis grid.
    """
    pad = round((PITCH_FRAME_MS - FRAME_MS) / 2 / 1000.0 * w.sample_rate)
    x = np.pad(w.samples, pad)
    x.flags.writeable = False  # nothing else holds x, so Waveform keeps it uncopied
    padded = Waveform(x, w.sample_rate, w.source_id)
    return padded, estimate_f0(padded, frame_ms=PITCH_FRAME_MS)


def _hold_last_voiced(values: np.ndarray) -> np.ndarray:
    """Each unvoiced frame takes the last voiced value before it (0 before any)."""
    last = np.maximum.accumulate(np.where(values > 0, np.arange(values.size), -1))
    return np.where(last >= 0, values[np.maximum(last, 0)], 0.0)


def _per_frame_perturbation(padded: Waveform, f0_values: np.ndarray, step: int,
                            frame_len: int):
    """Frame-wise jitter (local, DDP) and local shimmer from 60 ms pulse windows.

    The pulses of every voiced window come from ``pulse_windows`` scans and
    go through ``phonation.glottal_cycles``; undefined measures are 0.  The
    frames go through in blocks of ``PULSE_BLOCK_FRAMES``, each scanning
    only the samples its windows cover.  A window's pulses depend only on
    its own samples, so the measures have the bits of one scan of the whole
    signal.
    """
    x, rate = padded.samples, padded.sample_rate
    out = np.zeros((3, f0_values.size))
    for lo in range(0, f0_values.size, PULSE_BLOCK_FRAMES):
        f0 = f0_values[lo:lo + PULSE_BLOCK_FRAMES]
        starts = np.arange(f0.size) * step
        periods, heights = glottal_cycles(*pulse_windows(
            x[lo * step:lo * step + starts[-1] + frame_len], starts, frame_len, f0, rate), rate)
        out[:, lo:lo + f0.size] = (periods.relative_diff(1), periods.relative_diff(2),
                                   heights.relative_diff(1))
    out[np.isnan(out)] = 0.0
    return tuple(out)


def i2010pc_features(source: Waveform | Analysis) -> FeatureVector:
    a = Analysis.of(source)
    w, rate = a.waveform, a.waveform.sample_rate
    spec = a.hann_power   # first: it makes and drops its own Hann frames
    frames_mat = a.hann_frames
    if frames_mat.shape[0] == 0:
        # micro-recordings: behave as a single silent frame
        frames_mat = np.zeros((1, frames_mat.shape[1]))
        spec = power_spectrum(frames_mat)
    n = frames_mat.shape[0]

    loud = log_frame_energy(frames_mat)
    ceps = mfcc_frames(spec, rate, n_mels=N_MELS_MFCC, n_ceps=15, first=0)
    mel8 = log_mel_energies(spec, rate, n_mels=8)

    # the pre-emphasized frames are freed before the LSF search
    lsp = lsp_from_lpc(lpc(np.concatenate(
        [frames_mat[:, :1], frames_mat[:, 1:] - PREEMPHASIS * frames_mat[:, :-1]],
        axis=1), 8)[0], rate)

    padded, pitch = _pitch_grid_track(w)
    # the padded 60 ms track, cut or zero-padded to one value per grid frame
    f0v, strength = (np.pad(t, (0, max(n - t.size, 0)))[:n]
                     for t in (pitch.values, pitch.strength))
    frame_len = round(PITCH_FRAME_MS * rate / 1000.0)
    jit, ddp, shim = _per_frame_perturbation(padded, f0v, grid(rate)[1], frame_len)

    lld = np.column_stack(
        [loud, ceps, mel8, lsp,
         f0v, _hold_last_voiced(f0v), strength, jit, ddp, shim])
    assert lld.shape == (n, 38)

    lld = moving_average(lld)
    # the LLD_NAMES columns, then their deltas
    vec = apply_functionals([lld, delta(lld)], IS10_FUNCTIONALS)
    return FeatureVector("i2010pc", vec)
