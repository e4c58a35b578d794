import math
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from emovox import audio
from emovox.analysis import Analysis
from emovox.audio import (Waveform, detect_speech, frame_count, frame_signal, grid,
                          load_wav, parse_wav, resample_to_8k, voiced_segments)
from emovox.dsp import F0Track, estimate_f0
from emovox.errors import MalformedWavError, UnsupportedWavError, UpsamplingError

from conftest import craft_wav, tone, wf, write_pcm16


def save_wav(path, w: Waveform) -> None:
    """Write a Waveform as 16-bit mono PCM, header built by hand."""
    x = np.clip(w.samples, -1.0, 1.0)
    pcm = np.round(x * 32767.0).astype("<i2").tobytes()
    hdr = b"RIFF" + struct.pack("<I", 36 + len(pcm)) + b"WAVE"
    hdr += b"fmt " + struct.pack("<IHHIIHH", 16, 1, 1, w.sample_rate,
                                 w.sample_rate * 2, 2, 16)
    hdr += b"data" + struct.pack("<I", len(pcm))
    with open(path, "wb") as fh:
        fh.write(hdr + pcm)


# ---------------------------------------------------------------- load_wav

def test_load_silence_identity(tmp_path):
    path = write_pcm16(tmp_path / "z.wav", np.zeros(8000), 8000)
    w = load_wav(path)
    assert w.sample_rate == 8000
    assert len(w) == 8000
    assert np.all(w.samples == 0.0)


def test_load_stereo_averages_to_mono(tmp_path):
    left = np.full(1000, 16384 / 32767.0)
    right = -left
    inter = np.empty(2000)
    inter[0::2], inter[1::2] = left, right
    path = write_pcm16(tmp_path / "st.wav", inter, 8000, channels=2)
    w = load_wav(path)
    assert len(w) == 1000
    np.testing.assert_allclose(w.samples, 0.0, atol=1e-9)


def test_load_16k_roundtrip(tmp_path, rng):
    x = 0.8 * rng.uniform(-1, 1, 16000)
    path = write_pcm16(tmp_path / "r.wav", x, 16000)
    w = load_wav(path)
    assert w.sample_rate == 16000 and len(w) == 16000
    np.testing.assert_allclose(w.samples, x, atol=2.0 / 32767)


def test_load_missing_file(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_wav(tmp_path / "absent.wav")


def test_load_malformed_riff(tmp_path):
    path = tmp_path / "junk.wav"
    path.write_bytes(b"this is not audio at all, sorry")
    with pytest.raises(MalformedWavError):
        load_wav(path)


def test_load_truncated_header(tmp_path):
    path = tmp_path / "short.wav"
    path.write_bytes(b"RIFF\x00\x00")
    with pytest.raises(MalformedWavError):
        load_wav(path)


def test_load_float_codec_unsupported(tmp_path):
    path = craft_wav(tmp_path / "f32.wav", fmt_tag=3, bits=32,
                     payload=b"\x00" * 64)
    with pytest.raises(UnsupportedWavError):
        load_wav(path)


def test_load_24bit_unsupported(tmp_path):
    path = craft_wav(tmp_path / "b24.wav", bits=24, payload=b"\x00" * 63)
    with pytest.raises(UnsupportedWavError):
        load_wav(path)


def test_load_missing_data_chunk(tmp_path):
    import struct
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    path = tmp_path / "nodata.wav"
    path.write_bytes(blob)
    with pytest.raises(MalformedWavError):
        load_wav(path)


def test_load_8bit_pcm(tmp_path):
    import struct
    payload = bytes([128, 255, 0, 128])
    path = craft_wav(tmp_path / "u8.wav", bits=8, payload=payload)
    w = load_wav(path)
    np.testing.assert_allclose(w.samples, [0.0, 127 / 128, -1.0, 0.0])


def test_save_load_roundtrip(tmp_path, rng):
    x = 0.9 * rng.uniform(-1, 1, 4000)
    w = wf(x)
    save_wav(tmp_path / "rt.wav", w)
    back = load_wav(tmp_path / "rt.wav")
    np.testing.assert_allclose(back.samples, x, atol=2.0 / 32767)


def test_waveform_rejects_bad_input():
    with pytest.raises(ValueError):
        Waveform(np.zeros(0), 8000)
    with pytest.raises(ValueError):
        Waveform(np.array([0.0, np.nan]), 8000)
    with pytest.raises(ValueError):
        Waveform(np.zeros(10), 0)


# ---------------------------------------------------------- resample_to_8k

def test_resample_identity_at_8k():
    w = wf(tone(440))
    assert resample_to_8k(w) is w


def test_resample_1k_sine_dominant_bin():
    w = wf(tone(1000, rate=16000), rate=16000)
    y = resample_to_8k(w)
    assert y.sample_rate == 8000
    assert abs(len(y) - 8000) <= 1
    spec = np.abs(np.fft.rfft(y.samples))
    peak_hz = np.argmax(spec) * 8000 / len(y.samples)
    assert abs(peak_hz - 1000) <= 8000 / len(y.samples)


def test_resample_39k_energy_retained():
    w = wf(tone(3900, rate=16000), rate=16000)
    y = resample_to_8k(w)
    ratio = np.sum(y.samples ** 2) / (np.sum(w.samples ** 2) / 2.0)
    assert ratio >= 0.80


def test_resample_rejects_upsampling():
    w = wf(tone(100, rate=4000), rate=4000)
    with pytest.raises(UpsamplingError):
        resample_to_8k(w)


# 11.025 kHz and its multiples need the longest filter, 126,466 taps
@pytest.mark.parametrize("rate", [11025, 16000, 22050, 44100, 48000, 88200, 96000, 176400,
                                  192000])
def test_resample_output_length(rate):
    n = rate  # one second
    w = wf(tone(500, dur_s=1.0, rate=rate), rate=rate)
    y = resample_to_8k(w)
    assert abs(len(y) - round(n * 8000 / rate)) <= 1


def scipy_resample(x, rate):
    """The SciPy resampler the NumPy one replaced, the oracle: (taps, samples)."""
    from scipy import signal as sps

    g = math.gcd(8000, rate)
    up, down = 8000 // g, rate // g
    op_rate = rate * up
    numtaps, beta = sps.kaiserord(80.0, 2.0 * 140.0 / op_rate)
    taps = sps.firwin(numtaps | 1, 2.0 * 3970.0 / op_rate, window=("kaiser", beta))
    return taps, np.clip(sps.resample_poly(x, up, down, window=taps), -1.0, 1.0)


def assert_close_to_oracle(got, ref):
    assert got.shape == ref.shape
    assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


RESAMPLE_RATES = [11025, 16000, 22050, 32000, 44100, 48000, 88200, 96000, 176400, 192000]


@pytest.mark.parametrize("rate", RESAMPLE_RATES)
def test_resample_matches_scipy_oracle(rate, rng):
    up = 8000 // math.gcd(8000, rate)
    taps = audio._decimation_taps(rate * up)
    ref_taps, _ = scipy_resample(np.zeros(1), rate)
    assert_close_to_oracle(taps, ref_taps)
    # one sample, inputs shorter and longer than the filter, odd lengths; noise and silence
    for n in (1, 2, 7, taps.size // 3 | 1, taps.size + 6, rate // 2 + 1):
        for x in (rng.uniform(-1.0, 1.0, n), np.zeros(n)):
            _, ref = scipy_resample(x, rate)
            assert_close_to_oracle(resample_to_8k(wf(x, rate=rate)).samples, ref)


def whole_array_kaiser_lowpass(numtaps, cutoff, beta):
    """The filter design as one whole-array pass (``np.kaiser`` over every tap)."""
    m = np.arange(numtaps) - 0.5 * (numtaps - 1)
    h = cutoff * np.sinc(cutoff * m) * np.kaiser(numtaps, beta)
    return h / h.sum()


def design_args(rate):
    """``_decimation_taps``' (numtaps, cutoff, beta) for one input rate."""
    op_rate = rate * (8000 // math.gcd(8000, rate))
    numtaps = math.ceil((80.0 - 7.95) / 2.285 / (math.pi * 2.0 * 140.0 / op_rate) + 1) | 1
    return numtaps, 2.0 * 3970.0 / op_rate, 0.1102 * (80.0 - 8.7)


@pytest.mark.parametrize("rate", RESAMPLE_RATES)
def test_blocked_filter_design_matches_whole_array(rate):
    taps = audio._decimation_taps.__wrapped__(rate * (8000 // math.gcd(8000, rate)))
    numtaps, cutoff, beta = design_args(rate)
    assert taps.size == numtaps
    assert taps.tobytes() == whole_array_kaiser_lowpass(numtaps, cutoff, beta).tobytes()


def test_filter_design_blocks_match_one_block(monkeypatch):
    # tap counts one before, on and one after each block edge
    _, cutoff, beta = design_args(44100)
    for block in (1, 7, 64):
        for numtaps in sorted({block * k + d for k in (1, 2) for d in (-1, 0, 1)} - {0, 1}):
            monkeypatch.setattr(audio, "KAISER_BLOCK_TAPS", block)
            got = audio._kaiser_lowpass(numtaps, cutoff, beta)
            monkeypatch.setattr(audio, "KAISER_BLOCK_TAPS", 10 ** 6)
            ref = audio._kaiser_lowpass(numtaps, cutoff, beta)
            assert got.tobytes() == ref.tobytes(), (block, numtaps)
            assert got.tobytes() == whole_array_kaiser_lowpass(numtaps, cutoff, beta).tobytes()


def test_filter_design_memory_is_bounded():
    # the 44.1 kHz family's 126,467 taps: 1 MB of output; evaluating the
    # window and sinc over every tap at once peaked at 13.7 MB
    args = design_args(44100)
    tracemalloc.start()
    try:
        taps = audio._kaiser_lowpass(*args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert taps.size == 126467
    assert peak <= 3e6, peak


def test_long_file_takes_several_products(rng, monkeypatch):
    # the product is split to bound memory; the seams must not show
    monkeypatch.setattr(audio, "_PRODUCT_FLOATS", 5000)
    x = rng.uniform(-1.0, 1.0, 48000)
    _, ref = scipy_resample(x, 16000)
    assert_close_to_oracle(resample_to_8k(wf(x, rate=16000)).samples, ref)


def test_decimation_filter_is_designed_once_per_rate(monkeypatch):
    audio._decimation_taps.cache_clear()
    audio._polyphase_matrix.cache_clear()
    designed = []
    design = audio._kaiser_lowpass

    def counted_design(numtaps, *args, **kwargs):
        designed.append(numtaps)
        return design(numtaps, *args, **kwargs)

    monkeypatch.setattr(audio, "_kaiser_lowpass", counted_design)
    w = wf(tone(300, dur_s=0.2, rate=44100), rate=44100)
    first = resample_to_8k(w).samples
    again = resample_to_8k(wf(tone(300, dur_s=0.3, rate=44100), rate=44100))
    assert len(designed) == 1 and again.sample_rate == 8000
    assert resample_to_8k(w).samples.tobytes() == first.tobytes()
    taps = audio._decimation_taps(44100 * 80)
    assert not taps.flags.writeable
    with pytest.raises(ValueError):
        taps[0] = 1.0
    assert audio._decimation_taps(44100 * 80) is taps
    assert len(designed) == 1


def test_polyphase_matrix_is_built_once_per_rate():
    audio._decimation_taps.cache_clear()
    audio._polyphase_matrix.cache_clear()
    for rate in (44100, 22050, 44100, 22050):
        resample_to_8k(wf(tone(300, dur_s=0.2, rate=rate), rate=rate))
    # 44.1 and 22.05 kHz share one operating rate, so one filter, two matrices
    assert audio._decimation_taps.cache_info().currsize == 1
    info = audio._polyphase_matrix.cache_info()
    assert (info.currsize, info.misses) == (2, 2)
    matrix, _ = audio._polyphase_matrix(80, 441)
    with pytest.raises(ValueError):
        matrix[0, 0] = 1.0


def test_rejected_rate_is_not_memoised(monkeypatch):
    def no_design(*args, **kwargs):
        raise AssertionError("filter designed for a rejected rate")

    monkeypatch.setattr(audio, "_kaiser_lowpass", no_design)
    audio._decimation_taps.cache_clear()
    audio._polyphase_matrix.cache_clear()
    for name in ("a.wav", "b.wav"):
        with pytest.raises(UnsupportedWavError, match=name + ": rate 96001: resampling to 8000 Hz"):
            resample_to_8k(wf(np.zeros(64), rate=96001, source=name))
    assert audio._decimation_taps.cache_info().currsize == 0
    assert audio._polyphase_matrix.cache_info().currsize == 0


def test_resample_linearity(rng):
    x = rng.standard_normal(16000) * 0.1
    a = 0.37
    y1 = resample_to_8k(wf(a * x, rate=16000)).samples
    y2 = a * resample_to_8k(wf(x, rate=16000)).samples
    np.testing.assert_allclose(y1, y2, atol=1e-9)


# ------------------------------------------------------------ frame_signal

def test_frame_count_one_second():
    frames = frame_signal(wf(tone(100)))
    assert frames.shape == (98, 200)


def test_frame_count_formula_random_lengths(rng):
    for n in rng.integers(1, 5000, size=1000):
        n = int(n)
        expected = (n - 200) // 80 + 1 if n >= 200 else 0
        assert frame_count(n, 200, 80) == expected
    frames = frame_signal(wf(np.ones(777)))
    assert frames.shape[0] == (777 - 200) // 80 + 1


def test_rectangular_window_constant_signal():
    frames = frame_signal(wf(np.ones(1000)))
    assert np.all(frames == 1.0)


def test_hann_window_endpoints():
    frames = Analysis(wf(np.ones(1000))).hann_frames
    assert np.all(np.abs(frames[:, 0]) < 1e-12)
    assert np.all(np.abs(frames[:, -1]) < 1e-12)


def test_short_signal_gives_empty_series():
    frames = frame_signal(wf(np.ones(100)))
    assert frames.shape == (0, 200)


@pytest.mark.parametrize("rate", [8000, 16000, 44100])
def test_every_frame_series_is_on_the_grid(rng, rate):
    # 1 sample to 1 s, on and either side of the lengths where a frame is added
    length, step = grid(rate)
    sizes = {1, rate}
    for k in (0, 1, 2, (rate - length) // step):
        sizes |= {length + k * step - 1, length + k * step, length + k * step + 1}
    for n in sorted(sizes):
        a = Analysis(wf(tone(170, n / rate, rate=rate) + 0.01 * rng.standard_normal(n), rate))
        want = frame_count(n, length, step)
        series = {"rect_frames": a.rect_frames, "hann_frames": a.hann_frames,
                  "hann_power": a.hann_power, "log_energy": a.log_energy,
                  "voiced": a.voiced, "speech": a.speech, "f0.values": a.f0.values,
                  "f0.strength": a.f0.strength}
        for name, got in series.items():
            assert got.shape[0] == want, (rate, n, name)


# ------------------------------------------------------------ detect_speech

def vad(x):
    """``detect_speech`` of x at 8 kHz, on x's own frames and F0 track."""
    return detect_speech(Analysis(wf(x)))


def true_runs(mask):
    return [(lo, hi) for lo, hi, on in audio._runs(mask) if on]


def test_vad_all_zero_is_one_silence_span():
    speech = vad(np.zeros(8000))
    assert speech.shape == (frame_count(8000, 200, 80),) and speech.dtype == bool
    assert not np.any(speech)


def test_vad_sine_covers_signal():
    speech = vad(tone(200, amp=0.9))
    assert np.count_nonzero(speech) >= 0.95 * speech.size


def test_vad_tone_silence_tone_layout():
    x = np.concatenate([tone(250, 0.5), np.zeros(8000), tone(250, 0.5)])
    speech = vad(x)
    assert len(true_runs(speech)) >= 2
    mid = [(lo, hi) for lo, hi in true_runs(~speech) if lo * 80 > 3000 and hi * 80 < 13000]
    assert mid, f"no central silence run in {audio._runs(speech)}"


def test_vad_idempotent_on_speech_output():
    x = np.concatenate([tone(250, 0.5), np.zeros(8000), tone(250, 0.5)])
    speech = vad(x)
    # a run ends at its end frame's first sample, the last run at the last sample
    kept_x = np.concatenate([x[lo * 80:(hi * 80 if hi < speech.size else x.size)]
                             for lo, hi in true_runs(speech)])
    again = vad(kept_x)
    assert np.count_nonzero(again) * 80 >= kept_x.size - 2 * 200


def test_parse_wav_matches_load_wav(tmp_path):
    path = tmp_path / "t.wav"
    save_wav(path, wf(tone(300, 0.2, amp=0.5)))
    loaded = load_wav(path)
    parsed = parse_wav(path.read_bytes(), path)
    assert parsed.samples.tobytes() == loaded.samples.tobytes()
    assert (parsed.sample_rate, parsed.source_id) == (loaded.sample_rate, str(path))
    with pytest.raises(MalformedWavError, match="bytes.wav"):
        parse_wav(b"RIFX" + bytes(40), "bytes.wav")


def riff(fmt_body, data, pad=True):
    """A RIFF/WAVE blob of a fmt and a data chunk; ``pad`` adds the byte that
    word-aligns an odd-length chunk, which a careless writer leaves out."""
    def chunk(tag, body):
        return tag + struct.pack("<I", len(body)) + body + (b"\0" if pad and len(body) % 2 else b"")
    body = b"WAVE" + chunk(b"fmt ", fmt_body) + chunk(b"data", data)
    return b"RIFF" + struct.pack("<I", len(body)) + body


def pcm_fmt(bits, channels=1, rate=8000, tag=1):
    block = channels * bits // 8
    return struct.pack("<HHIIHH", tag, channels, rate, rate * block, block, bits)


VALID_WAVS = (
    riff(pcm_fmt(16), (np.round(tone(300, 0.01) * 32767.0).astype("<i2")).tobytes()),
    riff(pcm_fmt(8, channels=2), bytes(range(0, 255, 3))),
)
# byte offsets of the RIFF, fmt and data chunk sizes in both valid files
SIZE_FIELDS = (4, 16, 40)


def hostile_wavs():
    """Truncated, byte-flipped and chunk-size-corrupted copies of the valid
    16-bit mono and 8-bit stereo files, and files whose fmt or data chunk has
    an odd length, with or without its pad byte."""
    valid = st.sampled_from(VALID_WAVS)
    header_or_any = st.one_of(st.integers(0, 43), st.integers(0, len(VALID_WAVS[1]) - 1))
    sizes = st.one_of(st.sampled_from([0, 1, 2, 15, 16, 17, 2 ** 31, 2 ** 32 - 1]),
                      st.integers(0, 2 ** 32 - 1))

    def flip(blob, pos, mask):
        out = bytearray(blob)
        out[pos % len(blob)] ^= mask
        return bytes(out)

    def resize(blob, field, size):
        return blob[:field] + struct.pack("<I", size) + blob[field + 4:]

    odd = st.builds(
        lambda bits, channels, extra, data, pad: riff(pcm_fmt(bits, channels) + extra, data, pad),
        st.sampled_from([8, 16]), st.integers(0, 3), st.binary(max_size=3),
        st.binary(max_size=9), st.booleans())
    return st.one_of(
        st.tuples(valid, st.integers(0, len(VALID_WAVS[0]))).map(lambda c: c[0][:c[1]]),
        st.builds(flip, valid, header_or_any, st.integers(1, 255)),
        st.builds(resize, valid, st.sampled_from(SIZE_FIELDS), sizes),
        odd)


def test_hostile_wav_decodes_finite_or_is_a_wav_error():
    # the two files every variant starts from are valid
    assert [len(parse_wav(v)) for v in VALID_WAVS] == [80, 42]

    @settings(derandomize=True, database=None, deadline=None, max_examples=200,
              suppress_health_check=[HealthCheck.too_slow])
    @given(hostile_wavs())
    def check(blob):
        try:
            w = parse_wav(blob, "hostile.wav")
        except (MalformedWavError, UnsupportedWavError):
            return
        assert isinstance(w, Waveform)
        assert w.samples.size > 0 and np.all(np.isfinite(w.samples))
        assert w.sample_rate > 0

    check()


def test_vad_micro_recording():
    speech = vad(np.zeros(80))  # 10 ms: shorter than one frame
    assert speech.shape == (0,) and speech.dtype == bool


# ---------------------------------------------------------- voiced_segments

def test_fully_voiced_single_span():
    w = wf(tone(200, amp=0.8))
    voiced, onset, chunks = voiced_segments(w, estimate_f0(w))
    assert voiced.shape == (frame_count(len(w), 200, 80),) and np.all(voiced)
    assert onset.shape == (0,) and chunks.shape == (0, 640)


def test_voiced_unvoiced_voiced_pattern(rng):
    x = np.concatenate([tone(200, 0.3, amp=0.8),
                        0.3 * rng.standard_normal(2400),
                        tone(200, 0.3, amp=0.8)])
    w = wf(x)
    voiced, onset, chunks = voiced_segments(w, estimate_f0(w))
    assert [bool(v) for _, _, v in audio._runs(voiced)] == [True, False, True]
    assert onset.tolist() == [False, True] and chunks.shape == (2, 640)


def test_silence_single_unvoiced_span():
    w = wf(np.zeros(8000))
    voiced, onset, chunks = voiced_segments(w, estimate_f0(w))
    assert voiced.shape == (98,) and not np.any(voiced)
    assert onset.shape == (0,) and chunks.shape == (0, 640)


def test_partition_and_transition_count(rng):
    w = wf(np.ones(8000) * 0.1)
    for _ in range(50):
        values = rng.choice([0.0, 150.0], size=98, p=[0.5, 0.5])
        voiced, onset, chunks = voiced_segments(w, F0Track(values, np.ones(98)))
        runs = audio._runs(voiced)
        assert voiced.shape == (98,)
        # one onset flag and one chunk per run boundary, flags alternating
        assert onset.tolist() == [bool(v) for _, _, v in runs[1:]]
        assert chunks.shape == (len(runs) - 1, 640)
        # surviving runs honor the 3-frame minimum (except a lone run)
        if len(runs) > 1:
            assert all(hi - lo >= 3 for lo, hi, _ in runs)


def runs_oracle(labels):
    """Run-length encoding one frame at a time, as ``_runs`` did it."""
    out = []
    start = 0
    for t in range(1, labels.size + 1):
        if t == labels.size or labels[t] != labels[start]:
            out.append((start, t, labels[start]))
            start = t
    return out


def merged_runs_oracle(labels):
    """Flip the leftmost short run and re-encode, until none is short."""
    runs = runs_oracle(labels)
    while len(runs) > 1:
        short = next((i for i, (s, e, _) in enumerate(runs) if e - s < 3), None)
        if short is None:
            break
        s, e, v = runs[short]
        merged = np.concatenate([np.full(en - st, bool(kv)) for st, en, kv in runs])
        merged[s:e] = not v
        runs = runs_oracle(merged)
    return [(s, e, bool(v)) for s, e, v in runs]


def test_short_run_merge_matches_flip_loop_oracle(rng):
    cases = [np.zeros(0, bool), np.ones(1, bool), np.zeros(7, bool),   # single run
             np.array([1, 0, 1, 0, 1, 0, 1], bool),                   # all short
             np.array([1, 0, 0, 1, 1, 1, 1, 1], bool),                # leading short run
             np.array([1, 1, 0, 1, 0, 0, 0], bool)]
    for _ in range(400):
        n = int(rng.integers(1, 60))
        lengths = rng.choice([1, 1, 2, 2, 3, 5, 9], size=n)
        cases.append((np.arange(lengths.sum()) * 0 + np.repeat(np.arange(n) % 2, lengths))
                     .astype(bool) ^ bool(rng.integers(2)))
    for labels in cases:
        assert [(s, e, bool(v)) for s, e, v in audio._runs(labels)] == \
            [(s, e, bool(v)) for s, e, v in runs_oracle(labels)]
        got = [(s, e, bool(v)) for s, e, v in audio._merge_short_runs(audio._runs(labels))]
        assert got == merged_runs_oracle(labels), labels.astype(int).tolist()


def test_voiced_segments_linear_in_frames():
    # alternating 1-2 frame runs: the flip-and-re-encode loop took 15 s on 40 s of audio
    import time

    values = np.tile([150.0, 0.0, 0.0, 150.0, 150.0, 0.0], 700)
    track = F0Track(values, np.ones(values.size))
    w = wf(np.full(values.size * 80 + 120, 0.1))
    start = time.perf_counter()
    voiced, _, _ = voiced_segments(w, track)
    assert time.perf_counter() - start < 1.0
    assert voiced.shape == values.shape


def test_transition_chunks_are_80ms_zero_padded():
    x = np.arange(8000) / 8000.0   # each sample names its own index
    w = wf(x)
    values = np.concatenate([np.zeros(4), np.full(94, 200.0)])
    onset, chunks = voiced_segments(w, F0Track(values, np.ones(98)))[1:]
    assert onset.tolist() == [True] and chunks.shape == (1, round(0.08 * 8000))
    # centred on the boundary's first sample, 4 * 80 = 320: the 640 samples
    # from 0 fit, so nothing was zero-padded here
    assert chunks[0].tobytes() == x[:640].tobytes()

    early = F0Track(np.concatenate([np.full(3, 200.0), np.zeros(95)]), np.ones(98))
    onset, chunks = voiced_segments(w, early)[1:]
    # boundary at frame 3 => sample 240 < 320: the head of the chunk is zero-padded
    assert onset.tolist() == [False]
    assert not np.any(chunks[0, :80]) and chunks[0, 80:].tobytes() == x[:560].tobytes()
