import math
import tracemalloc

import numpy as np
import pytest
from scipy import signal as sps

from emovox import analysis
from emovox.audio import Waveform, _merge_short_runs
from emovox.dsp import F0Track, estimate_f0
from emovox.features import FeatureVector, fuse, i2010pc, phonation
from emovox.analysis import Analysis
from emovox.features.articulation import (N_MFCC, articulation_features,
                                          transition_descriptors)
from emovox.features.i2010pc import (LLD_NAMES, _hold_last_voiced, _per_frame_perturbation,
                                     i2010pc_features)
from emovox.features.phonation import (MAX_PERIOD_DEVIATION, PHONATION_TRACKS,
                                       WindowValues, glottal_cycles, phonation_features,
                                       pulse_windows)
from emovox.features.prosody import PROSODY_FEATURE_NAMES, _slope_and_mse, prosody_features
from emovox.pipeline import HAND_BUILT, extract_scheme
from emovox.dsp import (bark_band_energies, delta, log_frame_energy, mfcc_frames,
                        power_spectrum)
from emovox.audio import _runs, detect_speech, frame_count, frame_signal, grid
from emovox.errors import FeatureSchemeError
from emovox.functionals import FOUR_MOMENTS, IS10_FUNCTIONALS, SIX_BASIC, apply_functionals

from conftest import tone, voice_like, wf


def detect_pulses(x, rate, f0_hz):
    """Pulse marks and amplitudes of one whole signal: one window of pulse_windows."""
    x = np.asarray(x, dtype=np.float64)
    marks, amps, _ = pulse_windows(x, [0], x.size, [f0_hz], rate)
    return marks, amps


def pulse_train(periods_s, rate=8000, amp=0.8, sigma=3.0, pad=100):
    centers = pad + np.cumsum(np.r_[0.0, np.asarray(periods_s) * rate])
    n = int(centers[-1]) + pad
    t = np.arange(n)
    x = np.zeros(n)
    for c in centers:
        x += amp * np.exp(-0.5 * ((t - c) / sigma) ** 2)
    return x


def vowel(f0, formant_list, dur_s=1.0, rate=8000, seed=0):
    """Impulse-train excitation through resonators: a crude sustained vowel."""
    n = int(dur_s * rate)
    x = np.zeros(n)
    x[::int(rate / f0)] = 1.0
    for f, bw in formant_list:
        r = math.exp(-math.pi * bw / rate)
        x = sps.lfilter([1.0], [1.0, -2 * r * math.cos(2 * math.pi * f / rate),
                                r * r], x)
    return 0.8 * x / np.max(np.abs(x))


# ----------------------------------------------------------------- phonation

def test_phonation_dim_is_28():
    assert phonation_features(wf(tone(150))).dim == 28


def test_phonation_periodic_train_near_zero_perturbation():
    x = pulse_train([0.005] * 150)
    v = phonation_features(wf(x))
    jitter_mean, shimmer_mean = v.values[8], v.values[12]
    assert abs(jitter_mean) < 1e-3
    assert abs(shimmer_mean) < 1e-3


def test_phonation_alternating_periods_jitter():
    periods = [0.005 if i % 2 == 0 else 0.00505 for i in range(150)]
    v = phonation_features(wf(pulse_train(periods)))
    assert abs(v.values[8] - 0.995) < 0.05


def test_phonation_unvoiced_input_zero_with_warning(rng):
    v = phonation_features(wf(0.3 * rng.standard_normal(8000)))
    np.testing.assert_array_equal(v.values, 0.0)
    assert v.warning == "no voiced frames"


# The perturbation measures one window at a time, as phonation first computed
# them per voiced span: the oracle of glottal_cycles and WindowValues.

def clean_periods(marks):
    """One window's gaps between marks, less those over 40 % from their median."""
    periods = np.diff(marks)
    if periods.size == 0:
        return periods
    med = np.median(periods)
    keep = np.abs(periods - med) <= MAX_PERIOD_DEVIATION * med
    return periods[keep]


def jitter_local(periods):
    if periods.size < 2:
        return math.nan
    return 100.0 * np.mean(np.abs(np.diff(periods))) / np.mean(periods)


def jitter_ppq5(periods):
    if periods.size < 5:
        return math.nan
    devs = [abs(periods[i] - np.mean(periods[i - 2:i + 3]))
            for i in range(2, periods.size - 2)]
    return 100.0 * np.mean(devs) / np.mean(periods)


def jitter_ddp(periods):
    if periods.size < 3:
        return math.nan
    return 100.0 * np.mean(np.abs(np.diff(periods, 2))) / np.mean(periods)


def shimmer_local(amps):
    amps = amps[amps > 0]
    if amps.size < 2:
        return math.nan
    return 100.0 * np.mean(np.abs(np.diff(amps))) / np.mean(amps)


def shimmer_apq11(amps):
    amps = amps[amps > 0]
    if amps.size < 11:
        return math.nan
    devs = [abs(amps[i] - np.mean(amps[i - 5:i + 6]))
            for i in range(5, amps.size - 5)]
    return 100.0 * np.mean(devs) / np.mean(amps)


def one_window(values):
    values = np.asarray(values, dtype=np.float64)
    return WindowValues(values, np.array([values.size]))


def test_jitter_shimmer_primitives():
    const = one_window(np.full(20, 0.005))
    assert const.relative_diff(1)[0] == 0.0
    assert const.quotient(5)[0] == 0.0
    assert const.relative_diff(2)[0] == 0.0
    assert math.isnan(one_window(np.full(4, 0.005)).quotient(5)[0])
    assert math.isnan(one_window([0.005]).relative_diff(1)[0])
    assert math.isnan(one_window(np.ones(10)).quotient(11)[0])
    assert one_window(np.ones(5)).relative_diff(1)[0] == 0.0


def test_apq11_matches_brute_force():
    amps = np.array([1.0, 1, 1, 1, 2, 1, 1, 1, 1, 1, 1])
    got = one_window(amps).quotient(11)[0]
    # independent direct summation
    devs = []
    for i in range(5, amps.size - 5):
        devs.append(abs(amps[i] - np.mean(amps[i - 5:i + 6])))
    want = 100.0 * np.mean(devs) / np.mean(amps)
    assert abs(got - want) < 1e-12


def test_pulse_marks_subsample_accuracy():
    x = pulse_train([0.005, 0.00505] * 40)
    marks, amps = detect_pulses(x, 8000, 199.0)
    periods = np.diff(marks)
    # recovered periods alternate near 40.0 and 40.4 samples
    assert np.all(np.abs(np.sort(np.unique(np.round(periods, 1))) -
                         np.array([40.0, 40.4])) < 0.2)
    np.testing.assert_allclose(amps, 0.8, atol=0.02)


# ---------------------------------------------- pulse picking against find_peaks

def parabolic_peak_oracle(x, k):
    """Per-peak parabolic refinement, as detect_pulses did it before the scan."""
    if k <= 0 or k >= x.size - 1:
        return float(k), float(x[k])
    a, b, c = x[k - 1], x[k], x[k + 1]
    denom = a - 2.0 * b + c
    if abs(denom) < 1e-30:
        return float(k), float(b)
    shift = float(np.clip(0.5 * (a - c) / denom, -0.5, 0.5))
    return k + shift, float(b - 0.25 * (a - c) * shift)


def find_peaks_pulses(x, rate, f0_hz):
    """The find_peaks-based detect_pulses: the oracle of the NumPy picker."""
    if f0_hz <= 0 or x.size < 3:
        return np.zeros(0), np.zeros(0)
    period = rate / f0_hz
    height = 0.3 * float(np.max(x)) if np.max(x) > 0 else None
    peaks, _ = sps.find_peaks(x, distance=max(int(0.6 * period), 1), height=height)
    refined = [parabolic_peak_oracle(x, int(k)) for k in peaks]
    return np.asarray([m for m, _ in refined]), np.asarray([a for _, a in refined])


def per_frame_perturbation_oracle(padded, f0_values, step, frame_len):
    """One find_peaks window per voiced frame, each reduced on its own."""
    out = np.zeros((3, f0_values.size))
    for t, f0_t in enumerate(f0_values):
        if f0_t <= 0:
            continue
        seg = padded.samples[t * step:t * step + frame_len]
        marks, amps = find_peaks_pulses(seg, padded.sample_rate, float(f0_t))
        periods = clean_periods(marks) / padded.sample_rate
        for row, v in enumerate((jitter_local(periods), jitter_ddp(periods),
                                 shimmer_local(amps))):
            out[row, t] = 0.0 if np.isnan(v) else v
    return out


def hostile_signal(rng, kind, n):
    """Voice-like, quantised (plateaus), gappy (zero runs), silent or sparse pulses."""
    t = np.arange(n) / 8000
    f0 = rng.uniform(55, 420)
    x = 0.5 * np.sin(2 * np.pi * f0 * t + 0.5 * np.sin(2 * np.pi * 3 * t))
    x = x + rng.uniform(0, 0.3) * rng.standard_normal(n)
    if kind == "plateaus":
        x = np.round(x * rng.choice([3, 20])) / 20
    elif kind == "zero runs":
        x[rng.random(n) < 0.3] = 0.0
        x[n // 3:2 * n // 3] = 0.0
    elif kind == "silence":
        x = np.zeros(n)
    elif kind == "sparse":   # 0-2 pulses per 60 ms window
        x = np.zeros(n)
        x[rng.choice(n, size=max(n // 500, 1), replace=False)] = rng.uniform(0.2, 0.9)
    return x


PULSE_KINDS = ("voice", "plateaus", "zero runs", "silence", "sparse")


def test_detect_pulses_matches_find_peaks_oracle(rng):
    for trial in range(150):
        n = int(rng.integers(0, 6)) if trial % 15 == 0 else int(rng.integers(6, 4000))
        x = hostile_signal(rng, PULSE_KINDS[trial % 5], max(n, 1))[:n]
        for f0 in (rng.uniform(55, 420), rng.uniform(55, 420), 0.0):
            want = find_peaks_pulses(x, 8000, f0)
            got = detect_pulses(x, 8000, f0)
            assert got[0].tobytes() == want[0].tobytes(), (trial, f0)
            assert got[1].tobytes() == want[1].tobytes(), (trial, f0)


def test_pulse_windows_of_own_lengths_match_find_peaks_oracle(rng):
    # phonation's windows: one per voiced span, each of its own length
    for trial in range(60):
        x = hostile_signal(rng, PULSE_KINDS[trial % 5], int(rng.integers(1, 5000)))
        n_windows = int(rng.integers(0, 12))
        starts = rng.integers(0, x.size + 40, n_windows)
        # overlapping, empty, short or past the end
        lengths = np.where(rng.random(n_windows) < 0.5, rng.integers(0, 40, n_windows),
                           rng.integers(0, 1500, n_windows))
        f0 = rng.uniform(55, 420, n_windows) * (rng.random(n_windows) < 0.8)
        marks, amps, counts = pulse_windows(x, starts, lengths, f0, 8000)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        for i in range(n_windows):
            want = find_peaks_pulses(x[starts[i]:starts[i] + lengths[i]], 8000, f0[i])
            got = marks[bounds[i]:bounds[i + 1]], amps[bounds[i]:bounds[i + 1]]
            assert got[0].tobytes() == want[0].tobytes(), (trial, i)
            assert got[1].tobytes() == want[1].tobytes(), (trial, i)


def stable_distance_rule(peaks, heights, distance):
    """find_peaks' distance rule with ties ranked by a stable sort instead."""
    keep = np.ones(peaks.size, dtype=bool)
    for j in np.argsort(heights, kind="stable")[::-1]:
        if keep[j]:
            near = np.abs(peaks - peaks[j]) < distance
            near[j] = False
            keep[near] = False
    return keep


def test_pulse_windows_rank_ties_as_find_peaks(rng):
    # clipped voice: noise splits each clipped crest into plateaus at exactly
    # the clip level, so tied candidates sit closer than the distance rule,
    # and long windows hold more than 16 candidates, where np.argsort is not
    # a stable sort; some windows keep other pulses under a stable tie order
    many = tie_sensitive = 0
    for trial in range(40):
        n = int(rng.integers(2000, 8000))
        t = np.arange(n) / 8000
        x = np.clip(rng.uniform(1.2, 3.0) * np.sin(2 * np.pi * rng.uniform(70, 300) * t)
                    + rng.uniform(0.02, 0.3) * rng.standard_normal(n), -1.0, 1.0)
        if trial % 2:
            x = np.round(x * 64) / 64   # coarse quantisation: ties below the clip too
        starts = rng.integers(0, n // 2, 8)
        lengths = rng.integers(100, n, 8)
        f0 = rng.uniform(55, 420, 8)
        marks, amps, counts = pulse_windows(x, starts, lengths, f0, 8000)
        bounds = np.concatenate([[0], np.cumsum(counts)])
        for i in range(8):
            seg = x[starts[i]:starts[i] + lengths[i]]
            want = find_peaks_pulses(seg, 8000, f0[i])
            assert marks[bounds[i]:bounds[i + 1]].tobytes() == want[0].tobytes(), (trial, i)
            assert amps[bounds[i]:bounds[i + 1]].tobytes() == want[1].tobytes(), (trial, i)
            peaks, _ = sps.find_peaks(seg, height=0.3 * seg.max())
            distance = max(int(0.6 * 8000 / f0[i]), 1)
            kept, _ = sps.find_peaks(seg, height=0.3 * seg.max(), distance=distance)
            many += peaks.size > 16
            stable = peaks[stable_distance_rule(peaks, seg[peaks], distance)]
            tie_sensitive += not np.array_equal(stable, kept)
    assert many >= 150 and tie_sensitive >= 50


def test_per_frame_perturbation_matches_per_window_oracle(rng):
    for trial in range(100):
        x = hostile_signal(rng, PULSE_KINDS[trial % 5], int(rng.integers(1, 5000)))
        step = int(rng.choice([80, 37, 160]))
        frame_len = int(rng.choice([480, 480, 100, 3, 2]))
        # windows past the end of the signal are cut short, down to nothing
        n_windows = int(rng.integers(0, x.size // step + 8))
        f0 = rng.uniform(55, 420, n_windows) * (rng.random(n_windows) < 0.7)
        padded = wf(x)
        want = per_frame_perturbation_oracle(padded, f0, step, frame_len)
        got = np.array(_per_frame_perturbation(padded, f0, step, frame_len))
        assert got.tobytes() == want.tobytes(), trial


def test_per_frame_perturbation_blocks_match_one_block(rng, monkeypatch):
    # a window's pulses depend only on its own samples, so no block size
    # moves a bit: hostile signals with windows past the end, and a voice at
    # frame counts one before, on and one after each block edge
    def both(block, *args):
        monkeypatch.setattr(i2010pc, "PULSE_BLOCK_FRAMES", 10 ** 6)
        ref = np.array(_per_frame_perturbation(*args))
        monkeypatch.setattr(i2010pc, "PULSE_BLOCK_FRAMES", block)
        return np.array(_per_frame_perturbation(*args)), ref

    for trial in range(60):
        x = hostile_signal(rng, PULSE_KINDS[trial % 5], int(rng.integers(1, 5000)))
        step = int(rng.choice([80, 37, 160]))
        frame_len = int(rng.choice([480, 480, 100, 3, 2]))
        n_windows = int(rng.integers(0, x.size // step + 8))
        f0 = rng.uniform(55, 420, n_windows) * (rng.random(n_windows) < 0.7)
        for block in (1, 7):
            got, ref = both(block, wf(x), f0, step, frame_len)
            assert got.tobytes() == ref.tobytes(), (trial, block)
    voice = wf(np.pad(voice_like(140, 21.0, rough=0.3, seed=3), 200))
    for block in (7, i2010pc.PULSE_BLOCK_FRAMES):
        for n in sorted({block * k + d for k in (1, 2) for d in (-1, 0, 1)}):
            f0 = np.where(rng.random(n) < 0.7, rng.uniform(120, 160, n), 0.0)
            got, ref = both(block, voice, f0, 80, 480)
            assert np.count_nonzero(ref[0]) > n // 4
            assert got.tobytes() == ref.tobytes(), (block, n)


def test_per_frame_perturbation_memory_grows_only_by_the_output():
    # one scan of a 300 s row held its local maxima and every pulse at once,
    # 101 MB above entry; the blocks scan PULSE_BLOCK_FRAMES windows at a time
    peaks, sizes = [], []
    for seconds in (30, 300):
        padded = wf(np.pad(voice_like(140, seconds, rough=0.3, seed=6), 280))
        n = seconds * 100
        f0 = np.where(np.arange(n) % 10 < 7, 140.0, 0.0)
        tracemalloc.start()
        try:
            measures = _per_frame_perturbation(padded, f0, 80, 480)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert np.count_nonzero(measures[0]) > n // 2
        peaks.append(peak)
        sizes.append(3 * 8 * n)
    assert peaks[0] - sizes[0] <= 8e6, peaks
    assert (peaks[1] - peaks[0]) - (sizes[1] - sizes[0]) <= 1e5, (peaks, sizes)


def test_i2010pc_functionals_memory_is_bounded(rng):
    # i2010pc's [lld, delta(lld)] of a 300 s row, 30,000 x 76: summarised
    # at once they peaked 94 MB above entry; the blocks hold 16 columns
    lld = rng.standard_normal((30000, 38))
    blocks = [lld, delta(lld)]
    tracemalloc.start()
    try:
        vec = apply_functionals(blocks, IS10_FUNCTIONALS)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert vec.size == 1596
    assert peak <= 25e6, peak


def test_glottal_cycles_match_scalar_measures_per_window(rng):
    # phonation's windows, each of its own length, of 0 to 15 pulses, every one
    # twice so windows of equal counts share a matrix; some heights zeroed or
    # made negative, which the positive-height rule drops
    seen = set()
    for trial in range(80):
        x = hostile_signal(rng, PULSE_KINDS[trial % 5], int(rng.integers(1, 8000)))
        n_windows = int(rng.integers(1, 7))
        f0 = np.tile(rng.uniform(55, 420, n_windows), 2)
        lengths = (np.tile(rng.integers(0, 16, n_windows), 2) * 8000 / f0).astype(int)
        starts = np.tile(rng.integers(0, x.size, n_windows), 2)
        marks, amps, counts = pulse_windows(x, starts, lengths, f0, 8000)
        amps = np.where(rng.random(amps.size) < 0.15,
                        rng.choice([0.0, -0.1], amps.size), amps)
        periods, heights = glottal_cycles(marks, amps, counts, 8000)
        got = np.column_stack([periods.relative_diff(1), periods.relative_diff(2),
                               periods.quotient(5), heights.relative_diff(1),
                               heights.quotient(11)])
        bounds = np.concatenate([[0], np.cumsum(counts)])
        for i in range(2 * n_windows):
            p = clean_periods(marks[bounds[i]:bounds[i + 1]]) / 8000
            a = amps[bounds[i]:bounds[i + 1]]
            want = np.array([jitter_local(p), jitter_ddp(p), jitter_ppq5(p),
                             shimmer_local(a), shimmer_apq11(a)])
            assert got[i].tobytes() == want.tobytes(), (trial, i)
        seen.update(counts.tolist())
    assert seen >= set(range(14))


def test_per_frame_perturbation_on_voice_matches_oracle():
    x = np.concatenate([vowel(130, [(600, 80), (1700, 100)], 0.6), np.zeros(800),
                        pulse_train([0.005, 0.0051] * 60)])
    padded = wf(np.pad(x, 140))
    f0 = np.where(np.arange(x.size // 80) % 17 < 12, 140.0, 0.0)
    want = per_frame_perturbation_oracle(padded, f0, 80, 480)
    assert np.count_nonzero(want[0]) > 20
    got = np.array(_per_frame_perturbation(padded, f0, 80, 480))
    assert got.tobytes() == want.tobytes()


def test_hold_last_voiced_matches_loop(rng):
    for n in (0, 1, 2, 7, 50):
        values = rng.uniform(60, 300, n) * (rng.random(n) < 0.5)
        want = values.copy()
        last = 0.0
        for i, v in enumerate(want):
            if v > 0:
                last = v
            else:
                want[i] = last
        assert _hold_last_voiced(values).tobytes() == want.tobytes()


# --------------------------------------------------------------- articulation

def test_articulation_dim_is_488(rng):
    x = np.concatenate([tone(150, 0.4, amp=0.8), 0.3 * rng.standard_normal(2400),
                        tone(200, 0.4, amp=0.8)])
    assert articulation_features(wf(x)).dim == 488


def test_articulation_sustained_vowel_formant_block():
    v = articulation_features(wf(vowel(120, [(500, 80), (1500, 80)])))
    assert v.dim == 488
    assert "no transitions" in v.warning
    np.testing.assert_array_equal(v.values[:464], 0.0)  # transition blocks
    mean_f1 = v.values[464]
    assert 450 <= mean_f1 <= 550
    mean_f2 = v.values[464 + 12]
    assert 1350 <= mean_f2 <= 1650


# The sample-span rule the segmenter once used: frame runs became sample
# spans, and the schemes turned the spans back into frame masks.

def frame_runs_to_spans(runs, step, n_samples):
    """(start, end, on) sample spans of (lo, hi, on) frame runs: run lo..hi
    covers samples lo*step up to hi*step, and the last run ends at the last
    sample."""
    return [(lo * step, hi * step if i < len(runs) - 1 else n_samples, bool(on))
            for i, (lo, hi, on) in enumerate(runs)]


def ceil_loop_mask(spans, n, step):
    """A frame mask as prosody built it: each ``on`` span's frames from
    ceil(start / step) up to ceil(end / step)."""
    mask = np.zeros(n, dtype=bool)
    for start, end, on in spans:
        if on:
            lo = int(np.ceil(start / step))
            hi = int(np.ceil(end / step))
            mask[lo:min(hi, n)] = True
    return mask


def voiced_spans_oracle(w, f0):
    """Sample spans of an F0 track's voicing runs, short runs merged away."""
    runs = _merge_short_runs(_runs(f0.values > 0))
    return frame_runs_to_spans(runs, grid(w.sample_rate)[1], w.samples.size)


def speech_spans_oracle(w):
    """Sample spans of the runs of the VAD's speech frames."""
    return frame_runs_to_spans(_runs(detect_speech(Analysis(w))), grid(w.sample_rate)[1],
                               w.samples.size)


def transitions_oracle(w, spans):
    """Onset flag and 80 ms chunk of each span boundary, one chunk at a time,
    zero-padded where it runs off the signal."""
    size = round(0.080 * w.sample_rate)
    onset, chunks = [], np.zeros((len(spans) - 1 if spans else 0, size))
    for chunk, (center, _, on) in zip(chunks, spans[1:]):
        lo = center - size // 2
        src_lo, src_hi = max(lo, 0), min(lo + size, w.samples.size)
        chunk[src_lo - lo:src_hi - lo] = w.samples[src_lo:src_hi]
        onset.append(on)
    return onset, chunks


def test_voiced_frames_match_span_by_frame_loop(rng):
    x = np.concatenate([vowel(140, [(600, 80), (1700, 100)], 0.5),
                        0.01 * rng.standard_normal(2400),
                        vowel(210, [(400, 80), (2100, 100)], 0.4, seed=1)])
    w = wf(x)
    f0 = estimate_f0(w)
    spans = voiced_spans_oracle(w, f0)
    step, frame_len = 80, 200
    want = []   # every frame start tested against every voiced span
    for start_sample, end_sample, on in spans:
        if not on:
            continue
        for t in range(f0.values.size):
            start = t * step
            if start_sample <= start < end_sample:
                seg = w.samples[start:start + frame_len]
                if seg.size == frame_len:
                    want.append(seg)
    a = Analysis(w)
    got = a.rect_frames[a.voiced]
    assert len(want) > 20
    assert got.tobytes() == np.array(want).tobytes()
    assert np.array_equal(a.voiced, ceil_loop_mask(spans, f0.values.size, step))


@pytest.mark.parametrize("n_samples", [150, 199, 200, 280, 801, 8000, 12345])
def test_frame_masks_match_ceil_loop(rng, monkeypatch, n_samples):
    """Speech and voiced masks, phonation's pulse windows and the transitions
    against the sample-span rule, bit for bit, on random F0 tracks at 8, 16
    and 44.1 kHz.  ``n_samples`` is a length at 8 kHz; each rate takes the
    same duration and one sample either side, around where a frame is added."""
    windows = []

    def spy(x, starts, lengths, f0_hz, rate):
        windows.append(list(zip(starts, lengths)))
        return pulse_windows(x, starts, lengths, f0_hz, rate)
    monkeypatch.setattr(phonation, "pulse_windows", spy)
    cases = 0
    for rate in (8000, 16000, 44100):
        step = grid(rate)[1]
        for n in (round(n_samples * rate / 8000) + d for d in (-1, 0, 1)):
            n_frames = frame_count(n, *grid(rate))
            for _ in range(3):
                runs = rng.choice([1, 1, 2, 3, 5, 9], size=n_frames + 1)
                voiced = np.repeat(np.arange(runs.size) % 2 == rng.integers(2), runs)[:n_frames]
                track = F0Track(np.where(voiced, rng.uniform(80, 300), 0.0),
                                rng.random(n_frames))
                monkeypatch.setattr(analysis, "estimate_f0", lambda w, track=track: track)
                # loud, quiet and silent stretches, so the VAD's mask has runs too
                level = np.repeat(rng.choice([0.0, 1e-4, 0.3], size=n // step + 1), step)
                a = Analysis(wf(level[:n] * rng.standard_normal(n), rate))
                spans = voiced_spans_oracle(a.waveform, track)
                assert np.array_equal(a.voiced, ceil_loop_mask(spans, n_frames, step))
                assert np.array_equal(a.speech, ceil_loop_mask(
                    speech_spans_oracle(a.waveform), n_frames, step))
                assert a.speech.shape == a.voiced.shape == (n_frames,)

                windows.clear()
                phonation_features(a)
                want = [(start, end - start) for start, end, on in spans if on and np.any(
                    track.values[ceil_loop_mask([(start, end, on)], n_frames, step)] > 0)]
                assert (windows[0] if windows else []) == want

                onset, chunks = a.transitions
                want_onset, want_chunks = transitions_oracle(a.waveform, spans)
                assert onset.tolist() == want_onset
                assert chunks.shape == want_chunks.shape
                assert chunks.tobytes() == want_chunks.tobytes()
                cases += len(want_onset) > 0
    assert cases > 0 or n_samples < 801   # up to two frames hold no boundary


def transition_descriptors_oracle(chunk, rate):
    """58 values for one chunk: its own bark_band_energies and mfcc_frames calls."""
    (bbe,) = bark_band_energies(chunk[None], rate)
    if frame_count(chunk.size, round(0.025 * rate), round(0.010 * rate)) == 0:
        return np.concatenate([bbe, np.zeros(3 * N_MFCC)])
    frames = frame_signal(wf(chunk, rate))
    ceps = mfcc_frames(power_spectrum(frames * np.hanning(frames.shape[1])), rate, n_mels=24,
                       n_ceps=N_MFCC, first=1)
    return np.concatenate([bbe, ceps.mean(axis=0), delta(ceps).mean(axis=0),
                           delta(delta(ceps)).mean(axis=0)])


@pytest.mark.parametrize("rate, n_chunks", [(8000, 1), (8000, 9), (2000, 4)])
def test_transition_descriptors_match_per_chunk_oracle(rng, rate, n_chunks):
    # at 2 kHz an 80 ms chunk (160 samples) still holds 25 ms frames; a
    # 64-sample chunk at 8 kHz holds none
    chunks = rng.standard_normal((n_chunks, round(0.080 * rate)))
    chunks[0, :40] = 0.0
    want = np.array([transition_descriptors_oracle(c, rate) for c in chunks])
    got = transition_descriptors(chunks, rate)
    assert got.shape == (n_chunks, 58)
    np.testing.assert_allclose(got, want, rtol=0, atol=1e-9 * max(1.0, np.abs(want).max()))
    short = rng.standard_normal((2, 64))
    want = [transition_descriptors_oracle(c, 8000) for c in short]
    np.testing.assert_allclose(transition_descriptors(short, 8000), want, rtol=1e-12)


def test_articulation_silence_all_zero():
    v = articulation_features(wf(np.zeros(8000)))
    np.testing.assert_array_equal(v.values, 0.0)
    assert "no transitions" in v.warning and "no voiced frames" in v.warning


def test_articulation_transition_blocks_populated(rng):
    x = np.concatenate([tone(150, 0.4, amp=0.8), 0.3 * rng.standard_normal(2400),
                        tone(200, 0.4, amp=0.8)])
    v = articulation_features(wf(x))
    assert np.any(v.values[:232] != 0)  # onsets
    assert np.any(v.values[232:464] != 0)  # offsets


# ------------------------------------------------------------------- prosody

def test_prosody_dim_and_name_table():
    assert len(PROSODY_FEATURE_NAMES) == 78
    assert prosody_features(wf(tone(150))).dim == 78


def test_prosody_constant_f0_low_std():
    v = prosody_features(wf(tone(200, amp=0.7)))
    std = v.values[PROSODY_FEATURE_NAMES.index("f0_contour.std")]
    assert abs(std) < 1e-6


def test_prosody_two_segments_duration_mean():
    seg = tone(180, 1.0, amp=0.8)
    x = np.concatenate([seg, np.zeros(4800), seg])
    v = prosody_features(wf(x))
    idx = {n: i for i, n in enumerate(PROSODY_FEATURE_NAMES)}
    assert abs(v.values[idx["voiced_duration.mean"]] - 1.0) <= 0.010
    assert v.values[idx["n_voiced_segments"]] == 2.0
    assert v.values[idx["n_pauses"]] == 1.0


def test_prosody_silence_zero_with_warning():
    v = prosody_features(wf(np.zeros(8000)))
    np.testing.assert_array_equal(v.values, 0.0)
    assert v.warning == "no voiced speech"


def test_prosody_scaling_behaviour():
    seg = tone(180, 1.0, amp=0.8)
    x = np.concatenate([seg, np.zeros(4800), seg])
    idx = {n: i for i, n in enumerate(PROSODY_FEATURE_NAMES)}
    base = prosody_features(wf(x)).values
    scaled = prosody_features(wf(0.2 * x)).values
    f0_cols = [idx["f0_contour.mean"], idx["n_voiced_segments"],
               idx["voiced_duration.mean"]]
    np.testing.assert_allclose(scaled[f0_cols], base[f0_cols], atol=0.2)
    shift = scaled[idx["energy_contour.mean"]] - base[idx["energy_contour.mean"]]
    np.testing.assert_allclose(shift, 2 * math.log(0.2), atol=1e-6)


def test_prosody_ratios_sum_to_one(rng):
    x = np.concatenate([tone(150, 0.5, amp=0.8), 0.2 * rng.standard_normal(3000),
                        np.zeros(4000), tone(220, 0.5, amp=0.8)])
    v = prosody_features(wf(x))
    idx = {n: i for i, n in enumerate(PROSODY_FEATURE_NAMES)}
    total = sum(v.values[idx[k]] for k in
                ("voiced_time_ratio", "unvoiced_time_ratio", "pause_time_ratio"))
    np.testing.assert_allclose(total, 1.0, atol=1e-12)


def phonation_per_track_oracle(w):
    """Phonation as first written: each voiced span's grid frames sliced by
    ceil(start / step), and one ``apply_functionals`` call per track."""
    f0 = estimate_f0(w)
    voiced_spans = [(start, end) for start, end, on in voiced_spans_oracle(w, f0) if on]
    if not voiced_spans or not np.any(f0.values > 0):
        return np.zeros(28)
    energy = log_frame_energy(frame_signal(w))
    contour, log_e, jit, shim, apq, ppq = [], [], [], [], [], []
    for start, end in voiced_spans:
        lo = -(-start // 80)
        hi = min(-(-end // 80), f0.values.size)
        seg_f0 = f0.values[lo:hi][f0.values[lo:hi] > 0]
        contour.append(seg_f0)
        log_e.append(energy[lo:hi])
        if seg_f0.size == 0:
            continue
        marks, amps = detect_pulses(w.samples[start:end],
                                    w.sample_rate, float(np.median(seg_f0)))
        periods = clean_periods(marks) / w.sample_rate
        jit.append(jitter_local(periods))
        ppq.append(jitter_ppq5(periods))
        shim.append(shimmer_local(amps))
        apq.append(shimmer_apq11(amps))
    contour = np.concatenate(contour)
    tracks = {
        "delta_f0": delta(contour) if contour.size else contour,
        "delta2_f0": delta(delta(contour)) if contour.size else contour,
        "jitter": jit, "shimmer": shim, "apq": apq, "ppq": ppq,
        "log_energy": np.concatenate(log_e),
    }
    return np.concatenate([apply_functionals([tracks[t]], FOUR_MOMENTS) for t in PHONATION_TRACKS])


def _true_runs(mask):
    return [(lo, hi) for lo, hi, on in _runs(mask) if on]


def prosody_per_track_oracle(w):
    """Prosody as first written: speech and voiced masks from ceil loops over
    the spans, and one ``apply_functionals`` call per track."""
    f0 = estimate_f0(w)
    n = f0.values.size
    voiced = ceil_loop_mask(voiced_spans_oracle(w, f0), n, 80)
    speech = ceil_loop_mask(speech_spans_oracle(w), n, 80)
    if n == 0 or not np.any(voiced):
        return np.zeros(78)
    energy = log_frame_energy(frame_signal(w))
    unvoiced, pause = speech & ~voiced, ~speech
    runs = {"voiced": _true_runs(voiced), "unvoiced": _true_runs(unvoiced),
            "pause": _true_runs(pause)}
    tracks = {"f0_contour": f0.values[voiced & (f0.values > 0)],
              "energy_contour": energy[voiced]}
    for kind in ("voiced", "unvoiced", "pause"):
        tracks[kind + "_duration"] = [(hi - lo) * 0.010 for lo, hi in runs[kind]]
    for name in ("slope", "range", "fit_error"):
        tracks["f0_%s_per_segment" % name], tracks["energy_%s_per_segment" % name] = [], []
    for lo, hi in runs["voiced"]:
        seg_f0 = f0.values[lo:hi]
        seg_f0 = seg_f0[seg_f0 > 0]
        for key, seg in (("f0", seg_f0), ("energy", energy[lo:hi])):
            slope, mse = _slope_and_mse(seg)
            tracks[key + "_slope_per_segment"].append(slope)
            tracks[key + "_fit_error_per_segment"].append(mse)
            tracks[key + "_range_per_segment"].append(seg.max() - seg.min() if seg.size
                                                      else np.nan)
    g_f0, _ = _slope_and_mse(tracks["f0_contour"])
    g_e, _ = _slope_and_mse(tracks["energy_contour"])
    total_s = w.duration_s
    scalars = {
        "voiced_segments_per_second": len(runs["voiced"]) / total_s,
        "pauses_per_second": len(runs["pause"]) / total_s,
        "voiced_time_ratio": float(np.mean(voiced)),
        "unvoiced_time_ratio": float(np.mean(unvoiced)),
        "pause_time_ratio": float(np.mean(pause)),
        "n_voiced_segments": float(len(runs["voiced"])),
        "n_pauses": float(len(runs["pause"])),
        "total_duration_s": total_s,
        "total_voiced_s": float(np.sum(voiced)) * 0.010,
        "total_pause_s": float(np.sum(pause)) * 0.010,
        "global_f0_slope": 0.0 if np.isnan(g_f0) else g_f0,
        "global_energy_slope": 0.0 if np.isnan(g_e) else g_e,
    }
    out = []
    for name in PROSODY_FEATURE_NAMES:
        if "." in name:
            track, func = name.split(".")
            out.append(apply_functionals([tracks[track]], SIX_BASIC)[SIX_BASIC.index(func)])
        else:
            out.append(scalars[name])
    return np.asarray(out)


def oracle_signals(rng):
    """Voice-like rows with gaps, silence, unvoiced noise and one-span voices."""
    out = {"silent": np.zeros(8000), "clip": 0.3 * rng.standard_normal(150),
           "noise": 0.2 * rng.standard_normal(9000),
           "one_span": voice_like(150, 1.0, seed=1),
           "one_span_rough": voice_like(95, 0.7, rough=1.0, seed=2)}
    for i in range(6):
        parts = []
        for _ in range(rng.integers(1, 5)):
            parts.append(voice_like(rng.uniform(80, 300), rng.uniform(0.05, 0.6),
                                    rough=rng.uniform(0, 1.5), seed=int(rng.integers(1000))))
            parts.append(rng.uniform(0, 0.05) * rng.standard_normal(rng.integers(0, 3000)))
        out[f"voice{i}"] = np.concatenate(parts)
    return out


def test_phonation_and_prosody_match_per_track_oracles(rng):
    voiced_rows = 0
    for name, x in oracle_signals(rng).items():
        w = wf(x, source=name)
        pho, pro = phonation_features(w), prosody_features(w)
        assert pho.values.tobytes() == phonation_per_track_oracle(w).tobytes(), name
        assert pro.values.tobytes() == prosody_per_track_oracle(w).tobytes(), name
        voiced_rows += bool(np.any(pho.values))
    assert voiced_rows >= 6


# ------------------------------------------------------------------- i2010pc

def test_i2010pc_dim_is_1596(rng):
    assert i2010pc_features(wf(0.3 * rng.standard_normal(4000))).dim == 1596
    assert i2010pc_features(wf(tone(150, 0.5))).dim == 1596


def test_i2010pc_zero_waveform_f0_block_zero():
    v = i2010pc_features(wf(np.zeros(8000)))
    assert np.all(np.isfinite(v.values))
    names = list(LLD_NAMES) + [f"d_{n}" for n in LLD_NAMES]
    nf = len(IS10_FUNCTIONALS)
    for col, name in enumerate(names):
        if "f0" in name or "jitter" in name or "shimmer" in name \
                or "voicing" in name:
            block = v.values[col * nf:(col + 1) * nf]
            np.testing.assert_array_equal(block, 0.0, err_msg=name)


def test_i2010pc_time_reversal_even_functionals(rng):
    # length chosen so frames of the reversed signal are reversed frames
    n = 200 + 48 * 80
    x = np.concatenate([tone(180, 0.25, amp=0.7),
                        0.3 * rng.standard_normal(n - 2000)])
    fwd = i2010pc_features(wf(x)).values
    rev = i2010pc_features(wf(x[::-1])).values
    nf = len(IS10_FUNCTIONALS)
    even = [IS10_FUNCTIONALS.index(f) for f in
            ("mean", "quartile1", "quartile2", "quartile3",
             "percentile1", "percentile99")]
    for col in range(32):  # loudness, MFCC, mel bands, LSP (non-pitch LLDs)
        for f in even:
            a, b = fwd[col * nf + f], rev[col * nf + f]
            assert abs(a - b) < 1e-6 * max(1.0, abs(a)), \
                (col, IS10_FUNCTIONALS[f], a, b)


def test_i2010pc_micro_recording():
    v = i2010pc_features(wf(np.zeros(80)))
    assert v.dim == 1596 and np.all(np.isfinite(v.values))


# -------------------------------------------------------------- fuse & dims

def test_fuse_art_pro_pho_dim():
    w = wf(np.concatenate([tone(150, 0.4, amp=0.8), np.zeros(1600),
                           tone(250, 0.4, amp=0.8)]))
    art = articulation_features(w)
    pro = prosody_features(w)
    pho = phonation_features(w)
    fused = fuse([art, pro, pho])
    assert fused.dim == 594
    np.testing.assert_array_equal(fused.values[:488], art.values)
    np.testing.assert_array_equal(fused.values[488:566], pro.values)
    np.testing.assert_array_equal(fused.values[566:], pho.values)


def test_fuse_single_scheme_identity():
    v = prosody_features(wf(tone(150)))
    assert fuse([v]) is v


def test_fuse_errors():
    # a member vector of the wrong width never reaches fuse
    with pytest.raises(FeatureSchemeError):
        FeatureVector("prosody", np.zeros(10))


@pytest.mark.parametrize("scheme,dim", [("phonation", 28), ("articulation", 488),
                                        ("prosody", 78), ("i2010pc", 1596)])
def test_dims_stable_across_inputs(scheme, dim, rng):
    for make in (lambda: tone(rng.uniform(80, 300), rng.uniform(0.3, 0.8),
                              amp=rng.uniform(0.4, 0.9)),
                 lambda: 0.5 * rng.standard_normal(int(rng.uniform(2000, 6000))),
                 lambda: np.zeros(3000)):
        v = extract_scheme(wf(make()), scheme)
        assert v.dim == dim
        assert np.all(np.isfinite(v.values))


def test_adversarial_inputs_all_finite():
    t = np.arange(8000) / 8000
    adversarial = [np.zeros(8000), np.full(8000, 0.5),
                   np.sign(np.sin(2 * np.pi * 100 * t)), np.zeros(80)]
    for x in adversarial:
        for scheme in HAND_BUILT:
            v = extract_scheme(wf(x), scheme)
            assert np.all(np.isfinite(v.values))
