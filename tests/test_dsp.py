import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view
from scipy import fft as sfft
from scipy import linalg as sla
from scipy import signal as sps
from scipy import stats

from emovox import dsp
from emovox.dsp import (bark_band_energies, delta, estimate_f0, formants_f1_f2,
                        hz_to_bark, log_frame_energy, log_mel_energies, lpc,
                        lsp_from_lpc, mel_filterbank, mfcc_frames,
                        moving_average, power_spectrum, teager_energy)
from emovox.audio import frame_count, frame_signal

from conftest import tone, voice_like, wf


# ------------------------------------------------------------- estimate_f0

def test_f0_pure_sine_200hz():
    track = estimate_f0(wf(tone(200, amp=0.6)))
    voiced = track.values[track.values > 0]
    assert voiced.size >= 0.95 * track.values.size
    assert np.all(np.abs(voiced - 200.0) <= 10.0)


def test_f0_white_noise_mostly_unvoiced(rng):
    track = estimate_f0(wf(0.5 * rng.standard_normal(8000)))
    assert np.mean(track.values == 0) >= 0.90


def test_f0_zero_signal_all_unvoiced():
    track = estimate_f0(wf(np.zeros(8000)))
    assert np.all(track.values == 0)
    assert np.all(track.strength == 0)


def test_f0_constant_signal_unvoiced_tone_on_dc_voiced():
    # a constant frame scores phi = 1 at every lag: it has no period
    for level in (0.5, -1.0):
        track = estimate_f0(wf(np.full(8000, level)))
        assert not np.any(track.values) and not np.any(track.strength)
    assert np.all(estimate_f0(wf(0.3 + tone(100, amp=0.3))).values > 0)


@pytest.mark.parametrize("freq", [80.0, 125.0, 330.0])
def test_f0_across_range(freq):
    track = estimate_f0(wf(tone(freq, amp=0.6)))
    voiced = track.values[track.values > 0]
    assert voiced.size >= 0.9 * track.values.size
    np.testing.assert_allclose(np.median(voiced), freq, rtol=0.02)


def test_f0_no_octave_down_on_clean_tone():
    track = estimate_f0(wf(tone(100, amp=0.6)))
    voiced = track.values[track.values > 0]
    assert np.all(voiced > 60.0)
    np.testing.assert_allclose(np.median(voiced), 100.0, rtol=0.02)


def test_f0_voicing_invariant_to_amplitude_scale():
    base = tone(170, amp=1.0)
    ref = estimate_f0(wf(base)).values > 0
    for a in (0.1, 0.35, 1.0):
        got = estimate_f0(wf(a * base)).values > 0
        assert np.array_equal(ref, got)


def test_f0_values_stay_in_range(rng):
    x = np.concatenate([tone(90, 0.4), 0.4 * rng.standard_normal(3200),
                        tone(380, 0.4)])
    track = estimate_f0(wf(x))
    v = track.values[track.values > 0]
    assert np.all((v >= 60.0) & (v <= 400.0))


def loop_estimate_f0(w, frame_ms=dsp.FRAME_MS):
    """``estimate_f0`` with its parabolic refinement as a per-frame loop."""
    fmin, fmax, threshold = dsp.F0_MIN_HZ, dsp.F0_MAX_HZ, dsp.VOICING_THRESHOLD
    rate = w.sample_rate
    L = round(frame_ms * rate / 1000.0)
    S = round(10.0 * rate / 1000.0)   # the 10 ms grid step
    lag_min = max(2, int(rate / fmax))
    K = int(math.ceil(rate / fmin))
    n = frame_count(w.samples.size, L, S)
    if n == 0 or lag_min >= K:
        return np.zeros(0), np.zeros(0)
    xp = np.concatenate([w.samples, np.zeros(K)])
    seg = sliding_window_view(xp, L + K)[::S][:n]
    cs = np.concatenate([np.zeros((n, 1)), np.cumsum(seg ** 2, axis=1)], axis=1)
    energy = cs[:, L:] - cs[:, :K + 1]
    nfft = sfft.next_fast_len(L + K)
    spec = sfft.rfft(seg, nfft, axis=1)
    base = sfft.rfft(seg[:, :L], nfft, axis=1)
    corr = sfft.irfft(np.conj(base) * spec, nfft, axis=1)[:, :K + 1]
    phi = corr / np.sqrt(np.maximum(energy[:, :1] * energy, 1e-300))
    band = phi[:, lag_min:]
    peak = band.max(axis=1)
    earliest = np.argmax(band >= peak[:, None] - 0.01, axis=1) + lag_min
    e0 = energy[:, 0]
    floor = max(dsp.LOG_FLOOR, 1e-4 * float(e0.max()))
    values = np.zeros(n)
    strength = np.clip(peak, 0.0, 1.0)
    for t in range(n):
        if np.all(band[t] >= threshold):   # no dip over the lag band: no period
            strength[t] = 0.0
            continue
        if e0[t] < floor or peak[t] < threshold:
            continue
        k = min(max(earliest[t], 1), K - 1)
        a, b, c = phi[t, k - 1], phi[t, k], phi[t, k + 1]
        denom = a - 2.0 * b + c
        shift = 0.5 * (a - c) / denom if abs(denom) > 1e-12 else 0.0
        values[t] = rate / (k + np.clip(shift, -0.5, 0.5))
    values[(values > 0) & ((values < fmin) | (values > fmax))] = 0.0
    if n >= 3:
        values = dsp._median3(values)
    strength[e0 < floor] = 0.0
    return values, strength


def test_next_fast_len_matches_scipy():
    assert [dsp._next_fast_len(n) for n in range(1, 10_001)] == \
        [sfft.next_fast_len(n) for n in range(1, 10_001)]


# Rows whose NCCF never dips below the voicing threshold, or (dc_step) is a
# straight line from the first lag on the frames across the step.
FLAT_ROWS = {
    "silent": np.zeros(4000),
    "dc": np.full(2400, 0.25),
    "dc_step": np.concatenate([np.full(1200, 0.25), np.full(1200, -0.25)]),
}


def test_f0_matches_per_frame_loop_oracle(rng):
    voiced = np.concatenate([voice_like(110, 0.6, rough=0.3, seed=1),
                             np.zeros(1600), voice_like(230, 0.4, seed=2)])
    rows = {
        "voiced": voiced,
        **FLAT_ROWS,
        "clipped": np.clip(tone(140, amp=3.0), -0.3, 0.3),
        "near_dc": 0.25 + 1e-6 * rng.standard_normal(2400),
        "noise": 0.5 * rng.standard_normal(6000),
        "mixed": np.concatenate([tone(90, 0.4), 0.4 * rng.standard_normal(3200),
                                 np.zeros(800), tone(380, 0.4)]),
    }
    # The dc rows never dip below the voicing threshold, so they are unvoiced.
    # Frames across the dc_step row's sign flip have a straight NCCF from the
    # first lag on, so they reach the 1e-12 curvature guard.
    refined = 0
    for name, x in rows.items():
        for frame_ms in (dsp.FRAME_MS, 60.0):
            track = estimate_f0(wf(x), frame_ms=frame_ms)
            values, strength = loop_estimate_f0(wf(x), frame_ms=frame_ms)
            assert track.values.tobytes() == values.tobytes(), (name, frame_ms)
            assert track.strength.tobytes() == strength.tobytes(), (name, frame_ms)
            refined += int(np.count_nonzero(values))
            if name == "dc_step":   # the guard's zero shift: exactly 8000 / 20 Hz
                assert np.any(values == 400.0), frame_ms
    assert refined > 0


def test_f0_blocks_match_one_block(rng, monkeypatch):
    # every stage is row-wise, so the block size must not change a bit;
    # lengths put the last frame one before, on and one after a block edge
    voiced = np.concatenate([voice_like(120, 1.2, rough=0.3, seed=4),
                             0.3 * rng.standard_normal(4000), voice_like(210, 1.4, seed=5)])

    def tracks(block, rows):
        monkeypatch.setattr(dsp, "F0_BLOCK_FRAMES", block)
        return [estimate_f0(wf(x), frame_ms=frame_ms) for x, frame_ms in rows]

    for block in (1, 7, 128):
        rows = [(x, frame_ms) for frame_ms in (dsp.FRAME_MS, 60.0)
                for x in FLAT_ROWS.values()]
        for frame_ms in (dsp.FRAME_MS, 60.0):
            for n in {block * k + d for k in (1, 2) for d in (-1, 0, 1)} - {0}:
                x = voiced[:round(frame_ms * 8) + (n - 1) * 80]   # n frames at 8 kHz
                assert frame_count(x.size, round(frame_ms * 8), 80) == n
                rows.append((x, frame_ms))
        for (x, frame_ms), got, ref in zip(rows, tracks(block, rows), tracks(10 ** 6, rows)):
            assert got.values.tobytes() == ref.values.tobytes(), (block, x.size, frame_ms)
            assert got.strength.tobytes() == ref.strength.tobytes(), (block, x.size, frame_ms)


def test_f0_memory_does_not_grow_with_length():
    # the correlation and the parabolic step run in fixed blocks: from 30 s to
    # 300 s the peak grows by the output track and one more array of its
    # length (the e(0) the global energy gate needs), against one (frames x
    # lags) matrix of 435 MB at 300 s before the blocks
    for frame_ms in (dsp.FRAME_MS, 60.0):
        peaks, sizes = [], []
        for seconds in (30, 300):
            w = wf(voice_like(150, seconds, rough=0.3, seed=6))
            tracemalloc.start()
            try:
                track = estimate_f0(w, frame_ms=frame_ms)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            peaks.append(peak)
            sizes.append(track.values.nbytes + track.strength.nbytes)
        assert peaks[0] - sizes[0] <= 5e6, (frame_ms, peaks)
        grown = (peaks[1] - peaks[0]) - (sizes[1] - sizes[0])
        assert grown <= (sizes[1] - sizes[0]) / 2 + 1e5, (frame_ms, peaks, sizes)


# --------------------------------------------------------------------- lpc

def test_median3_is_medfilt(rng):
    # the F0 post-filter: a pure selection, so the bits must be medfilt's
    for n in range(3, 40):
        for _ in range(20):
            x = rng.choice([0.0, 61.0, 150.0, 150.0, 399.5], n) + rng.random(n) * rng.integers(2)
            assert dsp._median3(x).tobytes() == sps.medfilt(x, 3).tobytes()


def test_lpc_recovers_ar2_process(rng):
    # x(n) = 1.6 x(n-1) - 0.64 x(n-2) + e(n)
    e = rng.standard_normal(50000)
    x = sps.lfilter([1.0], [1.0, -1.6, 0.64], e)
    (a,), (err,) = lpc(x[None], 2)
    assert a[0] == 1.0
    np.testing.assert_allclose(a[1], -1.6, atol=0.1)
    np.testing.assert_allclose(a[2], 0.64, atol=0.1)
    assert err > 0


def test_lpc_white_noise_unit_gain(rng):
    x = rng.standard_normal(20000)
    _, (err,) = lpc(x[None], 10)
    r0 = float(np.dot(x, x))
    assert 0.8 <= r0 / err <= 1.2


def test_lpc_zero_frame_fallback():
    (a,), (err,) = lpc(np.zeros((1, 200)), 8)
    np.testing.assert_array_equal(a, np.r_[1.0, np.zeros(8)])
    assert err == 0.0


def test_lpc_matches_normal_equations(rng):
    # independent oracle: solve the Toeplitz system directly
    x = sps.lfilter([1.0], [1.0, -0.9, 0.5, -0.2], rng.standard_normal(4000))
    order = 6
    r = dsp.autocorrelation(x, order)
    expected = sla.solve_toeplitz((r[:order], r[:order]), -r[1:order + 1])
    (a,), _ = lpc(x[None], order)
    np.testing.assert_allclose(a[1:], expected, rtol=1e-8, atol=1e-10)


# ---------------------------------------------------------------- formants

def _resonator(freqs_bw, n, rng, rate=8000):
    x = rng.standard_normal(n)
    for f, bw in freqs_bw:
        r = math.exp(-math.pi * bw / rate)
        x = sps.lfilter([1.0], [1.0, -2 * r * math.cos(2 * math.pi * f / rate),
                                r * r], x)
    return x


def test_formants_two_resonator_signal(rng):
    x = _resonator([(500, 80), (1500, 80)], 8000, rng)
    f1s, f2s = [], []
    for start in range(1000, 7000, 400):
        (f1,), (f2,) = formants_f1_f2(x[None, start:start + 240], 8000)
        if not math.isnan(f1):
            f1s.append(f1)
        if not math.isnan(f2):
            f2s.append(f2)
    assert 450 <= np.median(f1s) <= 550
    assert 1400 <= np.median(f2s) <= 1600


def test_formants_pure_sine_has_no_f2():
    x = tone(200, 0.03, amp=0.7)
    _, (f2,) = formants_f1_f2(x[None], 8000)
    assert math.isnan(f2)


def test_formants_zero_frame_absent():
    (f1,), (f2,) = formants_f1_f2(np.zeros((1, 240)), 8000)
    assert math.isnan(f1) and math.isnan(f2)


# --------------------------------------------------------------------- lsp

def test_lsp_properties(rng):
    x = sps.lfilter([1.0], [1.0, -1.2, 0.8, -0.3, 0.1],
                    rng.standard_normal(4000))
    a, _ = lpc(x[None], 8)
    (lsf,) = lsp_from_lpc(a, 8000)
    assert lsf.shape == (8,)
    assert np.all(np.diff(lsf) > 0)  # strictly ascending
    assert np.all((lsf > 0) & (lsf < 4000))


def test_lsp_roots_on_unit_circle(rng):
    x = sps.lfilter([1.0], [1.0, -0.5, 0.4], rng.standard_normal(4000))
    (a,), _ = lpc(x[None], 8)
    ext = np.append(a, 0.0)
    for poly in (ext + ext[::-1], ext - ext[::-1]):
        mags = np.abs(np.roots(poly))
        np.testing.assert_allclose(mags, 1.0, atol=1e-6)


# ------------------------------------- batched LPC and roots, scalar oracles

def scalar_lpc(x, order):
    """Levinson-Durbin on one frame, one coefficient at a time."""
    r = np.correlate(x, x, mode="full")[x.size - 1:x.size + order]
    a = np.zeros(order + 1)
    a[0] = 1.0
    if r[0] <= 0.0:
        return a, 0.0
    err = r[0]
    for i in range(1, order + 1):
        acc = r[i] + a[1:i] @ r[1:i][::-1]
        k = -acc / err
        prev = a[1:i].copy()
        a[1:i] = prev + k * prev[::-1]
        a[i] = k
        err *= (1.0 - k * k)
        if err <= 0.0:
            err = dsp.LOG_FLOOR
    return a, err


def roots_lsp(a, rate):
    """LSFs of one LPC polynomial from two np.roots calls."""
    p = a.size - 1
    ext = np.append(a, 0.0)
    angles = []
    for poly in (ext + ext[::-1], ext - ext[::-1]):
        if np.allclose(poly, 0.0):
            continue
        ang = np.angle(np.roots(poly))
        angles.extend(ang[(ang > 1e-6) & (ang < math.pi - 1e-6)])
    lsf = np.sort(np.asarray(angles)) * rate / (2.0 * math.pi)
    if lsf.size < p:
        lsf = np.pad(lsf, (0, p - lsf.size))
    return lsf[:p]


def roots_formants(segment, rate):
    """F1/F2 of one segment: one-row LPC, then np.roots."""
    x = np.asarray(segment, dtype=np.float64)
    if x.size < 16 or not np.any(x):
        return math.nan, math.nan
    x = np.append(x[0], x[1:] - dsp.FORMANT_PREEMPHASIS * x[:-1]) * np.hamming(x.size)
    (a,), _ = lpc(x[None], dsp.FORMANT_LPC_ORDER)
    roots = np.roots(a)
    roots = roots[np.imag(roots) > 0]
    freqs = np.angle(roots) * rate / (2.0 * math.pi)
    bws = -np.log(np.maximum(np.abs(roots), 1e-12)) * rate / math.pi
    ok = ((bws < dsp.FORMANT_MAX_BW_HZ) & (freqs > dsp.FORMANT_MIN_HZ)
          & (freqs < dsp.FORMANT_MAX_HZ))
    cand = np.sort(freqs[ok])
    return (float(cand[0]) if cand.size >= 1 else math.nan,
            float(cand[1]) if cand.size >= 2 else math.nan)


def _frames(rng, n=60, length=200):
    """Voice-like, noise, silent, tonal and tiny frames, one per row."""
    rows = [_resonator([(rng.uniform(300, 900), 80), (rng.uniform(1000, 2500), 120)],
                       length, rng) * np.hanning(length) for _ in range(n)]
    rows += [rng.standard_normal(length), np.zeros(length),
             tone(200, length / 8000, amp=0.7), 1e-150 * rng.standard_normal(length)]
    return np.array(rows)


def _within(got, want):
    return np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def test_lpc_batched_matches_scalar_levinson(rng):
    frames = _frames(rng)
    a, err = lpc(frames, 8)
    assert a.shape == (frames.shape[0], 9) and err.shape == (frames.shape[0],)
    for t, x in enumerate(frames):
        want_a, want_err = scalar_lpc(x, 8)
        assert _within(a[t], want_a) and _within(err[t], want_err)
    silent = np.flatnonzero(~np.any(frames, axis=1))
    np.testing.assert_array_equal(a[silent], np.eye(1, 9).repeat(silent.size, 0))
    np.testing.assert_array_equal(err[silent], 0.0)


# LSFs of the Chebyshev search against 50-digit roots; the eigensolve's own
# error on the sharpest rows below is up to 7e-11 Hz
LSP_TOL_HZ = 1e-9


def test_lsp_batched_matches_np_roots(rng):
    a, _ = lpc(_frames(rng), 8)
    # polynomials far from minimum phase: some P/Q roots go real, so fewer
    # than p LSFs qualify and the rest are zero padding
    wild = np.column_stack([np.ones(20), 4.0 * rng.standard_normal((20, 8))])
    polys = np.vstack([a, wild, np.eye(1, 9)])
    got = lsp_from_lpc(polys, 8000)
    want = np.array([roots_lsp(row, 8000) for row in polys])
    # minimum-phase rows are searched and agree to the oracle tolerance; the
    # wild rows fall back to the eigensolve and agree bit for bit
    searched = np.r_[:a.shape[0], -1]
    assert np.all(np.abs(got[searched] - want[searched]) <= LSP_TOL_HZ)
    assert got[a.shape[0]:-1].tobytes() == want[a.shape[0]:-1].tobytes()
    assert np.any(got[:, -1] == 0.0)


def mp_lsp(a, rate):
    """LSFs of one LPC polynomial from 50-digit mpmath roots of P and Q."""
    mpmath = pytest.importorskip("mpmath", reason="the 50-digit LSF oracle needs mpmath")
    mpmath.mp.dps = 50
    ext = np.append(a, 0.0)
    angles = []
    for poly in (ext + ext[::-1], ext - ext[::-1]):
        roots = mpmath.polyroots([mpmath.mpf(float(c)) for c in poly],
                                 maxsteps=100, extraprec=60)
        angles += [mpmath.arg(r) for r in roots if 1e-6 < mpmath.arg(r) < math.pi - 1e-6]
    lsf = [float(w * rate / (2 * mpmath.pi)) for w in sorted(angles)[:a.size - 1]]
    return np.pad(lsf, (0, a.size - 1 - len(lsf)))


def resonances_lpc(freqs_hz, radius, rate=8000):
    """A(z) with one pole pair of the given radius at each frequency."""
    a = np.ones(1)
    for f in freqs_hz:
        w = 2.0 * math.pi * f / rate
        a = np.convolve(a, [1.0, -2.0 * radius * math.cos(w), radius * radius])
    return a


def minimum_phase_lpc(rng):
    """Order-8 rows: LPC of voice-like, noise, silent, tonal and tiny frames,
    the silent predictor, and sharp resonances up to pole radius 0.999."""
    a, _ = lpc(_frames(rng, n=16), 8)
    sharp = [resonances_lpc(f, r) for f in ((500, 1500, 2500, 3500), (300, 900, 2200, 3100),
                                            (250, 700, 1900, 3700)) for r in (0.98, 0.995, 0.999)]
    sharp += [resonances_lpc((120, 180, 3800, 3880), r) for r in (0.98, 0.995)]
    return np.vstack([a, np.eye(1, 9), sharp])


def spy_poly_roots(monkeypatch):
    """Record every matrix of polynomials that reaches the eigensolve."""
    seen = []
    original = dsp._poly_roots

    def spy(polys):
        seen.append(polys.copy())
        return original(polys)
    monkeypatch.setattr(dsp, "_poly_roots", spy)
    return seen


def p_and_q(rows):
    ext = np.pad(rows, ((0, 0), (0, 1)))
    return np.concatenate([ext + ext[:, ::-1], ext - ext[:, ::-1]])


def test_lsp_search_matches_mpmath_oracle(rng, monkeypatch):
    a = minimum_phase_lpc(rng)
    seen = spy_poly_roots(monkeypatch)
    got = lsp_from_lpc(a, 8000)
    assert sum(polys.shape[0] for polys in seen) == 0   # every row is searched
    want = np.array([mp_lsp(row, 8000) for row in a])
    assert np.all(np.abs(got - want) <= LSP_TOL_HZ)
    assert np.all(got > 0) and np.all(np.diff(got, axis=1) > 0)


def test_lsp_fallback_rows_are_np_roots_bit_for_bit(rng, monkeypatch):
    searched = minimum_phase_lpc(rng)
    wild = np.column_stack([np.ones(20), 4.0 * rng.standard_normal((20, 8))])
    assert all(np.any(np.abs(np.abs(np.roots(poly)) - 1.0) > 1e-6) for poly in p_and_q(wild))
    # two pole pairs 6 Hz apart in the middle of one grid step: two roots of
    # P and two of Q share the step, so neither series changes sign there
    step_hz = 8000 / 2 / (dsp.LSP_GRID - 1)
    close = resonances_lpc((32.3 * step_hz, 32.3 * step_hz + 6.0, 2500, 3500), 0.999)
    # pole pairs 60 Hz apart near both band edges: the Newton steps do not settle
    too_sharp = resonances_lpc((120, 180, 3800, 3880), 0.999)
    rows = np.vstack([searched[:30], wild[:10], close, too_sharp, searched[30:], wild[10:]])
    fallback = np.r_[30:42, 42 + searched.shape[0] - 30:rows.shape[0]]
    seen = spy_poly_roots(monkeypatch)
    got = lsp_from_lpc(rows, 8000)
    assert len(seen) == 1 and seen[0].tobytes() == p_and_q(rows[fallback]).tobytes()
    want = np.array([roots_lsp(row, 8000) for row in rows[fallback]])
    assert got[fallback].tobytes() == want.tobytes()
    # an odd order has no trivial roots to divide out: every row falls back
    seen.clear()
    odd, _ = lpc(_frames(rng), 7)
    got = lsp_from_lpc(odd, 8000)
    assert len(seen) == 1 and seen[0].tobytes() == p_and_q(odd).tobytes()
    assert got.tobytes() == np.array([roots_lsp(row, 8000) for row in odd]).tobytes()


def test_lsp_blocks_match_one_block(rng, monkeypatch):
    # searched and eigensolved rows alike are row-wise: no block size moves a bit
    wild = np.column_stack([np.ones(20), 4.0 * rng.standard_normal((20, 8))])
    rows = np.vstack([minimum_phase_lpc(rng), wild, lpc(_frames(rng), 8)[0]])
    odd, _ = lpc(_frames(rng), 7)
    for a in (rows, odd, rows[:0]):
        monkeypatch.setattr(dsp, "LSP_BLOCK_FRAMES", 10 ** 6)
        whole = lsp_from_lpc(a, 8000)
        assert whole.shape == (a.shape[0], a.shape[1] - 1)
        for block in (1, 7, 256):
            monkeypatch.setattr(dsp, "LSP_BLOCK_FRAMES", block)
            assert lsp_from_lpc(a, 8000).tobytes() == whole.tobytes(), (block, a.shape)


def test_lsp_rejects_zero_leading_coefficient():
    with pytest.raises(ValueError, match="leading"):
        lsp_from_lpc(np.zeros((1, 9)), 8000)


def test_formants_batched_matches_np_roots(rng):
    frames = _frames(rng)
    f1, f2 = formants_f1_f2(frames, 8000)
    want = np.array([roots_formants(x, 8000) for x in frames])
    np.testing.assert_array_equal(np.column_stack([f1, f2]), want)
    assert np.isnan(f2).any() and not np.isnan(f1).all()


def test_formants_batched_degenerate_shapes():
    f1, f2 = formants_f1_f2(np.zeros((0, 200)), 8000)
    assert f1.shape == f2.shape == (0,)
    f1, f2 = formants_f1_f2(np.ones((3, 10)), 8000)  # shorter than 16 samples
    assert np.isnan(f1).all() and np.isnan(f2).all()


def test_formants_blocks_match_one_block(rng, monkeypatch):
    # every step is row-wise: row counts one before, on and one after each
    # block edge, with silent rows, all rows or a picked subset
    x = np.concatenate([voice_like(130, 10.5, rough=0.3, seed=7), np.zeros(4000)])
    frames = frame_signal(wf(x + 0.01 * rng.standard_normal(x.size) * (x != 0)))
    for block in (1, 7, dsp.FORMANT_BLOCK_FRAMES):
        for n in sorted({block * k + d for k in (1, 2) for d in (-1, 0, 1)} - {0}):
            rows = frames[-n:]                 # the silent tail is in every case
            assert rows.shape[0] == n
            pick = rng.random(n) < 0.7
            for where in (None, pick):
                monkeypatch.setattr(dsp, "FORMANT_BLOCK_FRAMES", 10 ** 6)
                ref = np.column_stack(formants_f1_f2(rows, 8000, where))
                monkeypatch.setattr(dsp, "FORMANT_BLOCK_FRAMES", block)
                got = np.column_stack(formants_f1_f2(rows, 8000, where))
                assert got.tobytes() == ref.tobytes(), (block, n)
            picked = np.column_stack(formants_f1_f2(rows[pick], 8000))
            assert got.tobytes() == picked.tobytes(), (block, n)


def test_formants_memory_grows_only_by_the_output():
    # 70 % of a long row's grid frames picked: copying them and running the
    # whole LPC at once peaked 110 MB above entry at 300 s; the blocks hold
    # FORMANT_BLOCK_FRAMES rows
    peaks, sizes = [], []
    for seconds in (30, 300):
        frames = frame_signal(wf(voice_like(150, seconds, rough=0.3, seed=6)))
        pick = np.random.default_rng(1).random(frames.shape[0]) < 0.7
        tracemalloc.start()
        try:
            f1, _ = formants_f1_f2(frames, 8000, pick)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        peaks.append(peak)
        sizes.append(2 * f1.nbytes)
    assert peaks[0] - sizes[0] <= 8e6, peaks
    assert (peaks[1] - peaks[0]) - (sizes[1] - sizes[0]) <= 1e5, (peaks, sizes)


# -------------------------------------------------------------------- mfcc

def test_mfcc_flat_spectrum_concentrates_in_c0():
    frame = np.zeros(200)
    frame[0] = 0.5  # impulse: flat power spectrum
    ceps = mfcc_frames(power_spectrum(frame[None, :]), 8000, n_mels=24, n_ceps=13)[0]
    assert abs(ceps[0]) > 0
    assert np.all(np.abs(ceps[1:]) < 1e-6 * abs(ceps[0]))


def test_mfcc_scaling_moves_only_c0(rng):
    frames = 0.3 * rng.standard_normal((5, 200))
    c_base = mfcc_frames(power_spectrum(frames), 8000, 24, 13)
    c_scaled = mfcc_frames(power_spectrum(2.0 * frames), 8000, 24, 13)
    np.testing.assert_allclose(c_scaled[:, 1:], c_base[:, 1:], atol=1e-6)
    shift = math.sqrt(24) * math.log(4.0)
    np.testing.assert_allclose(c_scaled[:, 0] - c_base[:, 0], shift, atol=1e-6)


def test_mfcc_zero_frame_finite():
    ceps = mfcc_frames(power_spectrum(np.zeros((3, 200))), 8000, 24, 13)
    assert np.all(np.isfinite(ceps))


def test_dct_matrix_orthonormal():
    m = dsp._dct_matrix(24)
    np.testing.assert_allclose(m @ m.T, np.eye(24), atol=1e-9)
    np.testing.assert_allclose(m, sfft.dct(np.eye(24), type=2, norm="ortho", axis=0),
                               atol=1e-15)
    assert dsp._dct_matrix(24) is m
    with pytest.raises(ValueError):
        m[0, 0] = 1.0


def test_mfcc_matches_scipy_dct_oracle(rng):
    # the matrix product sums in another order than scipy's DCT: a few ulps
    frames = np.concatenate([0.3 * rng.standard_normal((40, 200)), np.zeros((2, 200)),
                             1e-3 * rng.standard_normal((2, 200))])
    for n_mels, n_ceps, first in ((24, 13, 0), (24, 24, 0), (40, 20, 1), (23, 13, 2)):
        logmel = dsp.log_mel_energies(power_spectrum(frames), 8000, n_mels)
        ref = sfft.dct(logmel, type=2, norm="ortho", axis=1)[:, first:first + n_ceps]
        got = mfcc_frames(power_spectrum(frames), 8000, n_mels, n_ceps, first)
        assert got.shape == ref.shape
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1.0, np.abs(ref)))


def test_mel_filters_unit_sum():
    fb = mel_filterbank(24, 101, 8000)
    sums = fb.sum(axis=1)
    np.testing.assert_allclose(sums[sums > 0], 1.0, atol=1e-9)


def test_mel_filterbank_is_shared_and_read_only():
    fb = mel_filterbank(24, 101, 8000)
    again = mel_filterbank(24, 101, 8000)
    assert again is fb
    with pytest.raises(ValueError):
        fb[0, 0] = 1.0
    with pytest.raises(ValueError):
        again[:] = 0.0
    assert np.array_equal(mel_filterbank(24, 101, 8000), fb)


# -------------------------------------------------------------------- bark

def test_bark_zero_chunk_at_floor():
    out = bark_band_energies(np.zeros((1, 640)), 8000)
    assert out.shape == (1, 22)
    np.testing.assert_allclose(out, math.log(1e-10))


def test_bark_1khz_peaks_in_expected_band():
    (out,) = bark_band_energies(tone(1000, 0.08, amp=0.8)[None], 8000)
    band_width = hz_to_bark(4000.0) / 22
    expected = int(hz_to_bark(1000.0) / band_width)
    assert int(np.argmax(out)) == expected


def test_bark_white_noise_within_12db(rng):
    spreads = []
    for _ in range(10):
        (out,) = bark_band_energies(rng.standard_normal((1, 8000)), 8000)
        db = out * 10.0 / math.log(10.0)
        spreads.append(db.max() - db.min())
    assert np.mean(spreads) < 12.0
    assert max(spreads) < 15.0


def test_bark_rejects_tiny_chunk():
    with pytest.raises(ValueError):
        bark_band_energies(np.zeros((1, 32)), 8000)


# ------------------------------------------------------------------ teager

def test_teager_constant_is_zero():
    np.testing.assert_allclose(teager_energy(np.full(100, 3.3)), 0.0)


def test_teager_cosine_closed_form():
    a_amp, omega = 0.7, 0.3
    x = a_amp * np.cos(omega * np.arange(500))
    psi = teager_energy(x)
    assert psi.size == 500
    np.testing.assert_allclose(psi, a_amp ** 2 * math.sin(omega) ** 2, atol=1e-6)


def test_teager_alternating_sign():
    # x(n) = (-1)^n: neighbors two apart share sign, so psi = 1 - 1 = 0,
    # consistent with the closed form A^2 sin^2(omega) at omega = pi.
    x = np.array([1.0, -1.0] * 10)
    np.testing.assert_allclose(teager_energy(x), 0.0)


def test_teager_quadratic_scaling(rng):
    x = rng.standard_normal(200)
    np.testing.assert_allclose(teager_energy(2.5 * x),
                               6.25 * teager_energy(x), rtol=1e-12)


# ------------------------------------------------------- delta / smoothing

def test_delta_constant_zero():
    np.testing.assert_allclose(delta(np.full(50, 7.0)), 0.0)


def test_delta_ramp_recovers_slope():
    x = 0.37 * np.arange(100)
    d = delta(x)
    np.testing.assert_allclose(d[2:-2], 0.37, atol=1e-12)
    dd = delta(d)
    np.testing.assert_allclose(dd[4:-4], 0.0, atol=1e-12)


def test_delta_linearity(rng):
    x, y = rng.standard_normal((2, 80))
    lhs = delta(2.0 * x + 3.0 * y)
    rhs = 2.0 * delta(x) + 3.0 * delta(y)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_delta_matrix_columns_independent(rng):
    m = rng.standard_normal((40, 3))
    d = delta(m)
    for j in range(3):
        np.testing.assert_allclose(d[:, j], delta(m[:, j]))


def test_moving_average_constant_invariant():
    x = np.full(30, 2.5)
    np.testing.assert_allclose(moving_average(x), 2.5)


def test_moving_average_hand_case():
    out = moving_average(np.array([0.0, 3.0, 6.0]))
    np.testing.assert_allclose(out, [1.0, 3.0, 5.0])


def test_log_frame_energy_floor():
    out = log_frame_energy(np.zeros((2, 200)))
    np.testing.assert_allclose(out, math.log(1e-10))


def test_log_mel_energy_finite_everywhere(rng):
    frames = frame_signal(wf(0.2 * rng.standard_normal(4000))) * np.hanning(200)
    out = log_mel_energies(power_spectrum(frames), 8000, 8)
    assert out.shape == (frames.shape[0], 8)
    assert np.all(np.isfinite(out))
