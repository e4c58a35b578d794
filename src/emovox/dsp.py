"""Low-level speech DSP: pitch, LPC/formants, cepstra, band energies, deltas."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .audio import FRAME_MS, Waveform, frame_count, frames, grid

F0_MIN_HZ = 60.0
F0_MAX_HZ = 400.0
VOICING_THRESHOLD = 0.45
# Frames per block of estimate_f0's correlation stage: bounds its memory,
# and a block's matrices stay in cache.
F0_BLOCK_FRAMES = 128

LOG_FLOOR = 1e-10

# Formant search constraints on the LPC-8 pole candidates.
FORMANT_LPC_ORDER = 8
FORMANT_MAX_BW_HZ = 400.0
FORMANT_MIN_HZ = 90.0
FORMANT_MAX_HZ = 3800.0
PREEMPHASIS = 0.97
# Full 0.97 pre-emphasis tilts LPC-8 pole estimates ~10% high around 500 Hz;
# a milder coefficient keeps low formants unbiased on resonator benchmarks.
FORMANT_PREEMPHASIS = 0.5
# Rows per block of formants_f1_f2: bounds its copies and LPC products.
FORMANT_BLOCK_FRAMES = 512

N_BARK_BANDS = 22

# Frames on each side of a regression delta; points of a moving average.
DELTA_WIDTH = 2
SMOOTH_WIDTH = 3

# LSF search: grid points over [0, pi], Newton steps per root, and the
# largest last step (in x = cos w) of a root taken as settled.
LSP_GRID = 128
LSP_NEWTON_STEPS = 4
LSP_STEP_TOL = 1e-10
# Rows per block of lsp_from_lpc: bounds the (rows x LSP_GRID) search grids;
# a call costs about 0.6 ms, so a 4 s utterance takes two blocks, not four.
LSP_BLOCK_FRAMES = 256


@dataclass(frozen=True)
class F0Track:
    """Per-frame pitch in Hz (0 where unvoiced) plus the peak NCCF strength."""

    values: np.ndarray
    strength: np.ndarray


def estimate_f0(w: Waveform, frame_ms: float = FRAME_MS) -> F0Track:
    """Pitch track from the normalized cross-correlation of each frame.

    Frames of ``frame_ms`` start on the steps of the 25/10 ms grid.  For
    frame samples x(0..L-1) with lookahead, the score at lag k is
    phi(k) = sum x(n) x(n+k) / sqrt(e(0) e(k)); the earliest lag within 0.01
    of the maximum wins (suppresses octave-down picks on clean tones) and is
    refined by parabolic interpolation.  Frames whose peak falls below the
    voicing threshold, or whose phi never falls below it over the lag band
    (a constant signal has no period), are set to 0, then the track is
    median-filtered (width 3).  The strength is 0 on frames below the energy
    gate and on frames without that dip.

    The correlation and the parabolic step run over blocks of
    ``F0_BLOCK_FRAMES`` frames, and a block leaves only each frame's pitch,
    strength and e(0); the energy gate and the median filter then run on the
    whole track.  So past a fixed working set, memory grows only by the
    output track and a few arrays of its length.  Every step is row-wise, so
    the track has the bits of a one-block run.
    """
    rate = w.sample_rate
    L = round(frame_ms * rate / 1000.0)
    lag_min = max(2, int(rate / F0_MAX_HZ))
    K = int(math.ceil(rate / F0_MIN_HZ))
    step = grid(rate)[1]
    n = frame_count(w.samples.size, L, step)
    if n == 0 or lag_min >= K:
        z = np.zeros(0)
        return F0Track(z, z.copy())

    nfft = _next_fast_len(L + K)
    e0 = np.empty(n)
    values, strength = np.zeros(n), np.empty(n)
    for lo in range(0, n, F0_BLOCK_FRAMES):
        hi = min(lo + F0_BLOCK_FRAMES, n)
        seg = _f0_frames(w.samples, lo, hi, step, L + K)
        cs = np.concatenate([np.zeros((hi - lo, 1)), np.cumsum(seg ** 2, axis=1)], axis=1)
        energy = cs[:, L:] - cs[:, :K + 1]  # e(k) for k = 0..K
        spec = np.fft.rfft(seg, nfft, axis=1)
        base = np.fft.rfft(seg[:, :L], nfft, axis=1)
        corr = np.fft.irfft(np.conj(base) * spec, nfft, axis=1)[:, :K + 1]
        # Flooring (not adding) the normalizer keeps phi scale-free down to
        # arbitrarily quiet input; zero segments give corr = 0 and phi = 0.
        phi = corr / np.sqrt(np.maximum(energy[:, :1] * energy, 1e-300))
        band = phi[:, lag_min:]
        top = band.max(axis=1)
        periodic = band.min(axis=1) < VOICING_THRESHOLD
        e0[lo:hi] = energy[:, 0]
        strength[lo:hi] = np.where(periodic, np.clip(top, 0.0, 1.0), 0.0)
        # Parabolic refinement around the picked lag, on voiced frames only.
        rows = np.flatnonzero(periodic & (top >= VOICING_THRESHOLD))
        earliest = np.argmax(band[rows] >= top[rows, None] - 0.01, axis=1) + lag_min
        k = np.clip(earliest, 1, K - 1)
        a, b, c = phi[rows[:, None], k[:, None] + np.arange(-1, 2)].T
        denom = a - 2.0 * b + c
        curved = np.abs(denom) > 1e-12
        shift = np.zeros(rows.size)
        shift[curved] = 0.5 * (a - c)[curved] / denom[curved]
        f0 = rate / (k + np.clip(shift, -0.5, 0.5))
        values[lo + rows] = np.where((f0 < F0_MIN_HZ) | (f0 > F0_MAX_HZ), 0.0, f0)

    # Energy gate is relative to the loudest frame so that globally rescaled
    # input keeps identical voicing decisions; all-silent input stays unvoiced.
    quiet = e0 < max(LOG_FLOOR, 1e-4 * float(e0.max()))
    del e0  # free before the median filter's copies
    values[quiet] = 0.0
    strength[quiet] = 0.0
    if n >= 3:
        values = _median3(values)
    return F0Track(values, strength)


def _f0_frames(x: np.ndarray, lo: int, hi: int, step: int, width: int) -> np.ndarray:
    """Frames lo..hi-1 of ``width`` samples every ``step`` over x followed by
    zeros; only a block that runs past the end of x is copied."""
    start, stop = lo * step, (hi - 1) * step + width
    span = x[start:stop]
    if span.size < stop - start:
        span = np.concatenate([span, np.zeros(stop - start - span.size)])
    return frames(span, width, step)


def _next_fast_len(n: int) -> int:
    """Smallest integer >= n with no prime factor above 11 (``scipy.fft.next_fast_len``)."""
    m = max(n, 1)
    while True:
        r = m
        for p in (2, 3, 5, 7, 11):
            while r % p == 0:
                r //= p
        if r == 1:
            return m
        m += 1


def _median3(x: np.ndarray) -> np.ndarray:
    """3-point running median with zero-padded ends (``medfilt(x, 3)``).

    The median of three is a pure selection, so the bits are medfilt's.
    """
    p = np.pad(x, 1)
    a, b, c = p[:-2], p[1:-1], p[2:]
    low, high = np.minimum(a, b), np.maximum(a, b)
    np.minimum(high, c, out=high)
    return np.maximum(low, high, out=low)


def autocorrelation(x: np.ndarray, max_lag: int) -> np.ndarray:
    """Biased autocorrelation r(0..max_lag) of a frame, or of each matrix row.

    Lags at or beyond the frame length are 0.
    """
    x = np.asarray(x, dtype=np.float64)
    n = x.shape[-1]
    return np.stack([(x[..., :max(n - k, 0)] * x[..., k:]).sum(axis=-1)
                     for k in range(max_lag + 1)], axis=-1)


def lpc(x: np.ndarray, order: int):
    """Autocorrelation-method LPC via Levinson-Durbin, over every frame at once.

    ``x`` is a frame matrix, one frame per row.  Returns (a, err), one row of
    a and one entry of err per frame: a = [1, a1..ap] defines
    A(z) = 1 + sum a_k z^-k and err is the final prediction-error power.
    Degenerate (silent) frames yield the trivial predictor a = [1, 0..0]
    with err = 0.
    """
    r = autocorrelation(x, order)
    a = np.zeros((r.shape[0], order + 1))
    a[:, 0] = 1.0
    live = r[:, 0] > 0.0
    err = np.where(live, r[:, 0], 1.0)
    for i in range(1, order + 1):
        acc = r[:, i] + (a[:, 1:i] * r[:, i - 1:0:-1]).sum(axis=1)
        k = np.where(live, -acc / err, 0.0)
        prev = a[:, 1:i].copy()
        a[:, 1:i] = prev + k[:, None] * prev[:, ::-1]
        a[:, i] = k
        err = err * (1.0 - k * k)
        err[err <= 0.0] = LOG_FLOOR
    return a, np.where(live, err, 0.0)


def _poly_roots(polys: np.ndarray) -> np.ndarray:
    """Roots of each row polynomial (highest power first, leading term nonzero).

    Companion matrices are built exactly as ``np.roots`` builds them and solved
    by one stacked ``eigvals`` call, so each row's roots carry the same bits as
    ``np.roots`` of that row (which would also strip trailing zero
    coefficients; here they give the same roots at 0 from the companion).
    """
    m, size = polys.shape
    comp = np.zeros((m, size - 1, size - 1))
    comp[:, 1:, :-1] = np.eye(size - 2)
    comp[:, 0, :] = -polys[:, 1:] / polys[:, :1]
    return np.linalg.eigvals(comp)


def formants_f1_f2(segments: np.ndarray, rate: int, where=None):
    """First two formant frequencies of each short voiced segment (matrix row).

    Pre-emphasized, Hamming-windowed LPC of order 8; poles with bandwidth
    under 400 Hz and frequency inside (90, 3800) Hz qualify.  Missing
    formants come back as NaN, as do both formants of silent segments and of
    segments shorter than 16 samples.  ``where``, a row mask, picks the
    segments (all rows by default).  Returns two arrays, one entry per picked
    row.

    The rows go through in blocks of ``FORMANT_BLOCK_FRAMES``, each copying
    only its picked rows, so memory grows only by the output; every step is
    row-wise, so the result has the bits of a one-block run.
    """
    segments = np.asarray(segments)
    where = (np.ones(segments.shape[0], dtype=bool) if where is None
             else np.asarray(where, dtype=bool))
    out = np.full((np.count_nonzero(where), 2), math.nan)
    done = 0
    for lo in range(0, segments.shape[0], FORMANT_BLOCK_FRAMES):
        hi = lo + FORMANT_BLOCK_FRAMES
        rows = np.asarray(segments[lo:hi][where[lo:hi]], dtype=np.float64)
        first, done = done, done + rows.shape[0]
        live = np.any(rows, axis=1) & (rows.shape[1] >= FORMANT_LPC_ORDER * 2)
        if not np.any(live):
            continue
        y = rows[live]
        y = np.concatenate([y[:, :1], y[:, 1:] - FORMANT_PREEMPHASIS * y[:, :-1]],
                           axis=1) * np.hamming(y.shape[1])
        a, _ = lpc(y, FORMANT_LPC_ORDER)
        roots = _poly_roots(a)
        freqs = np.angle(roots) * rate / (2.0 * math.pi)
        bws = -np.log(np.maximum(np.abs(roots), 1e-12)) * rate / math.pi
        ok = ((np.imag(roots) > 0) & (bws < FORMANT_MAX_BW_HZ)
              & (freqs > FORMANT_MIN_HZ) & (freqs < FORMANT_MAX_HZ))
        cand = np.sort(np.where(ok, freqs, np.inf), axis=1)[:, :2]
        out[first + np.flatnonzero(live)] = np.where(np.isinf(cand), math.nan, cand)
    return out[:, 0], out[:, 1]


def _lsp_search(polys: np.ndarray, m: int):
    """Root angles of stacked P (first half) and Q rows by Kabal & Ramachandran's
    search: less its trivial root (z = -1 of P, z = +1 of Q), each row is a
    Chebyshev series in x = cos w.  Returns which frames were found and the m
    angles of each of their P and Q rows."""
    n = polys.shape[0] // 2
    q = polys[:, :m + 1].copy()
    for k in range(1, m + 1):   # synthetic division by 1 + z^-1 (P), 1 - z^-1 (Q)
        q[:n, k] -= q[:n, k - 1]
        q[n:, k] += q[n:, k - 1]
    d = np.concatenate([q[:, m:], 2.0 * q[:, m - 1::-1]], axis=1)
    t = np.cos(np.arange(m + 1)[:, None] * np.linspace(0.0, math.pi, LSP_GRID))
    grid = d[:, :1] + d[:, 1:2] * t[1]
    for k in range(2, m + 1):   # elementwise, so no BLAS setting moves a bit
        grid += d[:, k:k + 1] * t[k]
    row, g = np.divmod(np.flatnonzero(np.diff(grid > 0.0, axis=1)), LSP_GRID - 1)
    count = np.bincount(row, minlength=2 * n)
    found = (count[:n] == m) & (count[n:] == m)
    both = np.tile(found, 2)
    g, rows = g[both[row]].reshape(-1, m), np.flatnonzero(both)[:, None]
    d, f_lo, f_hi = d[rows[:, 0]], grid[rows, g], grid[rows, g + 1]
    x_lo, x_hi = t[1][g], t[1][g + 1]   # x falls as w rises
    x = x_lo + f_lo * (x_hi - x_lo) / (f_lo - f_hi)
    for _ in range(LSP_NEWTON_STEPS):
        # the series and its slope at x, by the recurrences of T_k and T_k'
        t0, t1, u0, u1 = 1.0, x, 0.0, 1.0
        value, slope = d[:, :1] + d[:, 1:2] * x, d[:, 1:2]
        for k in range(2, m + 1):
            t0, t1, u0, u1 = t1, 2.0 * x * t1 - t0, u1, 2.0 * t1 + 2.0 * x * u1 - u0
            value, slope = value + d[:, k:k + 1] * t1, slope + d[:, k:k + 1] * u1
        with np.errstate(divide="ignore", invalid="ignore"):
            step = np.where(value == 0.0, 0.0, value / slope)
        x = np.clip(x - step, x_hi, x_lo)
    # a root whose last step the bracket clipped, or a large one, is unsettled
    settled = np.all(np.abs(step) <= LSP_STEP_TOL, axis=1).reshape(2, -1).all(axis=0)
    found[found] = settled
    return found, np.arccos(x[np.tile(settled, 2)])


def lsp_from_lpc(a: np.ndarray, rate: int) -> np.ndarray:
    """Line spectral frequencies (Hz, ascending) of each LPC polynomial (matrix row).

    The LSFs of A(z) (a[0] != 0, order p) are the root angles in (1e-6,
    pi - 1e-6) of P(z) = A(z) + z^-(p+1) A(1/z) and Q(z) = A(z) - z^-(p+1) A(1/z);
    the lowest p are kept, zero-padded when fewer qualify.  For even p,
    ``_lsp_search`` finds them for all frames at once: sign changes on
    LSP_GRID points from w = 0 to pi, then LSP_NEWTON_STEPS Newton steps from
    a secant start, clipped to the grid step.  Frames of odd p, or whose
    series do not change sign exactly p/2 times (two roots in one step, A(z)
    far from minimum phase), or with a last step over LSP_STEP_TOL, get
    companion-matrix ``eigvals`` instead, bit for bit ``np.roots``.

    Rows go through in blocks of ``LSP_BLOCK_FRAMES``, so the search grid's
    memory does not grow with the utterance; every step is row-wise, so the
    result has the bits of a one-block run.
    """
    rows = np.asarray(a, dtype=np.float64)
    if not np.all(rows[:, 0] != 0.0):
        raise ValueError("lsp_from_lpc needs a nonzero leading coefficient")
    return np.concatenate([_lsf_rows(rows[lo:lo + LSP_BLOCK_FRAMES], rate)
                           for lo in range(0, max(rows.shape[0], 1), LSP_BLOCK_FRAMES)])


def _lsf_rows(rows: np.ndarray, rate: int) -> np.ndarray:
    """``lsp_from_lpc`` of one block of rows."""
    n, p = rows.shape[0], rows.shape[1] - 1
    ext = np.pad(rows, ((0, 0), (0, 1)))
    polys = np.concatenate([ext + ext[:, ::-1], ext - ext[:, ::-1]])
    ang = np.full((2 * n, p + 1), np.inf)
    found = np.zeros(n, dtype=bool)
    if p > 0 and p % 2 == 0:
        found, searched = _lsp_search(polys, p // 2)
        ang[np.tile(found, 2), :p // 2] = searched
    ang[~np.tile(found, 2)] = np.angle(_poly_roots(polys[~np.tile(found, 2)]))
    ang = np.where((ang > 1e-6) & (ang < math.pi - 1e-6), ang, np.inf)
    ang = np.sort(np.concatenate([ang[:n], ang[n:]], axis=1), axis=1)[:, :p]
    lsf = ang * rate / (2.0 * math.pi)
    lsf[np.isinf(lsf)] = 0.0
    return lsf


def hz_to_mel(f):
    return 2595.0 * np.log10(1.0 + np.asarray(f, dtype=np.float64) / 700.0)


def mel_to_hz(m):
    return 700.0 * (10.0 ** (np.asarray(m, dtype=np.float64) / 2595.0) - 1.0)


@functools.lru_cache(maxsize=32)
def mel_filterbank(n_mels: int, n_fft_bins: int, rate: int) -> np.ndarray:
    """Triangular mel filters from 0 Hz to Nyquist, each normalized to unit weight sum.

    Built once per argument set and shared: the returned array is read-only.
    """
    edges = mel_to_hz(np.linspace(hz_to_mel(0.0), hz_to_mel(rate / 2.0), n_mels + 2))
    freqs = np.arange(n_fft_bins) * rate / (2.0 * (n_fft_bins - 1))
    fb = np.zeros((n_mels, n_fft_bins))
    for m in range(n_mels):
        lo, mid, hi = edges[m], edges[m + 1], edges[m + 2]
        up = (freqs - lo) / max(mid - lo, 1e-9)
        down = (hi - freqs) / max(hi - mid, 1e-9)
        tri = np.maximum(0.0, np.minimum(up, down))
        s = tri.sum()
        if s > 0:
            fb[m] = tri / s
    fb.setflags(write=False)
    return fb


def power_spectrum(frames: np.ndarray) -> np.ndarray:
    """Per-frame magnitude-squared rFFT (frames are already windowed)."""
    return np.abs(np.fft.rfft(frames, axis=-1)) ** 2


def log_mel_energies(spec: np.ndarray, rate: int, n_mels: int) -> np.ndarray:
    """Log mel band energies per frame of a ``power_spectrum`` (one frame per row)."""
    fb = mel_filterbank(n_mels, spec.shape[-1], rate)
    return np.log(np.maximum(spec @ fb.T, LOG_FLOOR))


def mfcc_frames(spec: np.ndarray, rate: int, n_mels: int = 24,
                n_ceps: int = 13, first: int = 0) -> np.ndarray:
    """MFCCs per frame of a ``power_spectrum``: orthonormal DCT-II of the log mel energies.

    Returns coefficients first..first+n_ceps-1 (c0 included by default).
    """
    logmel = log_mel_energies(spec, rate, n_mels)
    return logmel @ _dct_matrix(n_mels)[first:first + n_ceps].T


@functools.lru_cache(maxsize=8)
def _dct_matrix(n: int) -> np.ndarray:
    """Orthonormal DCT-II as an (n, n) matrix: row k holds basis k, so
    ``x @ D.T`` is ``scipy.fft.dct(x, type=2, norm="ortho")``.  Read-only."""
    k = np.arange(n)[:, None]
    d = np.cos(np.pi * k * (2 * np.arange(n) + 1) / (2 * n)) * math.sqrt(2.0 / n)
    d[0] /= math.sqrt(2.0)
    d.setflags(write=False)
    return d


def hz_to_bark(f):
    f = np.asarray(f, dtype=np.float64)
    return 13.0 * np.arctan(0.00076 * f) + 3.5 * np.arctan((f / 7500.0) ** 2)


def bark_band_energies(chunks: np.ndarray, rate: int) -> np.ndarray:
    """Natural-log energies in equal-width critical-band intervals.

    Takes a matrix of chunks of >= 64 samples, one per row, and returns 22
    values per row.  Bands split the Bark axis [0, z(rate/2)] evenly so
    every band keeps at least one FFT bin.
    """
    arr = np.asarray(chunks, dtype=np.float64)
    if arr.shape[-1] < 64:
        raise ValueError("bark_band_energies needs at least 64 samples")
    spec = power_spectrum(arr)
    n_bins = spec.shape[1]
    freqs = np.arange(n_bins) * rate / (2.0 * (n_bins - 1))
    z = hz_to_bark(freqs)
    idx = np.minimum((z / (hz_to_bark(rate / 2.0) / N_BARK_BANDS)).astype(int),
                     N_BARK_BANDS - 1)
    bands = np.zeros((spec.shape[0], N_BARK_BANDS))
    for b in range(N_BARK_BANDS):
        sel = idx == b
        if np.any(sel):
            bands[:, b] = spec[:, sel].sum(axis=1)
    return np.log(np.maximum(bands, LOG_FLOOR))


def teager_energy(x: np.ndarray) -> np.ndarray:
    """Discrete Teager energy psi(n) = x(n)^2 - x(n-1) x(n+1).

    Endpoints are replicated from their interior neighbors so the output has
    the same length as the input (requires length >= 3).
    """
    x = np.asarray(x, dtype=np.float64)
    if x.size < 3:
        raise ValueError("teager_energy needs at least 3 samples")
    core = x[1:-1] ** 2 - x[:-2] * x[2:]
    return np.concatenate([core[:1], core, core[-1:]])


def delta(feat: np.ndarray) -> np.ndarray:
    """Regression delta over +/-DELTA_WIDTH neighbors with edge replication."""
    feat = np.asarray(feat, dtype=np.float64)
    squeeze = feat.ndim == 1
    f = np.atleast_2d(feat.T).T if squeeze else feat
    if f.shape[0] == 0:
        return feat.copy()
    width = DELTA_WIDTH
    padded = np.pad(f, ((width, width), (0, 0)), mode="edge")
    norm = 2.0 * sum(k * k for k in range(1, width + 1))
    out = np.zeros_like(f)
    for k in range(1, width + 1):
        out += k * (padded[width + k:padded.shape[0] - width + k]
                    - padded[width - k:-width - k])
    out /= norm
    return out[:, 0] if squeeze else out


def moving_average(feat: np.ndarray) -> np.ndarray:
    """Centered SMOOTH_WIDTH-point moving average along axis 0 with edge replication."""
    feat = np.asarray(feat, dtype=np.float64)
    squeeze = feat.ndim == 1
    f = feat[:, None] if squeeze else feat
    if f.shape[0] == 0:
        return feat.copy()
    half = SMOOTH_WIDTH // 2
    padded = np.pad(f, ((half, half), (0, 0)), mode="edge")
    kernel = np.ones(SMOOTH_WIDTH) / SMOOTH_WIDTH
    out = np.apply_along_axis(lambda c: np.convolve(c, kernel, "valid"), 0, padded)
    return out[:, 0] if squeeze else out


def log_frame_energy(frames: np.ndarray) -> np.ndarray:
    """Natural-log frame energy ln(sum x^2), floored."""
    frames = np.atleast_2d(frames)
    return np.log(np.maximum((frames ** 2).sum(axis=1), LOG_FLOOR))
