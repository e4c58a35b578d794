"""Phonation features: F0 dynamics, jitter/shimmer perturbation, log-energy.

Seven descriptor tracks over the voiced portion of the utterance, each
summarized by {mean, std, skewness, kurtosis}: 28 values.

Glottal pulses are picked by ``pulse_windows``, a NumPy form of
``scipy.signal.find_peaks`` that serves many windows from one scan of the
signal: here one window per voiced run, in i2010pc one per frame.
``glottal_cycles`` turns every window's pulses into cleaned periods and
heights, whose ``WindowValues`` methods give the perturbation measures of
all windows at once; they are the only jitter and shimmer code of both
schemes, and each scheme asks for the measures it reads.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from ..analysis import Analysis
from ..audio import Waveform, _runs, grid
from ..dsp import delta
from ..functionals import FOUR_MOMENTS, apply_functionals
from . import FeatureVector

PHONATION_TRACKS = ("delta_f0", "delta2_f0", "jitter", "shimmer",
                    "apq", "ppq", "log_energy")

# Periods further than 40% from the local median are treated as pulse
# detection slips, not phonation, and dropped before perturbation measures.
MAX_PERIOD_DEVIATION = 0.40


def _local_maxima(x: np.ndarray):
    """Every local maximum of x, plateaus included, as ``find_peaks`` finds them.

    A maximum is a run of equal samples with a strictly lower sample on each
    side.  Returns the first and last index of each run and its midpoint
    (first + last) // 2, all ascending.
    """
    if x.size < 3:
        none = np.zeros(0, dtype=np.intp)
        return none, none, none
    first = np.flatnonzero(np.concatenate([[True], x[1:] != x[:-1]]))
    last = np.concatenate([first[1:], [x.size]]) - 1
    level = x[first]
    peak = np.flatnonzero((level[:-2] < level[1:-1]) & (level[2:] < level[1:-1])) + 1
    first, last = first[peak], last[peak]
    return first, last, (first + last) // 2


def _refine(x: np.ndarray, k: np.ndarray):
    """Sub-sample offsets and heights of the maxima at interior indices k.

    Parabolic interpolation through each maximum and its two neighbours; the
    offset is clipped to half a sample and is 0 where the parabola is flat.
    """
    a, b, c = x[k - 1], x[k], x[k + 1]
    denom = a - 2.0 * b + c
    flat = np.abs(denom) < 1e-30
    with np.errstate(divide="ignore", invalid="ignore"):
        shift = np.clip(0.5 * (a - c) / denom, -0.5, 0.5)
    height = b - 0.25 * (a - c) * shift
    return np.where(flat, 0.0, shift), np.where(flat, b, height)


def _keep_by_distance(pos: np.ndarray, heights: np.ndarray, owner: np.ndarray,
                      distance: np.ndarray) -> np.ndarray:
    """``find_peaks``' distance rule on many windows' candidates: a keep flag each.

    Candidates come window by window (``owner``), ascending in ``pos``.  The
    highest candidate of a window first removes its neighbours closer than
    ``distance[window]``, ranked by ``np.argsort`` of the window's heights as
    SciPy ranks them (one call per candidate count, on a matrix whose rows
    sort as 1-D calls would), so ties fall the same way.  In rounds, every
    live candidate that outranks its live neighbours is kept and they go.
    """
    k = pos.size
    counts = np.bincount(owner, minlength=distance.size)
    offsets = np.cumsum(counts) - counts
    rank = np.zeros(k + 1, dtype=np.intp)   # slot k: the end of the last range
    steps = np.arange(counts.max())
    for m in set(counts.tolist()) - {0, 1}:
        first = offsets[counts == m, None]
        rank[first + heights[first + steps[:m]].argsort(axis=1)] = steps[:m]
    # each candidate's neighbours [lo, hi), itself included, on a key that keeps windows apart
    stride = 2 * int(pos.max()) + 2
    key = owner * stride + pos
    span = np.minimum(distance, stride // 2)[owner]
    ends = np.full(2 * k + 1, k)
    ends[:-1:2] = key.searchsorted(key - span, side="right")
    ends[1::2] = key.searchsorted(key + span)
    keep, live = np.zeros(k + 1, dtype=bool), np.arange(k + 1) < k
    while live.any():
        now = live & (rank == np.maximum.reduceat(np.where(live, rank, -1), ends)[::2])
        keep |= now
        live &= ~np.logical_or.reduceat(now, ends)[::2]
    return keep[:k]


def pulse_windows(x: np.ndarray, starts, length, f0_hz, rate: int):
    """Glottal pulses of every window x[start:start + length], in one scan of x.

    Window i is peak-picked at roughly one peak per period of ``f0_hz[i]``:
    local maxima at least 0.3 x the window maximum (when that is positive),
    thinned so no two are closer than 0.6 periods, each refined by parabolic
    interpolation.  That is ``scipy.signal.find_peaks`` on the window,
    bit for bit, with the maxima found once for all windows: a window's
    candidates are the maxima whose whole plateau lies strictly inside it.
    ``length`` is one length for all windows or one per window.  Windows
    are cut short at the end of x; those under 3 samples, or with f0 <= 0,
    get no pulses.

    Returns (marks, amps, counts): the pulse positions (fractional samples
    from each window's start) and heights of all windows back to back, and
    the number of pulses per window.
    """
    x = np.asarray(x, dtype=np.float64)
    starts = np.asarray(starts, dtype=np.intp)
    f0_hz = np.asarray(f0_hz, dtype=np.float64)
    ends = np.minimum(starts + np.asarray(length, dtype=np.intp), x.size)
    counts = np.zeros(starts.size, dtype=np.intp)
    first, last, mid = _local_maxima(x)
    live = np.flatnonzero((f0_hz > 0) & (ends - starts >= 3))
    if live.size == 0 or mid.size == 0:
        return np.zeros(0), np.zeros(0), counts

    # each live window's run of candidate maxima [lo, hi), and its height gate
    lo = np.searchsorted(first, starts[live] + 1)
    hi = np.maximum(np.searchsorted(last, ends[live] - 2, side="right"), lo)
    # each window's maximum; the appended sample only makes index x.size valid
    top = np.maximum.reduceat(np.append(x, 0.0),
                              np.column_stack([starts[live], ends[live]]).ravel())[::2]
    gate = np.where(top > 0, 0.3 * top, -np.inf)

    # candidates of all windows back to back: the window owning each, its maximum
    n_cand = hi - lo
    owner = np.repeat(np.arange(live.size), n_cand)
    cand = np.arange(owner.size) - np.repeat(np.cumsum(n_cand) - n_cand, n_cand) + lo[owner]
    tall = x[mid[cand]] >= gate[owner]
    cand, owner = cand[tall], owner[tall]

    # the distance rule only matters where two candidates sit too close
    distance = np.maximum((0.6 * (rate / f0_hz[live])).astype(np.intp), 1)
    close = (owner[1:] == owner[:-1]) & (np.diff(mid[cand]) < distance[owner[1:]])
    if np.any(close):
        keep = _keep_by_distance(mid[cand], x[mid[cand]], owner, distance)
        cand, owner = cand[keep], owner[keep]

    shift, amps = _refine(x, mid[cand])
    marks = (mid[cand] - starts[live][owner]) + shift
    counts[live] = np.bincount(owner, minlength=live.size)
    return marks, amps, counts


class WindowValues(NamedTuple):
    """The values of many windows back to back, and how many each window has."""

    values: np.ndarray
    counts: np.ndarray

    def per_window(self, min_count: int, fn) -> np.ndarray:
        """``fn`` of each window's values; NaN where it has under ``min_count``.

        Windows with equal counts go through ``fn`` together, one per row of
        a matrix, and each row reduces exactly as the 1-D call on that window
        would.
        """
        out = np.full(self.counts.size, np.nan)
        offsets = np.cumsum(self.counts) - self.counts
        for m in np.unique(self.counts[self.counts >= min_count]).tolist():
            rows = np.flatnonzero(self.counts == m)
            out[rows] = fn(self.values[offsets[rows, None] + np.arange(m)])
        return out

    def relative_diff(self, order: int) -> np.ndarray:
        """100 x mean |order-th difference| / mean, per window, in %: local
        jitter or shimmer (order 1) and DDP jitter (order 2)."""
        return self.per_window(order + 1, lambda rows: 100.0 * np.mean(
            np.abs(np.diff(rows, order, axis=1)), axis=1) / np.mean(rows, axis=1))

    def quotient(self, points: int) -> np.ndarray:
        """Perturbation quotient over ``points`` neighbours, per window, in %:
        100 x mean |value - mean of the points centred on it| / mean.  PPQ5
        of periods, APQ11 of heights."""
        half = points // 2

        def of_rows(rows):
            m = rows.shape[1]
            # C order, so each neighbourhood sums as its own 1-D mean would;
            # the fancy index alone lays the rows out innermost
            near = np.ascontiguousarray(rows[:, np.arange(m - 2 * half)[:, None]
                                             + np.arange(points)])
            local = np.mean(near, axis=2)
            return 100.0 * np.mean(np.abs(rows[:, half:m - half] - local), axis=1) \
                / np.mean(rows, axis=1)
        return self.per_window(points, of_rows)


def glottal_cycles(marks: np.ndarray, amps: np.ndarray, counts: np.ndarray, rate: int):
    """Periods (s) and heights of every pulse window, as ``pulse_windows`` gives them.

    A window's periods are the gaps between its consecutive marks, less those
    further than ``MAX_PERIOD_DEVIATION`` from the window's median gap; its
    heights are the positive pulse heights.  Returns (periods, heights) as
    ``WindowValues``, from which each scheme takes the measures it reads.
    """
    window = np.repeat(np.arange(counts.size), counts)
    later = np.ones(marks.size, dtype=bool)   # every mark after its window's first
    later[(np.cumsum(counts) - counts)[counts > 0]] = False
    periods = (marks[1:] - marks[:-1])[later[1:]]
    of = window[later]
    med = WindowValues(periods, np.maximum(counts - 1, 0)).per_window(
        1, lambda rows: np.median(rows, axis=1))[of]
    clean = np.abs(periods - med) <= MAX_PERIOD_DEVIATION * med
    loud = amps > 0
    return (WindowValues(periods[clean] / rate, np.bincount(of[clean], minlength=counts.size)),
            WindowValues(amps[loud], np.bincount(window[loud], minlength=counts.size)))


def phonation_features(source: Waveform | Analysis) -> FeatureVector:
    a = Analysis.of(source)
    w, f0 = a.waveform, a.f0.values
    runs = [(lo, hi) for lo, hi, on in _runs(a.voiced) if on]

    if not runs or not np.any(f0 > 0):
        return FeatureVector("phonation", np.zeros(28), warning="no voiced frames")

    # one pulse window per voiced run with a pitched frame, at its median F0:
    # frames lo..hi-1 span samples lo*step up to hi*step, or to the last
    # sample for a run that ends on the last frame
    step = grid(w.sample_rate)[1]
    starts, lengths, run_f0 = [], [], []
    for lo, hi in runs:
        seg_f0 = f0[lo:hi][f0[lo:hi] > 0]
        if seg_f0.size:
            starts.append(lo * step)
            lengths.append((hi * step if hi < f0.size else w.samples.size) - lo * step)
            run_f0.append(float(np.median(seg_f0)))
    periods, heights = glottal_cycles(
        *pulse_windows(w.samples, starts, lengths, run_f0, w.sample_rate), w.sample_rate)
    jit, ppq = periods.relative_diff(1), periods.quotient(5)
    shim, apq = heights.relative_diff(1), heights.quotient(11)

    contour = f0[a.voiced & (f0 > 0)]
    d1 = delta(contour)
    d2 = delta(d1)
    # one block per PHONATION_TRACKS entry, in that order
    blocks = [d1, d2, jit, shim, apq, ppq, a.log_energy[a.voiced]]
    return FeatureVector("phonation", apply_functionals(blocks, FOUR_MOMENTS))
