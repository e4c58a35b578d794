"""Statistical functionals that map per-frame descriptor tracks to vectors."""

from __future__ import annotations

import numpy as np

from .arrays import column_blocks

ALL_FUNCTIONALS = (
    "mean", "std", "skewness", "kurtosis", "max", "min",
    "position_max", "position_min",
    "lin_reg_slope", "lin_reg_offset",
    "lin_reg_err_quadratic", "lin_reg_err_absolute",
    "quartile1", "quartile2", "quartile3",
    "iqr12", "iqr23", "iqr13",
    "percentile1", "percentile99", "percentile_range_99_1",
    "uplevel_time75", "uplevel_time90",
)

# The paralinguistic-challenge set: everything except plain max/min.
IS10_FUNCTIONALS = tuple(f for f in ALL_FUNCTIONALS if f not in ("max", "min"))
SIX_BASIC = ("mean", "std", "skewness", "kurtosis", "max", "min")
FOUR_MOMENTS = ("mean", "std", "skewness", "kurtosis")

# Values per block of apply_functionals (1 MB of float64 per temporary).
FUNCTIONAL_BLOCK_VALUES = 2 ** 17


_PERCENTILE_NAMES = frozenset(name for name in ALL_FUNCTIONALS
                              if name.startswith(("quartile", "iqr", "percentile")))


def _row_stats(x: np.ndarray, names: tuple) -> list:
    """The named functionals of each row of a finite (g x m, m >= 1) matrix.

    Only what the names need is computed, and each functional gets the same
    bits whatever else is asked for.  Every reduction runs along contiguous
    rows, so each row gets the same bits as the same NumPy call on that row
    alone.  The regression line is the closed-form least-squares fit.
    """
    n = x.shape[1]
    zero = np.zeros(x.shape[0])
    m = x.mean(axis=1)
    lo, hi = x.min(axis=1), x.max(axis=1)
    rng = hi - lo
    stats = {"mean": m, "max": hi, "min": lo}
    want = set(names)

    # Exactly-constant rows: define all dispersion/shape statistics as 0
    # rather than amplifying float rounding noise.
    if "std" in want:
        stats["std"] = np.where(rng > 0, x.std(axis=1, ddof=1), 0.0) if n > 1 else zero
    if want & {"skewness", "kurtosis"}:
        c = x - m[:, None]
        m2 = np.where(rng > 0, np.mean(c ** 2, axis=1), 0.0)
        shaped = m2 > 0
        # Powers of m2 one value at a time, as on a scalar: NumPy's vectorised
        # pow and square can differ from libm's pow in the last bit.
        m2_15, m2_sq = np.array([(v ** 1.5, v ** 2) for v in np.where(shaped, m2, 1.0).tolist()]
                                ).reshape(-1, 2).T
        stats["skewness"] = np.where(shaped, np.mean(c ** 3, axis=1) / m2_15, 0.0)
        stats["kurtosis"] = np.where(shaped, np.mean(c ** 4, axis=1) / m2_sq - 3.0, 0.0)

    if want & {"position_max", "position_min"}:
        stats["position_max"] = x.argmax(axis=1) / (n - 1) if n > 1 else zero
        stats["position_min"] = x.argmin(axis=1) / (n - 1) if n > 1 else zero

    if any(name.startswith("lin_reg") for name in want):
        t = np.arange(n, dtype=np.float64)
        tc = t - t.mean()
        slope = ((x - m[:, None]) @ tc) / (tc @ tc) if n > 1 else zero
        offset = m - slope * t.mean()
        resid = x - (slope[:, None] * t + offset[:, None])
        stats.update(lin_reg_slope=slope, lin_reg_offset=offset,
                     lin_reg_err_quadratic=np.mean(resid ** 2, axis=1),
                     lin_reg_err_absolute=np.mean(np.abs(resid), axis=1))

    if want & _PERCENTILE_NAMES:
        q1, q2, q3, p1, p99 = np.percentile(x, [25, 50, 75, 1, 99], axis=1)
        stats.update(quartile1=q1, quartile2=q2, quartile3=q3,
                     iqr12=q2 - q1, iqr23=q3 - q2, iqr13=q3 - q1,
                     percentile1=p1, percentile99=p99, percentile_range_99_1=p99 - p1)

    for frac, name in ((0.75, "uplevel_time75"), (0.90, "uplevel_time90")):
        if name in want:
            # Zero-range rows count as never exceeding the level; keeps all-zero
            # descriptor tracks mapping to all-zero functionals.
            stats[name] = np.where(rng > 0, np.mean(x >= (lo + frac * rng)[:, None], axis=1),
                                   0.0)
    return [stats[name] for name in names]


def apply_functionals(blocks, names: tuple) -> np.ndarray:
    """Summarize every descriptor column; descriptor-major, functional-minor.

    The blocks stand side by side in one track: each is a 1-D column or a
    2-D (rows x columns) array, padded with absent rows to the longest, and
    one with no rows stays absent throughout.  Absent (non-finite) values are
    dropped per column, and a column left empty yields all zeros.  Columns
    that keep the same frames are reduced together, as contiguous rows of
    the transposed track, in blocks of about ``FUNCTIONAL_BLOCK_VALUES``
    values (a multiple of 16 columns, at least 16): a track of over 8,192
    kept frames is summarised 16 columns at a time.  Every reduction
    runs along a row, and the regression's matrix-vector product meets each
    row in the same BLAS kernel lane as long as blocks start on multiples
    of 16 rows and none is a lone row (``arrays.column_blocks``), so the
    blocks keep the bits of one call.
    """
    blocks = [b[:, None] if b.ndim == 1 else b for b in map(np.asarray, blocks)]
    n = max([1] + [b.shape[0] for b in blocks])
    columns, groups = [], {}
    for b in blocks:
        b = b.astype(np.float64, copy=False)
        keep = np.zeros((b.shape[1], n), dtype=bool)
        keep[:, :b.shape[0]] = np.isfinite(b).T
        for column, mask in zip(b.T, keep):
            groups.setdefault(mask.tobytes(), (mask, []))[1].append(len(columns))
            columns.append(column)
    out = np.zeros((len(columns), len(names)))
    for keep, cols in groups.values():
        rows = np.flatnonzero(keep)
        if rows.size:
            size = 16 * max(1, FUNCTIONAL_BLOCK_VALUES // (16 * rows.size))
            for lo, hi in column_blocks(len(cols), size):
                x = np.array([columns[j][rows] for j in cols[lo:hi]])
                out[cols[lo:hi]] = np.column_stack(_row_stats(x, names))
    return out.ravel()
