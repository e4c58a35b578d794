import numpy as np
from scipy import stats

from emovox import functionals
from emovox.functionals import (ALL_FUNCTIONALS, FOUR_MOMENTS, IS10_FUNCTIONALS,
                                SIX_BASIC, apply_functionals)

LIN_REG = tuple(name for name in ALL_FUNCTIONALS if name.startswith("lin_reg"))


def column_functionals(column, names):
    """The one-column case of apply_functionals."""
    return apply_functionals([column], names)


# ------------------------------------------------- per-column reference code

def _column_stats(x):
    """All supported functionals of one finite non-empty column, one at a time."""
    n = x.size
    t = np.arange(n, dtype=np.float64)
    if n > 1:
        slope, offset = np.polyfit(t, x, 1)
    else:
        slope, offset = 0.0, float(x[0])
    resid = x - (slope * t + offset)
    m = x.mean()
    c = x - m
    q1, q2, q3, p1, p99 = np.percentile(x, [25, 50, 75, 1, 99])
    lo, hi = x.min(), x.max()
    rng = hi - lo
    m2 = np.mean(c ** 2) if rng > 0 else 0.0

    def uplevel(frac):
        return float(np.mean(x >= lo + frac * rng)) if rng > 0 else 0.0

    return {
        "mean": float(m),
        "std": float(x.std(ddof=1)) if n > 1 and rng > 0 else 0.0,
        "skewness": float(np.mean(c ** 3) / m2 ** 1.5) if m2 > 0 else 0.0,
        "kurtosis": float(np.mean(c ** 4) / m2 ** 2 - 3.0) if m2 > 0 else 0.0,
        "max": float(hi),
        "min": float(lo),
        "position_max": float(np.argmax(x) / (n - 1)) if n > 1 else 0.0,
        "position_min": float(np.argmin(x) / (n - 1)) if n > 1 else 0.0,
        "lin_reg_slope": float(slope),
        "lin_reg_offset": float(offset),
        "lin_reg_err_quadratic": float(np.mean(resid ** 2)),
        "lin_reg_err_absolute": float(np.mean(np.abs(resid))),
        "quartile1": float(q1),
        "quartile2": float(q2),
        "quartile3": float(q3),
        "iqr12": float(q2 - q1),
        "iqr23": float(q3 - q2),
        "iqr13": float(q3 - q1),
        "percentile1": float(p1),
        "percentile99": float(p99),
        "percentile_range_99_1": float(p99 - p1),
        "uplevel_time75": uplevel(0.75),
        "uplevel_time90": uplevel(0.90),
    }


def oracle_functionals(values, names):
    """apply_functionals computed column by column with _column_stats."""
    blocks = []
    for column in np.atleast_2d(values).T:
        x = column[np.isfinite(column)]
        if x.size == 0:
            blocks.append(np.zeros(len(names)))
        else:
            stats = _column_stats(x)
            blocks.append(np.array([stats[name] for name in names]))
    return np.concatenate(blocks) if blocks else np.zeros(0)


def assert_matches_oracle(values, names=ALL_FUNCTIONALS):
    """Bit-identical to the per-column path, lin_reg_* within 1e-9 relative."""
    got = apply_functionals([np.atleast_2d(values)], names).reshape(-1, len(names))
    want = oracle_functionals(values, names).reshape(-1, len(names))
    for j, name in enumerate(names):
        if name in LIN_REG:
            np.testing.assert_allclose(got[:, j], want[:, j], rtol=1e-9, atol=1e-9,
                                       err_msg=name)
        else:
            assert got[:, j].tobytes() == want[:, j].tobytes(), name


def test_set_sizes():
    assert len(ALL_FUNCTIONALS) == 23
    assert len(IS10_FUNCTIONALS) == 21
    assert len(SIX_BASIC) == 6
    assert len(FOUR_MOMENTS) == 4
    assert "max" not in IS10_FUNCTIONALS and "min" not in IS10_FUNCTIONALS


def test_mean_std_hand_case():
    out = column_functionals(np.array([1.0, 2, 3, 4, 5]), ("mean", "std"))
    np.testing.assert_allclose(out, [3.0, 1.5811], atol=1e-4)


def test_constant_column_moments_zero():
    out = column_functionals(np.full(20, 4.2), ("skewness", "kurtosis", "std"))
    np.testing.assert_allclose(out, 0.0)


def test_skew_kurt_match_scipy(rng):
    x = rng.standard_normal(500) ** 3
    out = column_functionals(x, ("skewness", "kurtosis"))
    np.testing.assert_allclose(out[0], stats.skew(x, bias=True), atol=1e-9)
    np.testing.assert_allclose(out[1], stats.kurtosis(x, fisher=True, bias=True),
                               atol=1e-9)


def test_uplevel_two_point_case():
    out = column_functionals(np.array([0.0, 10.0]),
                             ("uplevel_time75", "uplevel_time90"))
    np.testing.assert_allclose(out, [0.5, 0.5])


def test_uplevel_zero_range_is_zero():
    out = column_functionals(np.zeros(10), ("uplevel_time75", "uplevel_time90"))
    np.testing.assert_allclose(out, 0.0)


def test_all_zero_column_gives_all_zero_functionals():
    out = column_functionals(np.zeros(50), ALL_FUNCTIONALS)
    np.testing.assert_allclose(out, 0.0)


def test_positions_normalized():
    x = np.array([1.0, 9.0, 2.0, -3.0, 0.0])
    out = column_functionals(x, ("position_max", "position_min"))
    np.testing.assert_allclose(out, [1 / 4, 3 / 4])


def test_linear_regression_exact_line():
    x = 2.0 * np.arange(30) + 5.0
    out = column_functionals(
        x, ("lin_reg_slope", "lin_reg_offset",
            "lin_reg_err_quadratic", "lin_reg_err_absolute"))
    np.testing.assert_allclose(out, [2.0, 5.0, 0.0, 0.0], atol=1e-9)


def test_quartiles_hand_case():
    out = column_functionals(np.array([1.0, 2, 3, 4]),
                             ("quartile1", "quartile2", "quartile3",
                              "iqr12", "iqr23", "iqr13"))
    np.testing.assert_allclose(out, [1.75, 2.5, 3.25, 0.75, 0.75, 1.5])


def test_percentile_range(rng):
    x = rng.standard_normal(1000)
    out = column_functionals(x, ("percentile1", "percentile99",
                                 "percentile_range_99_1"))
    np.testing.assert_allclose(out[2], out[1] - out[0], atol=1e-12)


def test_max_min():
    out = column_functionals(np.array([3.0, -1.0, 7.0]), ("max", "min"))
    np.testing.assert_allclose(out, [7.0, -1.0])


def test_nan_values_excluded():
    x = np.array([1.0, np.nan, 2, 3, np.nan, 4, 5])
    full = column_functionals(np.array([1.0, 2, 3, 4, 5]), ALL_FUNCTIONALS)
    got = column_functionals(x, ALL_FUNCTIONALS)
    np.testing.assert_allclose(got, full)


def test_all_nan_column_zeros():
    out = column_functionals(np.full(5, np.nan), ALL_FUNCTIONALS)
    np.testing.assert_allclose(out, 0.0)


def test_single_value_column():
    out = column_functionals(np.array([2.0]),
                             ("mean", "std", "position_max", "lin_reg_slope",
                              "lin_reg_offset"))
    np.testing.assert_allclose(out, [2.0, 0.0, 0.0, 0.0, 2.0])


def test_descriptor_major_order():
    out = apply_functionals([np.array([[1.0, 10.0], [3.0, 30.0]])], ("mean", "max"))
    np.testing.assert_allclose(out, [2.0, 3.0, 20.0, 30.0])


def test_output_length_property(rng):
    for _ in range(20):
        n = int(rng.integers(1, 40))
        d = int(rng.integers(1, 6))
        k = int(rng.integers(1, len(ALL_FUNCTIONALS) + 1))
        names = tuple(rng.choice(ALL_FUNCTIONALS, size=k, replace=False))
        out = apply_functionals([rng.standard_normal((n, d))], names)
        assert out.shape == (k * d,)
        assert np.all(np.isfinite(out))


# ------------------------------------------- batched path against the oracle

def test_batched_matches_oracle_random(rng):
    for _ in range(10):
        n = int(rng.integers(1, 300))
        d = int(rng.integers(1, 80))
        scale = 10.0 ** rng.uniform(-3, 3, size=d)
        assert_matches_oracle(scale * rng.standard_normal((n, d)) + rng.normal(size=d))


def test_batched_matches_oracle_many_columns(rng):
    # enough columns that a last-bit difference in a power (about one value
    # in a thousand between NumPy's vector pow and libm's) shows up
    assert_matches_oracle(rng.lognormal(size=(12, 3000)) ** 3)


def test_batched_matches_oracle_single_row(rng):
    assert_matches_oracle(rng.standard_normal((1, 7)))


def test_batched_matches_oracle_constant_and_silent_columns(rng):
    x = rng.standard_normal((40, 6))
    x[:, 1] = 0.0
    x[:, 3] = 4.2
    x[:, 5] = -1e-3
    assert_matches_oracle(x)


def test_batched_matches_oracle_nan_columns(rng):
    x = rng.standard_normal((50, 7))
    x[:, 0] = np.nan                 # all absent
    x[3:20, 2] = np.nan              # partly absent
    x[3:20, 4] = np.nan              # same frames absent as column 2
    x[::4, 5] = np.inf               # non-finite counts as absent
    x[1:, 6] = np.nan                # one value left
    assert_matches_oracle(x)


def test_batched_matches_oracle_ragged_track(rng):
    # columns NaN-padded to a common length, as articulation builds its track
    x = np.full((30, 3), np.nan)
    x[:30, 0] = rng.standard_normal(30)
    x[:12, 1] = rng.standard_normal(12)
    x[:2, 2] = rng.standard_normal(2)
    assert_matches_oracle(x)


def test_requested_subsets_match_oracle_and_full_set(rng, monkeypatch):
    # each functional keeps its bits whatever else is asked for, and the
    # percentiles are only taken when one of them is asked for
    x = rng.standard_normal((40, 6)) * 10.0 ** rng.uniform(-3, 3, size=6)
    x[:, 1] = 0.0
    x[:, 3] = 4.2
    x[3:20, 2] = np.nan
    x[1:, 5] = np.nan
    full = apply_functionals([x], ALL_FUNCTIONALS).reshape(6, -1)
    percentile = np.percentile
    calls = []
    monkeypatch.setattr(np, "percentile", lambda *a, **k: calls.append(1) or percentile(*a, **k))
    subsets = [FOUR_MOMENTS, SIX_BASIC, IS10_FUNCTIONALS] + [(name,) for name in ALL_FUNCTIONALS]
    subsets += [tuple(rng.permutation(ALL_FUNCTIONALS)[:int(rng.integers(1, 23))])
                for _ in range(20)]
    for names in subsets:
        calls.clear()
        got = apply_functionals([x], names).reshape(6, -1)
        want = full[:, [ALL_FUNCTIONALS.index(name) for name in names]]
        assert got.tobytes() == want.tobytes(), names
        asks_percentile = any(n.startswith(("quartile", "iqr", "percentile")) for n in names)
        assert bool(calls) == asks_percentile, names
        assert_matches_oracle(x, names)


def test_column_blocks_match_one_block(rng, monkeypatch):
    # blocks of 16 or 32 columns at column counts one before, on and one
    # after each block edge, long enough that the regression's
    # matrix-vector product runs BLAS kernels over several rows; finite
    # columns, a group with the same frames absent, and ragged blocks
    def both(values_per_block, blocks, names):
        monkeypatch.setattr(functionals, "FUNCTIONAL_BLOCK_VALUES", 10 ** 9)
        ref = apply_functionals(blocks, names)
        monkeypatch.setattr(functionals, "FUNCTIONAL_BLOCK_VALUES", values_per_block)
        return apply_functionals(blocks, names), ref

    for rows in (400, 3001):
        for cols in (15, 16, 17, 31, 32, 33, 47, 48, 49, 76):
            x = rng.standard_normal((rows, cols)) * 10.0 ** rng.uniform(-3, 3, size=cols)
            x[:, ::5] = 0.0
            gaps = x.copy()
            gaps[7:90, 1::2] = np.nan
            ragged = [x[:, :cols // 2], x[:rows // 3, cols // 2:]]
            for blocks in ([x], [gaps], ragged):
                for per_block in (1, 32 * rows):   # 16 and 32 columns a block
                    got, ref = both(per_block, blocks, IS10_FUNCTIONALS)
                    assert got.tobytes() == ref.tobytes(), (rows, cols, per_block)
