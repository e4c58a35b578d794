"""RBF-SVM tests: kernel, standardizer, SMO against its scalar oracle, grid
scorer against per-cell models, one-vs-one."""

import numpy as np
import pytest

from emovox.config import ExperimentConfig
from emovox.errors import TrainingError
from emovox.svm import (
    _BOUND_EPS,
    SMO_TOL,
    STD_FLOOR,
    BinarySvm,
    MulticlassSvm,
    Standardizer,
    _binary_svm,
    _fit_splits,
    _smo_batch,
    _split_distances,
    _sq_distances,
    dead_cells,
    decision_scores,
    fit_standardizer,
    grid_predictions,
    predict_with_margins,
    train_binary_smo,
    train_multiclass,
)

from conftest import dual_objective


def random_binary_problem(seed, n=10, dim=3):
    r = np.random.default_rng(seed)
    x = r.standard_normal((n, dim))
    y = np.where(r.random(n) < 0.5, -1.0, 1.0)
    if np.all(y == y[0]):
        y[0] = -y[0]
    return x, y


def blobs(rng, centers, n_per, sigma=0.5):
    xs, labels = [], []
    for name, center in centers.items():
        xs.append(np.asarray(center) + rng.standard_normal((n_per, len(center))) * sigma)
        labels += [name] * n_per
    return np.vstack(xs), labels


def _project_box_hyperplane(v, y, c):
    """Exact Euclidean projection onto {0 <= a <= c, y·a = 0}."""
    bps = np.unique(np.concatenate([y * v, y * v - y * c]))
    svals = np.sum(y[None, :] * np.clip(v[None, :] - bps[:, None] * y[None, :], 0.0, c), axis=1)
    below = np.flatnonzero(svals <= 0.0)
    if below.size == 0:
        nu = bps[-1]
    elif below[0] == 0:
        nu = bps[0]
    else:
        k = below[0]
        sa, sb = svals[k - 1], svals[k]
        nu = bps[k - 1] if sa == sb else bps[k - 1] + (bps[k] - bps[k - 1]) * sa / (sa - sb)
    return np.clip(v - nu * y, 0.0, c)


def projected_gradient_dual(kmat, y, c, iters=10_000):
    """Slow reference solver for the SVM dual, independent of the SMO path."""
    q = kmat * np.outer(y, y)
    alpha = np.zeros(len(y))
    step = 1.0 / (np.linalg.norm(q, 2) + 1e-12)
    for _ in range(iters):
        alpha = _project_box_hyperplane(alpha - step * (q @ alpha - 1.0), y, c)
    return float(alpha.sum() - 0.5 * alpha @ q @ alpha)


def kkt_worst_violation(model, x, y):
    f = model.decision_values(x)
    worst = 0.0
    for ai, yi, fi in zip(model.alphas, y, f):
        margin = yi * fi
        if ai <= 1e-10 * model.c:
            worst = max(worst, 1.0 - margin)
        elif ai >= model.c * (1.0 - 1e-10):
            worst = max(worst, margin - 1.0)
        else:
            worst = max(worst, abs(margin - 1.0))
    return worst


def zero_diagonal_sq(z):
    """``_sq_distances(z, z)`` with its diagonal set to 0.0 here, not taken on
    trust: the squared distances every kernel of the solver is built on."""
    sq = _sq_distances(z, z)
    np.fill_diagonal(sq, 0.0)
    return sq


def scalar_smo(x, y, c, gamma, tol=SMO_TOL, max_passes=None, sq=None):
    """One-problem maximal-violating-pair SMO with scalar steps: the oracle
    that every cell of the batched solver must reproduce bit for bit.  Its
    kernel is exp(-gamma * sq), ``sq`` by default ``zero_diagonal_sq(x)``;
    a class pair of a larger split passes its slice of the split's matrix."""
    xm = np.atleast_2d(np.asarray(x, dtype=np.float64))
    yv = np.asarray(y, dtype=np.float64).ravel()
    n = xm.shape[0]
    if max_passes is None:
        max_passes = 10 * n
    c = float(c)

    k = np.exp(-gamma * (zero_diagonal_sq(xm) if sq is None else sq))
    alpha = np.zeros(n)
    grad = -np.ones(n)
    eps = _BOUND_EPS * (1.0 + c)
    converged = False
    for _ in range(int(max_passes)):
        below_c = alpha < c - eps
        above_0 = alpha > eps
        up = ((yv > 0) & below_c) | ((yv < 0) & above_0)
        low = ((yv > 0) & above_0) | ((yv < 0) & below_c)
        if not (up.any() and low.any()):
            converged = True
            break
        viol = -yv * grad
        i = int(np.flatnonzero(up)[np.argmax(viol[up])])
        j = int(np.flatnonzero(low)[np.argmin(viol[low])])
        gap = viol[i] - viol[j]
        if gap <= tol:
            converged = True
            break
        curv = max(k[i, i] + k[j, j] - 2.0 * k[i, j], 1e-12)
        step = gap / curv
        step = min(step, c - alpha[i] if yv[i] > 0 else alpha[i])
        step = min(step, alpha[j] if yv[j] > 0 else c - alpha[j])
        step = max(step, 0.0)
        alpha[i] += yv[i] * step
        alpha[j] -= yv[j] * step
        grad += step * yv * (k[:, i] - k[:, j])

    alpha = np.clip(alpha, 0.0, c)
    u = yv - (alpha * yv) @ k
    free = (alpha > eps) & (alpha < c - eps)
    if free.any():
        bias = float(np.where(free, u, 0.0).sum() / free.sum())
    else:
        below_c = alpha < c - eps
        above_0 = alpha > eps
        up = ((yv > 0) & below_c) | ((yv < 0) & above_0)
        low = ((yv > 0) & above_0) | ((yv < 0) & below_c)
        hi = u[up].max() if up.any() else 0.0
        lo = u[low].min() if low.any() else 0.0
        bias = 0.5 * float(hi + lo)
    kept = alpha > 0.0
    return BinarySvm(xm[kept].copy(), (alpha * yv)[kept], bias, c, float(gamma),
                     converged, alpha)


def scalar_multiclass(x, labels, c, gamma, tol=SMO_TOL):
    """One-vs-one ensemble of ``scalar_smo`` machines (the oracle for the
    grid), each on its pair's slice of the distances of all rows of ``x``."""
    scaler = fit_standardizer(x)
    z = scaler.transform(x)
    sq = zero_diagonal_sq(z)
    lab = np.array(labels, dtype=object)
    classes = sorted(set(labels))
    machines = {}
    for ia, a in enumerate(classes):
        for b in classes[ia + 1:]:
            mask = (lab == a) | (lab == b)
            machines[(a, b)] = scalar_smo(z[mask], np.where(lab[mask] == a, 1.0, -1.0),
                                          c, gamma, tol=tol, sq=sq[np.ix_(mask, mask)])
    return MulticlassSvm(tuple(classes), machines, scaler, float(c), float(gamma))


def assert_same_machine(got, want):
    assert np.array_equal(got.alphas, want.alphas)
    assert np.array_equal(got.dual_coef, want.dual_coef)
    assert np.array_equal(got.support_vectors, want.support_vectors)
    assert got.bias == want.bias
    assert got.converged is want.converged
    assert (got.c, got.gamma) == (want.c, want.gamma)


def assert_same_ensemble(got, want):
    assert got.classes == want.classes
    assert (got.c, got.gamma) == (want.c, want.gamma)
    assert np.array_equal(got.standardizer.mean, want.standardizer.mean)
    assert np.array_equal(got.standardizer.std, want.standardizer.std)
    assert list(got.machines) == list(want.machines)
    for pair, machine in got.machines.items():
        assert_same_machine(machine, want.machines[pair])


def train_grid(x, labels, cells, tol=SMO_TOL):
    """Yield a model for each (c, gamma) in ``cells`` from one packed SMO of
    all pairs and cells, with ``train_multiclass(x, labels, c, gamma, tol)``'s
    alphas and converged flags bit for bit and the grid's biases: the
    per-cell oracle for the grid scorer."""
    (classes, scaler, pairs), = _fit_splits(x, [(slice(None), labels, slice(0), cells)], tol)
    z = scaler.transform(x)
    for cell, (c, g) in enumerate(cells):
        yield MulticlassSvm(classes, {
            p.pair: _binary_svm(z[p.rows], p.yv, p.alphas[cell], p.bias[cell], c, g,
                                p.converged[cell])
            for p in pairs
        }, scaler, float(c), float(g))


def one_split(x, labels, x_val, cells):
    """``x`` and ``x_val`` stacked as one matrix, and the one split that fits
    on the rows of ``x`` and validates on those of ``x_val`` with ``cells``."""
    n = len(x)
    return np.vstack([x, x_val]), [(np.arange(n), list(labels), np.arange(n, n + len(x_val)),
                                    cells)]


def grid_machines(x, labels, x_val, cells, tol=SMO_TOL):
    """Classes and solved pairs of ``_fit_splits`` on one split."""
    (classes, _scaler, pairs), = _fit_splits(*one_split(x, labels, x_val, cells), tol)
    return classes, pairs


def split_predictions(x, labels, x_val, cells, tol=SMO_TOL):
    """The predictions of ``grid_predictions`` on one split."""
    (_classes, guesses, _margins, _converged), = grid_predictions(
        *one_split(x, labels, x_val, cells), tol)
    return guesses


def oracle_grid_predictions(x, labels, x_val, cells, tol=SMO_TOL):
    """``grid_predictions`` the slow way: one model per cell, then its labels
    from ``predict_with_margins``."""
    classes = sorted(set(labels))
    return np.array([[classes.index(label)
                      for label in predict_with_margins(model, x_val)[0]]
                     for model in train_grid(x, labels, cells, tol=tol)],
                    dtype=np.intp).reshape(len(cells), len(x_val))


def split_is_dead(x_fit, x_val, gamma):
    """Whether every RBF value between two distinct rows of a split, fit x
    fit and validation x fit, is 0.0 on rows standardized on the fit rows:
    each kernel built whole, the fit one on ``zero_diagonal_sq``."""
    scaler = fit_standardizer(x_fit)
    z = scaler.transform(x_fit)
    fit_kernel = np.exp(-gamma * zero_diagonal_sq(z))[~np.eye(len(z), dtype=bool)]
    val_kernel = np.exp(-gamma * _sq_distances(scaler.transform(x_val), z))
    return not fit_kernel.any() and not val_kernel.any()


def assert_close(got, want):
    want = np.asarray(want, dtype=np.float64)
    assert np.all(np.abs(got - want) <= 1e-9 * np.maximum(1.0, np.abs(want)))


def assert_grid_matches_scalar(x, labels, x_val, cells, tol=SMO_TOL):
    """Alphas and converged flags bit for bit, biases and validation decision
    values to 1e-9 relative, against a ``scalar_multiclass`` per cell."""
    classes, machines = grid_machines(x, labels, x_val, cells, tol)
    assert classes == tuple(sorted(set(labels)))
    for cell, (c, g) in enumerate(cells):
        ref = scalar_multiclass(x, labels, c, g, tol=tol)
        z_val = ref.standardizer.transform(x_val)
        assert [m.pair for m in machines] == list(ref.machines)
        for m in machines:
            want = ref.machines[m.pair]
            assert np.array_equal(m.alphas[cell], want.alphas)
            assert bool(m.converged[cell]) is want.converged
            assert_close(m.bias[cell], want.bias)
            assert_close(m.decision[cell], want.decision_values(z_val))


GRID_CELLS = [(c, g) for c in (1e-2, 1.0, 100.0, 1e4) for g in (1e-3, 0.1, 1.0, 10.0)]


# ---------------------------------------------------------------------------
# kernel and standardizer
# ---------------------------------------------------------------------------


def rbf_kernel(x, y, gamma: float) -> float:
    """exp(-gamma * ||x - y||^2) of two vectors: the oracle for the kernel."""
    a = np.asarray(x, dtype=np.float64).ravel()
    b = np.asarray(y, dtype=np.float64).ravel()
    if a.shape != b.shape:
        raise ValueError("kernel arguments differ in dimension")
    if gamma <= 0:
        raise ValueError("gamma must be positive")
    d = a - b
    return float(np.exp(-gamma * np.dot(d, d)))


def test_rbf_self_similarity(rng):
    for _ in range(5):
        x = rng.standard_normal(6)
        assert rbf_kernel(x, x, 2.0) == 1.0


def test_rbf_hand_value():
    assert rbf_kernel([0.0, 0.0], [1.0, 1.0], 0.5) == pytest.approx(np.exp(-1.0), abs=1e-12)


def test_rbf_decreases_with_gamma():
    vals = [rbf_kernel([0.0], [1.5], g) for g in (0.1, 1.0, 10.0, 100.0)]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] < 1e-9


def test_rbf_validation():
    with pytest.raises(ValueError):
        rbf_kernel([1.0, 2.0], [1.0], 1.0)
    with pytest.raises(ValueError):
        rbf_kernel([1.0], [2.0], 0.0)


def test_kernel_matrix_matches_scalar(rng):
    # a machine of one support vector b[j], coefficient 1 and bias 0 scores
    # row a[i] with the kernel value k(a[i], b[j])
    a = rng.standard_normal((4, 3))
    b = rng.standard_normal((5, 3))
    k = np.column_stack([BinarySvm(b[j:j + 1], np.ones(1), 0.0, 1.0, 0.7).decision_values(a)
                         for j in range(5)])
    for i in range(4):
        for j in range(5):
            assert k[i, j] == pytest.approx(rbf_kernel(a[i], b[j], 0.7), abs=1e-12)


@pytest.mark.parametrize("n", [1, 7, 50, 460])
def test_sq_distances_of_rows_to_themselves_are_exactly_symmetric(n):
    # the solver reads a pair's kernel rows as its columns, so its kernels
    # (exp of these distances) must equal their transposes bit for bit
    r = np.random.default_rng(n)
    x = r.standard_normal((n + 5, 594)) * r.uniform(0.5, 3.0, 594)
    z = fit_standardizer(x).transform(x)[r.permutation(n + 5)[:n]]
    sq = _sq_distances(z, z)
    assert sq.shape == (n, n)
    assert sq.tobytes() == sq.T.copy().tobytes()
    assert not sq.diagonal().any()


def test_standardizer_training_stats(rng):
    x = rng.standard_normal((40, 5)) * 3.0 + 7.0
    scaler = fit_standardizer(x)
    z = scaler.transform(x)
    assert np.all(np.abs(z.mean(axis=0)) < 1e-9)
    assert np.all(np.abs(z.std(axis=0) - 1.0) < 1e-6)


def test_standardizer_floors_constant_dim(rng):
    x = rng.standard_normal((30, 3))
    x[:, 1] = 4.25
    scaler = fit_standardizer(x)
    assert scaler.std[1] == STD_FLOOR
    assert np.all(scaler.transform(x)[:, 1] == 0.0)


def test_a_fit_constant_dimension_carries_no_distance(rng):
    # held-out rows that differ only in a dimension constant on the fit rows
    # get the same decision values, where a floored std would send them 1e8
    # sigma away and every kernel value to them to 0
    x, labels = blobs(rng, {"a": (0.0, 0.0, 0.0), "b": (2.0, 2.0, 0.0)}, 10)
    x[:, 2] = 4.25
    probe = rng.standard_normal((6, 3)) + 1.0
    probe[:, 2] = 4.25
    moved = probe.copy()
    moved[:, 2] = [4.0, -3.0, 1e3, 4.25 + 1e-6, 0.0, 7.0]
    model = train_multiclass(x, labels, 10.0, 0.5)
    assert not model.standardizer.transform(moved)[:, 2].any()
    assert decision_scores(model, probe)[1].tobytes() == decision_scores(model, moved)[1].tobytes()
    (_classes, guesses, margins, _converged), = grid_predictions(
        *one_split(x, labels, np.vstack([probe, moved]), [(10.0, 0.5), (1.0, 3.0)]))
    assert margins[:, :6].tobytes() == margins[:, 6:].tobytes()
    assert np.array_equal(guesses[:, :6], guesses[:, 6:])


def test_standardizer_ignores_test_rows(rng):
    train = rng.standard_normal((30, 4))
    test = rng.standard_normal((10, 4))
    before = fit_standardizer(train)
    test[:] = 1e9  # corrupting held-out data must not touch fitted parameters
    after = fit_standardizer(train)
    assert np.array_equal(before.mean, after.mean)
    assert np.array_equal(before.std, after.std)
    assert np.array_equal(after.mean, train.mean(axis=0))


def test_standardizer_dim_mismatch(rng):
    scaler = fit_standardizer(rng.standard_normal((10, 4)))
    with pytest.raises(ValueError):
        scaler.transform(rng.standard_normal((3, 5)))


# ---------------------------------------------------------------------------
# binary SMO
# ---------------------------------------------------------------------------


def test_smo_two_point_symmetry():
    model = train_binary_smo(np.array([[-1.0], [1.0]]), [-1.0, 1.0], 1e3, 0.5)
    assert model.bias == pytest.approx(0.0, abs=1e-9)
    assert model.decision_values([[0.0]])[0] == pytest.approx(0.0, abs=1e-9)
    assert model.decision_values([[-0.5]])[0] < 0.0


def test_smo_xor_separates():
    x = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    model = train_binary_smo(x, y, 10.0, 1.0)
    assert model.converged
    assert np.array_equal(np.sign(model.decision_values(x)), y)


def test_smo_single_class_error():
    with pytest.raises(TrainingError):
        train_binary_smo(np.zeros((4, 2)), [1.0, 1.0, 1.0, 1.0], 1.0, 1.0)


def test_smo_label_validation():
    with pytest.raises(TrainingError):
        train_binary_smo(np.zeros((3, 2)), [0.0, 1.0, 1.0], 1.0, 1.0)
    with pytest.raises(TrainingError):
        train_binary_smo(np.zeros((3, 2)), [1.0, -1.0, 1.0], -1.0, 1.0)


def test_smo_zero_rows_is_a_training_error():
    with pytest.raises(TrainingError):
        train_binary_smo(np.zeros((0, 2)), [], 1.0, 1.0)


def test_smo_on_a_strided_view_matches_its_contiguous_copy():
    # NumPy multiplies a view with no unit-stride axis by its transpose
    # through copies and gemm, whose product need not be symmetric; the
    # solver reads kernel rows as columns, so it is given a contiguous copy
    x, y = random_binary_problem(4, n=30, dim=8)
    strided = np.repeat(x, 2, axis=1)[:, ::2]
    assert not (strided.flags.c_contiguous or strided.flags.f_contiguous)
    for c, gamma in ((1.0, 0.3), (100.0, 2.0)):
        assert_same_machine(train_binary_smo(strided, y, c, gamma),
                            train_binary_smo(x.copy(), y, c, gamma))


def test_smo_alpha_box_and_balance():
    for seed in range(5):
        x, y = random_binary_problem(seed)
        model = train_binary_smo(x, y, 5.0, 1.0)
        assert np.all(model.alphas >= -1e-12)
        assert np.all(model.alphas <= 5.0 + 1e-12)
        assert abs(float(np.sum(model.alphas * y))) < 1e-6


def test_smo_kkt_at_tolerance():
    x = np.array([[1.0, 1.0], [-1.0, -1.0], [1.0, -1.0], [-1.0, 1.0]])
    y = np.array([1.0, 1.0, -1.0, -1.0])
    assert kkt_worst_violation(train_binary_smo(x, y, 10.0, 1.0), x, y) <= 1e-3 + 1e-7
    for seed in range(5):
        x, y = random_binary_problem(seed, n=14)
        model = train_binary_smo(x, y, 3.0, 0.8)
        assert kkt_worst_violation(model, x, y) <= 1e-3 + 1e-7


def test_smo_dual_matches_projected_gradient():
    for seed in range(5):
        x, y = random_binary_problem(seed)
        r = np.random.default_rng(seed)
        c = float(r.choice([1.0, 10.0]))
        gamma = float(r.choice([0.5, 2.0]))
        model = train_binary_smo(x, y, c, gamma, tol=1e-8, max_passes=100_000)
        oracle = projected_gradient_dual(np.exp(-gamma * zero_diagonal_sq(x)), y, c)
        assert abs(dual_objective(model) - oracle) < 1e-4


def test_smo_convergence_flag():
    rng = np.random.default_rng(3)
    x, labels = blobs(rng, {"a": (0.0, 0.0), "b": (1.0, 1.0)}, 20, sigma=1.0)
    y = np.where(np.array(labels) == "a", 1.0, -1.0)
    short = train_binary_smo(x, y, 10.0, 1.0, max_passes=1)
    assert not short.converged
    full = train_binary_smo(x, y, 10.0, 1.0)
    assert full.converged


def test_free_support_vectors_sit_on_margin():
    rng = np.random.default_rng(4)
    x, labels = blobs(rng, {"a": (0.0, 0.0), "b": (4.0, 0.0)}, 25)
    y = np.where(np.array(labels) == "a", 1.0, -1.0)
    model = train_binary_smo(x, y, 10.0, 0.5)
    f = model.decision_values(x)
    free = (model.alphas > 1e-8) & (model.alphas < model.c - 1e-8)
    assert free.any()
    assert np.all(np.abs(y[free] * f[free] - 1.0) < 1e-2)


def test_decision_crosses_zero_once():
    rng = np.random.default_rng(5)
    x, labels = blobs(rng, {"a": (0.0, 0.0), "b": (5.0, 0.0)}, 25)
    y = np.where(np.array(labels) == "a", 1.0, -1.0)
    model = train_binary_smo(x, y, 10.0, 0.3)
    ts = np.linspace(-1.0, 6.0, 400)
    f = model.decision_values(np.column_stack([ts, np.zeros_like(ts)]))
    assert np.count_nonzero(np.diff(np.sign(f))) == 1


def test_smo_matches_scalar_oracle():
    for seed in range(40):
        r = np.random.default_rng(seed)
        x, y = random_binary_problem(seed, n=int(r.integers(2, 25)), dim=int(r.integers(1, 6)))
        c = float(10.0 ** r.integers(-3, 5))
        gamma = float(10.0 ** r.integers(-3, 3))
        assert_same_machine(train_binary_smo(x, y, c, gamma), scalar_smo(x, y, c, gamma))


def packed_problems(seed, count=24):
    """Random duals for one packed ``_smo_batch`` call, as (x, y, c, gamma,
    pass limit), in twos that share rows and gamma, so a kernel: n from 2
    to 20, some with a duplicate row of the other label, some with a gamma
    so large that every off-diagonal kernel value underflows to 0 (the
    dead cells that ``emovox train`` still solves), limits of 10 * n or of
    a few passes."""
    r = np.random.default_rng(seed)
    problems = []
    for p in range(count // 2):
        n = 2 if p % 3 == 0 else int(r.integers(3, 21))
        x, y = random_binary_problem(1000 * seed + p, n=n, dim=int(r.integers(1, 5)))
        if p % 2 and n > 2:
            x[-1], y[-1] = x[0], -y[0]
        gamma = float(10.0 ** r.integers(-2, 2)) if p % 6 != 4 else 1e12
        for labels in (y, -y if p % 4 < 2 else y):
            limit = 10 * n if r.random() < 0.7 else int(r.integers(0, 4))
            problems.append((x, labels, float(10.0 ** r.integers(-2, 5)), gamma, limit))
    return problems


def loop_smo_batch(kernels, kernel_index, y, c, tol, max_passes):
    """Packed maximal-violating-pair SMO that rebuilds the up and low masks,
    the violation -y * gradient and both masked copies from the alphas and
    the gradient on every pass: the reference whose alphas and converged
    flags ``_smo_batch`` must give bit for bit."""
    c = np.asarray(c, dtype=np.float64)
    cells, n = y.shape
    limit = np.asarray(max_passes)
    alpha = np.zeros((cells, n))
    converged = np.zeros(cells, dtype=bool)
    rows = np.arange(cells)
    a = np.zeros((cells, n))
    grad = np.full((cells, n), -1.0)
    box = c
    eps = _BOUND_EPS * (1.0 + c[:, None])
    top = np.where(y != 0.0, c[:, None] - eps, 0.0)
    pos = y > 0
    neg_y = -y
    kid = np.asarray(kernel_index)
    r = np.arange(cells)
    for t in range(int(limit.max(initial=0))):
        below_c = a < top
        above_0 = a > eps
        up = np.where(pos, below_c, above_0)
        low = np.where(pos, above_0, below_c)
        viol = neg_y * grad
        i = np.where(up, viol, -np.inf).argmax(axis=1)
        j = np.where(low, viol, np.inf).argmin(axis=1)
        gap = viol[r, i] - viol[r, j]
        expired = limit <= t
        done = ~expired & (~(up.any(axis=1) & low.any(axis=1)) | (gap <= tol))
        stop = done | expired
        if stop.any():
            alpha[rows[stop]] = a[stop]
            converged[rows[done]] = True
            keep = ~stop
            if not keep.any():
                break
            rows, a, grad, box, eps, top, pos, neg_y, y, kid, limit = (
                v[keep] for v in (rows, a, grad, box, eps, top, pos, neg_y, y, kid, limit))
            i, j, gap = i[keep], j[keep], gap[keep]
            r = np.arange(rows.size)
        col_i = kernels[kid, i]
        col_j = kernels[kid, j]
        curv = col_i[r, i] + col_j[r, j] - 2.0 * col_j[r, i]
        curv = np.where(1e-12 > curv, 1e-12, curv)
        step = gap / curv
        yi = y[r, i]
        yj = y[r, j]
        ai = a[r, i]
        aj = a[r, j]
        room = np.where(yi > 0, box - ai, ai)
        step = np.where(room < step, room, step)
        room = np.where(yj > 0, aj, box - aj)
        step = np.where(room < step, room, step)
        step = np.where(0.0 > step, 0.0, step)
        a[r, i] += yi * step
        a[r, j] -= yj * step
        grad += (step[:, None] * y) * (col_i - col_j)
    else:
        alpha[rows] = a
    return np.clip(alpha, 0.0, c[:, None]), converged


def solve_packed(problems, tol=SMO_TOL, solver=_smo_batch):
    """One ``solver`` call over ``problems`` padded to the longest n."""
    n_max = max(len(y) for _x, y, *_rest in problems)
    kernels = np.zeros((len(problems) // 2, n_max, n_max))
    y_pad = np.zeros((len(problems), n_max))
    for p, (x, y, _c, gamma, _limit) in enumerate(problems):
        kernels[p // 2, :len(y), :len(y)] = np.exp(-gamma * zero_diagonal_sq(x))
        y_pad[p, :len(y)] = y
    return solver(kernels, np.arange(len(problems)) // 2, y_pad,
                  [p[2] for p in problems], tol, [p[4] for p in problems])


@pytest.mark.parametrize("seed", range(4))
def test_packed_smo_matches_lone_scalar_solves(seed):
    problems = packed_problems(seed)
    assert {p[4] for p in problems} & {0, 1, 2, 3}  # some rows expire after a few passes
    off_diagonal = [np.exp(-gamma * zero_diagonal_sq(x))[~np.eye(len(y), dtype=bool)]
                    for x, y, _c, gamma, _limit in problems]
    assert sum(not k.any() for k in off_diagonal) >= 4  # duals with identity-like kernels
    for tol in (SMO_TOL, 1e-9):
        alpha, converged = solve_packed(problems, tol)
        assert alpha.shape[0] == converged.shape[0] == len(problems)
        assert converged.any() and not converged.all()
        loop_alpha, loop_converged = solve_packed(problems, tol, loop_smo_batch)
        assert alpha.tobytes() == loop_alpha.tobytes()
        assert converged.tobytes() == loop_converged.tobytes()
        for p, (x, y, c, gamma, limit) in enumerate(problems):
            want = scalar_smo(x, y, c, gamma, tol=tol, max_passes=limit)
            assert alpha[p, :len(y)].tobytes() == want.alphas.tobytes(), p
            assert bool(converged[p]) is want.converged, p
            assert alpha[p, len(y):].tobytes() == bytes(8 * (alpha.shape[1] - len(y)))


def pair_bits(machines):
    return [(m.pair, m.alphas.tobytes(), m.converged.tobytes(), m.bias.tobytes(),
             m.decision.tobytes()) for m in machines]


def scaler_bits(scaler):
    return scaler.mean.tobytes(), scaler.std.tobytes()


def count_solves(monkeypatch):
    """Record the (problems, n_max) shape of every ``_smo_batch`` call."""
    from emovox import svm

    calls = []
    solve = svm._smo_batch
    monkeypatch.setattr(svm, "_smo_batch", lambda *a: calls.append(a[2].shape) or solve(*a))
    return calls


def four_class_rows():
    """Rows of classes a-d whose class pairs have 14, 22, 16, 18, 12 and 20 rows."""
    r = np.random.default_rng(9)
    labels = [name for name, count in zip("abcd", (9, 5, 13, 7)) for _ in range(count)]
    x = r.standard_normal((len(labels), 5)) + np.array(
        ["abcd".index(label) for label in labels])[:, None]
    return x, labels


def test_kernel_cap_splits_a_solve_into_runs_with_the_same_bits(monkeypatch):
    from emovox import svm

    x, labels = four_class_rows()
    calls = count_solves(monkeypatch)
    whole = grid_machines(x, labels, x[::3], GRID_CELLS)
    model = train_multiclass(x, labels, 10.0, 0.1)
    assert calls == [(6 * len(GRID_CELLS), 22), (6, 22)]
    # pairs of 14, 22, 16, 18, 12 and 20 rows and 4 gammas: a run closes with
    # the pair that brings (pairs x 4) kernels of its largest n squared up to
    # the cap, here the third one
    monkeypatch.setattr(svm, "_PACK_FLOATS", 3 * 4 * 22 ** 2 - 1)
    calls.clear()
    split = grid_machines(x, labels, x[::3], GRID_CELLS)
    assert calls == [(3 * len(GRID_CELLS), 22), (3 * len(GRID_CELLS), 20)]
    assert pair_bits(split[1]) == pair_bits(whole[1])
    # problems x n_max up to 40 x 22: the third pair passes it (48 x 22), and
    # the last three pairs end the stream at 48 x 20
    monkeypatch.setattr(svm, "_PACK_FLOATS", 2 ** 21)
    monkeypatch.setattr(svm, "_PACK_CELLS", 40 * 22)
    calls.clear()
    split = grid_machines(x, labels, x[::3], GRID_CELLS)
    assert calls == [(3 * len(GRID_CELLS), 22), (3 * len(GRID_CELLS), 20)]
    assert pair_bits(split[1]) == pair_bits(whole[1])
    monkeypatch.setattr(svm, "_PACK_FLOATS", 1)
    calls.clear()
    assert_same_ensemble(train_multiclass(x, labels, 10.0, 0.1), model)
    assert len(calls) == 6


def test_runs_hold_whole_pairs_each_stacked_once(monkeypatch):
    # with problems x n_max capped below the 16 x 22 of pair (a, c), a pair
    # that reaches the cap on its own is a run by itself, (b, c) closes the
    # run it joins, and no run cuts a pair's cells
    from emovox import svm

    x, labels = four_class_rows()
    whole = grid_machines(x, labels, x[::3], GRID_CELLS)
    runs = []
    solve = svm._smo_batch
    monkeypatch.setattr(svm, "_smo_batch",
                        lambda *a: runs.append((a[0].shape[0],) + a[2].shape) or solve(*a))
    monkeypatch.setattr(svm, "_PACK_CELLS", 16 * 20)
    split = grid_machines(x, labels, x[::3], GRID_CELLS)
    assert [run[1:] for run in runs] == [(16, 14), (16, 22), (32, 18), (16, 12), (16, 20)]
    # 16 cells and 4 gammas a pair: every run stacks 4 kernels for each of its pairs
    assert [kernels for kernels, _problems, _n_max in runs] == [4, 4, 8, 4, 4]
    assert pair_bits(split[1]) == pair_bits(whole[1])


@pytest.mark.parametrize("cap", [None, 1])
def test_many_splits_match_one_call_per_split(cap, monkeypatch):
    # splits of different sizes and class counts, some validating on rows of
    # one class only: packing them into shared solves changes no bit
    from emovox import svm

    r = np.random.default_rng(17)
    names = np.array(list("abc"))
    labels = names[np.arange(60) % 3]
    x = r.standard_normal((60, 4)) + 0.7 * (np.arange(60) % 3)[:, None]
    cells = [(c, g) for c in (1e-2, 1.0, 1e3) for g in (1e-2, 0.3, 3.0)]
    splits = []
    for fit_count, val_count, classes, split_cells in (
            (40, 12, "abc", cells), (13, 7, "ab", cells[1:5]), (28, 5, "abc", cells),
            (9, 20, "bc", cells[4:5])):
        rows = r.permutation(np.flatnonzero(np.isin(labels, list(classes))))
        fit, val = np.sort(rows[:fit_count]), rows[fit_count:fit_count + val_count]
        splits.append((fit, labels[fit].tolist(), val, split_cells))
    splits[2] = (splits[2][0], splits[2][1], splits[2][2][labels[splits[2][2]] == "a"], cells)
    one_by_one = [list(_fit_splits(x, [split], SMO_TOL))[0] for split in splits]
    alone = [out for split in splits for out in grid_predictions(x, [split])]
    calls = count_solves(monkeypatch)
    if cap:
        monkeypatch.setattr(svm, "_PACK_FLOATS", cap)
        monkeypatch.setattr(svm, "_PACK_CELLS", cap)
    packed = list(_fit_splits(x, splits, SMO_TOL))
    problems = sum(len(m.bias) for _classes, _scaler, machines in packed for m in machines)
    assert sum(n for n, _n_max in calls) == problems == 9 * 3 + 4 * 1 + 9 * 3 + 1 * 1
    # with cap 1 every pair is a run by itself, all its cells together
    assert [n for n, _n_max in calls] == ([len(m.bias) for _classes, _scaler, machines in packed
                                            for m in machines] if cap else [problems])
    assert [classes for classes, _scaler, _machines in packed] == [
        tuple("abc"), ("a", "b"), tuple("abc"), ("b", "c")]
    for (classes, scaler, machines), (want_classes, want_scaler, want) in zip(packed, one_by_one):
        assert classes == want_classes
        assert scaler_bits(scaler) == scaler_bits(want_scaler)
        assert pair_bits(machines) == pair_bits(want)
    together = list(grid_predictions(x, splits))
    assert [out[1].shape for out in together] == [(len(split_cells), len(val))
                                                  for _f, _l, val, split_cells in splits]
    for got, want in zip(together, alone):
        assert got[0] == want[0]
        assert [a.tobytes() for a in got[1:]] == [a.tobytes() for a in want[1:]]


@pytest.mark.parametrize("cap", [None, 1])
def test_one_cell_splits_match_train_multiclass(cap, monkeypatch):
    # the outer fits of nested CV: splits of different sizes and class sets,
    # each with its own one-cell list, streamed together
    from emovox import svm

    r = np.random.default_rng(23)
    names = np.array(list("abcd"))
    labels = names[np.arange(80) % 4]
    x = r.standard_normal((80, 5)) + 0.8 * (np.arange(80) % 4)[:, None]
    splits = []
    for fit_count, val_count, classes, cell in ((50, 10, "abcd", (1.0, 0.1)),
                                                (14, 6, "ab", (100.0, 1.0)),
                                                (33, 9, "bcd", (1e-2, 0.3)),
                                                (21, 4, "ad", (1e3, 3.0))):
        rows = r.permutation(np.flatnonzero(np.isin(labels, list(classes))))
        fit, val = np.sort(rows[:fit_count]), rows[fit_count:fit_count + val_count]
        splits.append((fit, labels[fit].tolist(), val, [cell]))
    models = [train_multiclass(x[fit], fit_labels, *cells[0])
              for fit, fit_labels, _val, cells in splits]
    calls = count_solves(monkeypatch)
    if cap:
        monkeypatch.setattr(svm, "_PACK_FLOATS", cap)
        monkeypatch.setattr(svm, "_PACK_CELLS", cap)
    packed = list(_fit_splits(x, splits, SMO_TOL))
    sizes = [m.alphas.shape[1] for _classes, _scaler, machines in packed for m in machines]
    assert len(sizes) == 6 + 1 + 3 + 1
    assert calls == ([(1, n) for n in sizes] if cap else [(len(sizes), max(sizes))])
    scores = list(grid_predictions(x, splits))
    for (_fit, _l, val, _cells), model, (classes, scaler, machines), (
            score_classes, guesses, margins, converged) in zip(splits, models, packed, scores):
        assert classes == score_classes == model.classes
        assert scaler_bits(scaler) == scaler_bits(model.standardizer)
        assert [m.pair for m in machines] == list(model.machines)
        z_val = model.standardizer.transform(x[val])
        for m in machines:
            want = model.machines[m.pair]
            assert m.alphas[0].tobytes() == want.alphas.tobytes()
            assert bool(m.converged[0]) is want.converged
            assert_close(m.bias[0], want.bias)
            assert_close(m.decision[0], want.decision_values(z_val))
        _votes, want_margins = decision_scores(model, x[val])
        assert_close(margins[0], want_margins)
        assert [classes[i] for i in guesses[0]] == predict_with_margins(model, x[val])[0]
        assert converged.tolist() == [model.converged]


# ---------------------------------------------------------------------------
# grid trainer
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n_classes", [2, 3])
def test_grid_matches_scalar_oracle(n_classes):
    names = ["a", "b", "c"][:n_classes]
    for seed in range(6):
        r = np.random.default_rng(100 + seed)
        labels = [names[i % n_classes] for i in range(int(r.integers(3 * n_classes, 24)))]
        x = r.standard_normal((len(labels), 4)) + 0.8 * np.array(
            [names.index(label) for label in labels])[:, None]
        x_val = r.standard_normal((int(r.integers(1, 9)), 4)) * 1.5
        assert_grid_matches_scalar(x, labels, x_val, GRID_CELLS)
        guesses = split_predictions(x, labels, x_val, GRID_CELLS)
        assert guesses.shape == (len(GRID_CELLS), len(x_val))
        for (c, g), row in zip(GRID_CELLS, guesses):
            model = train_multiclass(x, labels, c, g)
            assert_same_ensemble(model, scalar_multiclass(x, labels, c, g))
            assert [names[i] for i in row] == predict_with_margins(model, x_val)[0]


def test_grid_unconverged_cells_match_scalar_oracle():
    rng = np.random.default_rng(3)
    x, labels = blobs(rng, {"a": (0.0, 0.0), "b": (1.0, 1.0)}, 20, sigma=1.0)
    cells = [(c, g) for c in (1.0, 1e3, 1e4) for g in (1.0, 30.0)]
    _classes, machines = grid_machines(x, labels, x[:5], cells, 1e-9)
    converged = machines[0].converged
    assert not converged.all() and converged.any()
    assert_grid_matches_scalar(x, labels, x[:5], cells, tol=1e-9)
    assert np.array_equal(split_predictions(x, labels, x[:5], cells, tol=1e-9),
                          oracle_grid_predictions(x, labels, x[:5], cells, tol=1e-9))


def rounding_decided(model, x_val):
    """Rows whose per-cell vote hangs on rounding: a pair decision value
    within 1e-9 of zero, or leading classes whose summed margins tie to 1e-8."""
    z = model.standardizer.transform(x_val)
    near_zero = np.zeros(len(z), dtype=bool)
    for machine in model.machines.values():
        near_zero |= np.abs(machine.decision_values(z)) <= 1e-9
    votes, margins = decision_scores(model, x_val)
    leading = np.where(votes == votes.max(axis=1, keepdims=True), margins, -np.inf)
    top2 = np.sort(leading, axis=1)[:, -2:]
    return near_zero | (top2[:, 1] - top2[:, 0] <= 1e-8)


def test_grid_predictions_match_per_cell_oracle_random():
    # Duplicate rows, constant dimensions and large gamma give pair machines
    # whose decision is zero in exact arithmetic; its sign is then rounding
    # noise in either summation order, so only those cells may disagree.
    cells = ExperimentConfig().grid()
    exempt = compared = 0
    for seed in range(24):
        r = np.random.default_rng(400 + seed)
        k = int(r.integers(2, 5))
        dim = int(r.integers(1, 61))
        names = ("w", "x", "y", "z")[:k]
        labels = [names[i % k] for i in range(int(r.integers(2 * k, 8 * k)))]
        x = r.standard_normal((len(labels), dim)) + 0.6 * np.array(
            [names.index(label) for label in labels])[:, None]
        x_val = r.standard_normal((1 if seed % 3 == 0 else int(r.integers(2, 9)), dim))
        if seed % 2:
            col = int(r.integers(dim))
            x[:, col] = 2.5  # constant over the training rows
            x_val[:, col] = 2.5 if seed % 4 == 1 else x_val[:, col]
        if seed % 4 < 2:
            x[k] = x[0]  # a duplicate with the same label
            x_val[0] = x[0]
        if seed % 8 < 4:
            x[-1] = x[1]  # a duplicate with another label
        got = split_predictions(x, labels, x_val, cells)
        want = oracle_grid_predictions(x, labels, x_val, cells)
        compared += got.size
        for cell, model in enumerate(train_grid(x, labels, cells)):
            differ = got[cell] != want[cell]
            if differ.any():
                assert rounding_decided(model, x_val)[differ].all(), (seed, cells[cell])
                exempt += int(differ.sum())
    assert exempt <= 0.01 * compared


def test_dead_cells_cover_fit_and_validation_rows(rng):
    # rows far apart on 20 dims, 8 fit and 4 validation: gamma 1000 sends
    # every kernel value between distinct rows to 0 unless two of them,
    # fit x fit or validation x fit, are moved next to each other
    x = 3.0 * rng.standard_normal((12, 20))
    cells = [(1.0, 1e-3), (1.0, 1e3), (10.0, 1e3)]

    def dead(x, at=None):
        x = x.copy()
        if at:
            x[at[0]] = x[at[1]] + 1e-3
        split = (np.arange(8), list("aaaabbbb"), np.arange(8, 12), cells)
        return next(dead_cells(x, [split])).tolist()

    assert dead(x) == [False, True, True]
    assert dead(x, (9, 3)) == [False, False, False]   # a validation row by a fit row
    assert dead(x, (5, 1)) == [False, False, False]   # two fit rows
    assert dead(x, (9, 8)) == [False, True, True]     # two validation rows do not count


def test_dead_cells_match_whole_kernels():
    gammas = [10.0 ** e for e in range(-3, 7)]
    found = set()
    for seed in range(12):
        r = np.random.default_rng(600 + seed)
        n, dim = int(r.integers(6, 40)), int(r.integers(1, 80))
        x = r.standard_normal((n, dim))
        fit = np.sort(r.permutation(n)[:int(r.integers(4, n - 1))])
        val = np.setdiff1d(np.arange(n), fit)
        labels = ["a", "b"] * (len(fit) // 2) + ["a"] * (len(fit) % 2)
        got = next(dead_cells(x, [(fit, labels, val, [(1.0, g) for g in gammas])]))
        want = [split_is_dead(x[fit], x[val], g) for g in gammas]
        assert got.tolist() == want
        found.update(want)
    assert found == {False, True}


@pytest.mark.parametrize("n_classes", [2, 4])
def test_split_and_pair_distances_are_symmetric_with_a_zero_diagonal(n_classes):
    # the solver reads kernel rows as columns and takes K_ii = 1 for every gamma
    r = np.random.default_rng(30 + n_classes)
    labels = ["abcd"[i % n_classes] for i in range(57)]
    x = r.standard_normal((57, 594)) * r.uniform(0.5, 3.0, 594)
    fit, val = np.arange(45), np.arange(45, 57)
    scaler, sq, sq_val = _split_distances(x[fit], x[val])
    assert scaler_bits(scaler) == scaler_bits(fit_standardizer(x[fit]))
    assert sq.shape == (45, 45) and sq_val.shape == (12, 45)
    (_classes, _scaler, pairs), = _fit_splits(x, [(fit, labels[:45], val, [(1.0, 0.1)])], SMO_TOL)
    assert len(pairs) == n_classes * (n_classes - 1) // 2
    for m in [sq] + [p.sq for p in pairs]:
        assert m.tobytes() == m.T.copy().tobytes()
        assert not m.diagonal().any()
    for p in pairs:
        assert p.sq.tobytes() == sq[np.ix_(p.rows, p.rows)].tobytes()
        assert p.sq_val.tobytes() == sq_val[:, p.rows].tobytes()


def underflow_edge(d):
    """The largest gamma whose kernel value exp(-gamma * d) is above 0.0,
    and the next double above it, whose value is 0.0."""
    live, dead = 700.0 / d, 800.0 / d
    while np.nextafter(live, np.inf) < dead:
        mid = 0.5 * (live + dead)
        if mid in (live, dead):
            break
        live, dead = (mid, dead) if np.exp(-mid * d) > 0.0 else (live, mid)
    return live, dead


def pair_kernels_dead(pairs, gamma):
    """Whether every kernel value the solver and the scorer build for the
    pair records at ``gamma`` between distinct rows is exactly 0.0."""
    return all(not np.exp(-gamma * p.sq)[~np.eye(len(p.sq), dtype=bool)].any()
               and not np.exp(-gamma * p.sq_val).any() for p in pairs)


@pytest.mark.parametrize("seed", range(8))
def test_dead_cells_agree_with_the_pair_records_at_the_underflow_edge(seed):
    # the two gammas either side of the last one that leaves a kernel value
    # above 0.0 on the pair records: the dead test must read the very
    # distances the solver and the scorer read, not its own rounding of them
    r = np.random.default_rng(seed)
    k = 2 + seed % 3
    n, dim = int(r.integers(16, 40)), int(r.integers(20, 600))
    labels = ["abcd"[i % k] for i in range(n)]
    x = r.standard_normal((n, dim)) * r.uniform(0.5, 3.0, dim)
    n_fit = n - int(r.integers(3, 8))
    fit, val = np.arange(n_fit), np.arange(n_fit, n)
    (_classes, _scaler, pairs), = _fit_splits(x, [(fit, labels[:n_fit], val, [(1.0, 1.0)])],
                                              SMO_TOL)
    nearest = min(min(p.sq[~np.eye(len(p.sq), dtype=bool)].min(), p.sq_val.min())
                  for p in pairs)
    gammas = [1e-3, *underflow_edge(nearest), 1e6]
    got = next(dead_cells(x, [(fit, labels[:n_fit], val, [(1.0, g) for g in gammas])]))
    assert got.tolist() == [pair_kernels_dead(pairs, g) for g in gammas]
    assert got.tolist() == [False, False, True, True]


def test_grid_validation(rng):
    x, labels = blobs(rng, {"a": (0.0, 0.0), "b": (3.0, 0.0)}, 4)
    with pytest.raises(TrainingError):
        split_predictions(x, labels, x[:2], [(1.0, 1.0), (0.0, 1.0)])
    with pytest.raises(TrainingError, match="rare"):
        split_predictions(x[:5], labels[:4] + ["rare"], x[:2], [(1.0, 1.0)])
    with pytest.raises(TrainingError, match="label count"):
        list(grid_predictions(x, [(np.arange(5), labels[:4], np.arange(2), [(1.0, 1.0)])]))
    assert split_predictions(x, labels, x[:3], []).shape == (0, 3)
    assert list(grid_predictions(x, [])) == []


@pytest.mark.parametrize("c, gamma", [(np.nan, 1.0), (1.0, np.nan), (np.inf, 1.0),
                                      (1.0, np.inf)])
def test_non_finite_c_or_gamma_fails_before_any_solve(c, gamma, rng, monkeypatch):
    x, labels = blobs(rng, {"a": (0.0, 0.0), "b": (3.0, 0.0)}, 4)
    calls = count_solves(monkeypatch)
    with pytest.raises(TrainingError, match="finite and positive"):
        train_binary_smo(x, np.where(np.array(labels) == "a", 1.0, -1.0), c, gamma)
    with pytest.raises(TrainingError, match="finite and positive"):
        train_multiclass(x, labels, c, gamma)
    with pytest.raises(TrainingError, match="finite and positive"):
        split_predictions(x, labels, x[:2], [(1.0, 1.0), (c, gamma)])
    assert calls == []


# ---------------------------------------------------------------------------
# one-vs-one multi-class
# ---------------------------------------------------------------------------


def test_multiclass_three_blobs(rng):
    x, labels = blobs(rng, {"a": (0.0, 0.0), "b": (10.0, 0.0), "c": (0.0, 10.0)}, 30)
    model = train_multiclass(x, labels, 10.0, 1.0)
    got = predict_with_margins(model, x)[0]
    accuracy = np.mean([g == t for g, t in zip(got, labels)])
    assert accuracy >= 0.99


def test_multiclass_machine_count(rng):
    x, labels = blobs(
        rng, {"a": (0, 0), "b": (8, 0), "c": (0, 8), "d": (8, 8)}, 10
    )
    model = train_multiclass(x, labels, 1.0, 0.5)
    assert len(model.machines) == 6
    assert model.classes == ("a", "b", "c", "d")


def test_multiclass_two_class_reduces_to_binary(rng):
    x, labels = blobs(rng, {"neg": (0.0, 0.0), "pos": (3.0, 3.0)}, 15)
    model = train_multiclass(x, labels, 5.0, 0.7)
    scaler = fit_standardizer(x)
    y = np.where(np.array(labels) == "neg", 1.0, -1.0)
    binary = train_binary_smo(scaler.transform(x), y, 5.0, 0.7)
    from_pairs = predict_with_margins(model, x)[0]
    from_binary = ["neg" if f > 0 else "pos" for f in binary.decision_values(scaler.transform(x))]
    assert from_pairs == from_binary


def test_multiclass_small_class_error(rng):
    x = rng.standard_normal((5, 2))
    with pytest.raises(TrainingError, match="rare"):
        train_multiclass(x, ["a", "a", "b", "b", "rare"], 1.0, 1.0)


def test_multiclass_single_class_error(rng):
    with pytest.raises(TrainingError):
        train_multiclass(rng.standard_normal((4, 2)), ["a"] * 4, 1.0, 1.0)


def test_prediction_reorder_invariance(rng):
    x, labels = blobs(rng, {"a": (0.0, 0.0), "b": (4.0, 0.0), "c": (0.0, 4.0)}, 12)
    labels = np.array(labels, dtype=object)
    perm = rng.permutation(len(labels))
    model1 = train_multiclass(x, list(labels), 5.0, 0.5, tol=1e-9)
    model2 = train_multiclass(x[perm], list(labels[perm]), 5.0, 0.5, tol=1e-9)
    probe = rng.standard_normal((20, 2)) * 3.0
    _, m1 = decision_scores(model1, probe)
    _, m2 = decision_scores(model2, probe)
    assert np.allclose(m1, m2, atol=1e-6)
    assert predict_with_margins(model1, probe)[0] == predict_with_margins(model2, probe)[0]


def _constant_machine(bias, dim=2):
    return BinarySvm(
        support_vectors=np.zeros((0, dim)),
        dual_coef=np.zeros(0),
        bias=float(bias),
        c=1.0,
        gamma=1.0,
        alphas=np.zeros(0),
    )


def test_tie_breaks_margin_then_lexicographic():
    scaler = Standardizer(np.zeros(2), np.ones(2))
    # one vote each -> margins all zero -> lexicographic winner "a"
    even = MulticlassSvm(
        ("a", "b", "c"),
        {("a", "b"): _constant_machine(1.0),
         ("a", "c"): _constant_machine(-1.0),
         ("b", "c"): _constant_machine(1.0)},
        scaler, 1.0, 1.0,
    )
    assert predict_with_margins(even, np.zeros((1, 2)))[0] == ["a"]
    # votes tie between a and c, but c accumulates the larger summed margin
    skew = MulticlassSvm(
        ("a", "b", "c"),
        {("a", "b"): _constant_machine(1.0),
         ("a", "c"): _constant_machine(-5.0),
         ("b", "c"): _constant_machine(1.0)},
        scaler, 1.0, 1.0,
    )
    votes, margins = decision_scores(skew, np.zeros((1, 2)))
    assert votes[0].tolist() == [1.0, 1.0, 1.0]
    assert predict_with_margins(skew, np.zeros((1, 2)))[0] == ["c"]


def test_decision_scores_dim_mismatch(rng):
    x, labels = blobs(rng, {"a": (0.0, 0.0), "b": (4.0, 0.0)}, 10)
    model = train_multiclass(x, labels, 1.0, 1.0)
    with pytest.raises(ValueError):
        predict_with_margins(model, rng.standard_normal((2, 3)))
