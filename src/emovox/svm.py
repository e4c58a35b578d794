"""Soft-margin RBF-kernel SVM trained by sequential minimal optimization.

The solver keeps the full kernel matrix in memory and updates the
maximal-violating pair each step (Fan, Chen & Lin, JMLR 2005).  It runs
packed: one loop advances many independent duals of different sizes, each
with its own labels, kernel, box bound C and pass limit, and takes for each
exactly the steps a lone solve would.  One path fits every multi-class SVM:
``_fit_splits`` turns (fit rows, fit labels, validation rows, (C, gamma)
cells) splits into a stream of class pairs (``_Pair``), one dual per cell
each, which ``_solve_pairs`` packs into runs of whole pairs, a run closing
with the pair that brings it up to one of two caps (so it may pass a cap by
that pair).  ``_split_distances`` standardizes a split on its fit rows and
makes its squared distances: fit x fit, exactly symmetric with a zero
diagonal, and validation x fit.  ``_fit_splits`` calls it once per split and
every pair solves and scores on its slice; ``dead_cells`` calls it again
(nested CV standardizes each inner split twice) to find the cells whose
gamma leaves no kernel value between distinct rows above 0.0.
``train_multiclass`` is one split of every row and one cell;
``grid_predictions`` scores many splits' held-out rows with all their cells
at once: the inner grid of nested CV, and its outer fits as one-cell
splits.  Multi-class is one-vs-one with majority voting; ties fall back to
summed decision margins, then lexicographic class order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, NamedTuple, Optional, Tuple

import numpy as np

from .arrays import frozen
from .errors import TrainingError

STD_FLOOR = 1e-8
SMO_TOL = 1e-3
_BOUND_EPS = 1e-12
_PACK_FLOATS = 2 ** 21  # floats of stacked kernels one packed solve holds (16 MB)
_PACK_CELLS = 2 ** 14   # problems x n_max of one packed solve's working arrays
_MOVE_SIGN = np.array([[1.0], [-1.0]])  # alpha_i moves by +y_i * step, alpha_j by -y_j * step


@dataclass(frozen=True)
class Standardizer:
    """Per-dimension z-score parameters with the std floored at 1e-8.  A
    dimension at the floor, constant on the fit rows, transforms to 0.0."""

    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        m = frozen(self.mean).ravel()
        s = frozen(self.std).ravel()
        if m.shape != s.shape:
            raise ValueError("mean/std length mismatch")
        if not (np.all(np.isfinite(m)) and np.all(np.isfinite(s))):
            raise ValueError("mean and std must be finite")
        if np.any(s < STD_FLOOR * (1.0 - 1e-12)):
            raise ValueError("std below the %g floor" % STD_FLOOR)
        object.__setattr__(self, "mean", m)
        object.__setattr__(self, "std", s)

    def transform(self, x) -> np.ndarray:
        z = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if z.shape[1] != self.mean.shape[0]:
            raise ValueError(
                "feature dim %d does not match fitted dim %d" % (z.shape[1], self.mean.shape[0])
            )
        return np.where(self.std > STD_FLOOR, (z - self.mean) / self.std, 0.0)


def fit_standardizer(x) -> Standardizer:
    """Fit z-score parameters; call with training rows only."""
    z = np.atleast_2d(np.asarray(x, dtype=np.float64))
    if z.size == 0:
        raise ValueError("cannot standardize an empty matrix")
    return Standardizer(z.mean(axis=0), np.maximum(z.std(axis=0), STD_FLOOR))


def _sq_distances(a, b):
    """Squared Euclidean distances between the rows of ``a`` and ``b``, floored
    at 0.  When ``b`` is ``a``: exactly symmetric if ``a`` has a unit-stride
    axis, as NumPy then takes ``a @ a.T`` from one triangle (BLAS syrk) and
    mirrors it, and with the diagonal, where rounding leaves up to 1e-12, set
    to 0.0, so that K_ii = 1 for every gamma (the ``_smo_batch`` contract)."""
    sq = np.sum(a ** 2, axis=1)[:, None] + np.sum(b ** 2, axis=1)[None, :] - 2.0 * (a @ b.T)
    if b is a:
        np.fill_diagonal(sq, 0.0)
    return np.maximum(sq, 0.0)


def _split_distances(xm, x_val):
    """The standardizer fitted on a split's fit rows ``xm`` and the squared
    distances, one product each, of the rows it standardizes: fit x fit and
    validation ``x_val`` x fit, which the dead-cell test and every pair read."""
    scaler = fit_standardizer(xm)
    z = scaler.transform(xm)
    return scaler, _sq_distances(z, z), _sq_distances(scaler.transform(x_val), z)


@dataclass(frozen=True)
class BinarySvm:
    """RBF SVM decision function f(x) = sum_i coef_i k(sv_i, x) + bias.

    ``alphas`` keeps the full dual vector in training order so optimality
    conditions can be audited after the fact.
    """

    support_vectors: np.ndarray
    dual_coef: np.ndarray
    bias: float
    c: float
    gamma: float
    converged: bool = True
    alphas: np.ndarray = None

    def __post_init__(self):
        sv, coef = self.support_vectors, self.dual_coef
        if sv.ndim != 2 or coef.shape != (sv.shape[0],):
            raise ValueError("support vectors must be 2-D, with one dual coefficient each")
        if not (np.all(np.isfinite(sv)) and np.all(np.isfinite(coef)) and np.isfinite(self.bias)):
            raise ValueError("support vectors, dual coefficients and bias must be finite")
        if not (0.0 < self.c < np.inf and 0.0 < self.gamma < np.inf):
            raise ValueError("C and gamma must be finite and positive")

    def decision_values(self, x) -> np.ndarray:
        z = np.atleast_2d(np.asarray(x, dtype=np.float64))
        if z.shape[1] != self.support_vectors.shape[1]:
            raise ValueError(
                "feature dim %d does not match model dim %d"
                % (z.shape[1], self.support_vectors.shape[1])
            )
        k = np.exp(-self.gamma * _sq_distances(z, self.support_vectors))
        return k @ self.dual_coef + self.bias


def _masked(a, viol, top, eps, pos):
    """``viol`` masked to the up set (else -inf) and to the low set (else +inf)."""
    below_c = a < top
    above_0 = a > eps
    flip = pos & (below_c ^ above_0)  # up is below_c where pos, else above_0; low the other
    return np.where(above_0 ^ flip, viol, -np.inf), np.where(below_c ^ flip, viol, np.inf)


def _smo_batch(kernels, kernel_index, y, c, tol, max_passes):
    """Maximal-violating-pair SMO on many independent duals in one loop.

    Problem r has labels ``y[r]``, +1 or -1 and then 0 on the padding that
    ends every shorter row, box bound ``c[r]``, pass limit ``max_passes[r]``
    and kernel ``kernels[kernel_index[r]]``: symmetric, zero on padded rows
    and columns and 1.0 on the rest of the diagonal, as is every kernel on
    ``_sq_distances`` of rows to themselves, so a step's curvature K_ii + K_jj
    - 2 K_ji is 2.0 - 2.0 K_ji, bit for bit.  A padded entry is in neither
    the up nor the low set, so its alpha stays 0, and as padding comes last
    each row takes a lone solve's steps: the same first-index pair, clipping
    and gradient update, in the same floating-point order.  A row stops when
    it has no violating pair or a gap of at most ``tol``, and is unconverged
    if still running after its pass limit.  Returns the clipped alphas and
    converged flags.

    The violation -y * gradient and its masked copies persist, stacked as
    one array, updated from the two changed kernel columns as in LIBSVM
    (Chang & Lin, 2011), and only the two moved entries are re-masked: the
    bits of recomputing them each pass.  A pass reads and writes single
    entries by flat index (row r's entry i at r * n + i) and gathers both
    kernel columns of every row with one ``take`` from the kernels viewed as
    (kernels * n, n) rows: a symmetric kernel's rows are its columns.
    """
    c = np.asarray(c, dtype=np.float64)
    cells, n = y.shape
    limit = np.asarray(max_passes)
    alpha = np.zeros((cells, n))
    converged = np.zeros(cells, dtype=bool)
    # Working arrays hold only the rows still iterating.
    rows = np.arange(cells)
    a = np.zeros((cells, n))
    box = c
    eps = _BOUND_EPS * (1.0 + c)
    top = c - eps
    v = np.empty((3, cells, n))  # -y * gradient (the gradient starting at -1), up and low copies
    v[0] = y
    # a padded alpha is never below its top, so padding is in neither set
    v[1], v[2] = _masked(a, y, np.where(y != 0.0, top[:, None], 0.0), eps[:, None], y > 0)
    columns = kernels.reshape(-1, n)
    kid = np.asarray(kernel_index) * n  # each row's first kernel row in ``columns``
    soonest = limit.min(initial=0)  # no row expires before this pass
    size = cells * n  # entries of the rows still running; row r starts at r * n
    starts, up_low = np.arange(0, size, n), np.array([[size], [2 * size]])
    for t in range(int(limit.max(initial=0))):
        ij = np.array((v[1].argmax(axis=1), v[2].argmin(axis=1)))
        at = ij + starts
        ends = v.take(at + up_low)
        gap = ends[0] - ends[1]  # -inf when the up or the low set is empty
        stop = gap <= tol
        if t >= soonest:
            expired = limit <= t
            stop |= expired
        if stop.any():
            done = stop & ~expired if t >= soonest else stop
            alpha[rows[stop]] = a[stop]
            converged[rows[done]] = True
            keep = ~stop
            if not keep.any():
                break
            rows, a, box, eps, top, y, kid, limit, gap = (
                w.compress(keep, axis=0) for w in (rows, a, box, eps, top, y, kid, limit, gap))
            v, ij = v.compress(keep, axis=1), ij.compress(keep, axis=1)
            soonest = limit.min()
            size = rows.size * n
            starts, up_low = np.arange(0, size, n), np.array([[size], [2 * size]])
            at = ij + starts
        cols = columns.take(kid + ij, axis=0)  # kernel columns i and j of every row
        curv = 2.0 - 2.0 * cols[1].take(at[0])  # K_ii + K_jj - 2 K_ji, K_ii = K_jj = 1
        curv = np.where(1e-12 > curv, 1e-12, curv)
        step = gap / curv
        yy = y.take(at)
        aa = a.take(at)
        sy = _MOVE_SIGN * yy
        # min/max as Python's builtins take them, operand order included
        room = np.where(sy > 0, box - aa, aa)
        step = np.where(room[0] < step, room[0], step)
        step = np.where(room[1] < step, room[1], step)
        step = np.where(0.0 > step, 0.0, step)
        aa += sy * step
        a.reshape(-1)[at] = aa
        delta = np.subtract(cols[0], cols[1], out=cols[0])
        delta *= step[:, None]
        v -= delta
        flat = v.reshape(-1)
        flat[at + size], flat[at + 2 * size] = _masked(aa, v.take(at), top, eps, yy > 0)
    else:
        alpha[rows] = a
    return np.clip(alpha, 0.0, c[:, None]), converged


def _biases(alpha, fvals, yv, c):
    """Each row's bias from its solved dual ``alpha`` (cells, n), row r with
    box bound ``c[r]`` and training decision values ``fvals`` = coef @ K
    without bias: the mean of u = y - f over its free vectors, else the
    midpoint of its up and low bounds, 0 standing in for an empty set."""
    c = c[:, None]
    eps = _BOUND_EPS * (1.0 + c)
    u = yv - fvals
    free = (alpha > eps) & (alpha < c - eps)
    n_free = free.sum(axis=1)
    free_mean = np.where(free, u, 0.0).sum(axis=1) / np.maximum(n_free, 1)
    vu, vl = _masked(alpha, u, c - eps, eps, yv > 0)
    hi, lo = vu.max(axis=1), vl.min(axis=1)
    mid = 0.5 * (np.where(hi > -np.inf, hi, 0.0) + np.where(lo < np.inf, lo, 0.0))
    return np.where(n_free > 0, free_mean, mid)


class _Gammas(NamedTuple):
    """The gammas of a (cells, 2) array of (c, gamma) rows."""

    values: np.ndarray  # the distinct gammas, ascending
    index: np.ndarray   # each cell's gamma, as an index into ``values``
    order: np.ndarray   # the cells grouped by gamma, in order within each group
    edges: np.ndarray   # gamma g's group is order[edges[g]:edges[g + 1]]


def _by_gamma(cells) -> _Gammas:
    """The gammas of ``cells``, grouped."""
    values, index = np.unique(cells[:, 1], return_inverse=True)
    order = np.argsort(index, kind="stable")
    return _Gammas(values, index, order, np.searchsorted(index[order], np.arange(values.size + 1)))


class _Pair(NamedTuple):
    """Class pair (a, b) of one split: its inputs, and its outputs per (c, gamma)
    cell of the split, which ``_solve_pairs`` and ``_fit_splits`` fill in place."""

    split: int             # the split's index in its stream
    pair: Tuple            # (a, b)
    rows: np.ndarray       # the split's fit rows of class a or b, a mask
    yv: np.ndarray         # their labels: +1 for a, -1 for b
    sq: np.ndarray         # their slice of the split's fit x fit squared distances
    sq_val: np.ndarray     # and of its validation x fit ones
    cells: np.ndarray      # the split's (cells, 2) array of (c, gamma) rows
    by_g: _Gammas          # their gammas, grouped
    alphas: np.ndarray     # (cells, rows), clipped to each cell's box
    converged: np.ndarray  # (cells,)
    bias: np.ndarray       # (cells,)
    decision: np.ndarray   # (cells, validation rows), bias included


def _cell_products(p: _Pair, kernels):
    """Per cell of ``p``, its coefficients alpha * y times ``kernels[g]``, g
    the index of its gamma: one product per gamma over all its cells."""
    coef = (p.alphas * p.yv)[p.by_g.order]
    grouped = np.empty((coef.shape[0], kernels.shape[2]))
    for g, (lo, hi) in enumerate(zip(p.by_g.edges, p.by_g.edges[1:])):
        np.matmul(coef[lo:hi], kernels[g], out=grouped[lo:hi])
    out = np.empty_like(grouped)
    out[p.by_g.order] = grouped
    return out


def _solve_pairs(pairs, tol):
    """Solve every (c, gamma) cell of every ``_Pair`` of ``pairs``, pass
    limit 10 * n, fill in its alphas, converged flags and biases, and yield
    the pairs in order, each with a lone solve's alphas and converged flags.

    Whole pairs go to ``_smo_batch`` in runs, in stream order, all cells of
    a pair in one run.  A run closes with the pair that brings its problems
    x n_max up to ``_PACK_CELLS`` or its stacked kernels, one per gamma of
    each pair and n_max**2 floats each, up to ``_PACK_FLOATS``, so a run may
    pass a cap by its last pair; a pair that reaches a cap on its own is a
    run by itself.  Each pair's kernels are stacked once, and its biases
    come from them, one ``exp`` over all its gammas.
    """
    def full(problems, n_max, kernels):
        return problems * n_max >= _PACK_CELLS or kernels * n_max * n_max >= _PACK_FLOATS

    def solve(run):
        n_max = max(p.yv.size for p in run)
        first = np.cumsum([0] + [p.by_g.values.size for p in run])
        stacked = np.zeros((first[-1], n_max, n_max))
        labels = np.zeros((len(run), n_max))
        for k, p in enumerate(run):
            labels[k, :p.yv.size] = p.yv
            stacked[first[k]:first[k + 1], :p.yv.size, :p.yv.size] = np.exp(
                -p.by_g.values[:, None, None] * p.sq)
        edges = np.cumsum([0] + [len(p.cells) for p in run])
        slot = np.repeat(np.arange(len(run)), np.diff(edges))
        alpha, converged = _smo_batch(
            stacked, np.concatenate([first[k] + p.by_g.index for k, p in enumerate(run)]),
            labels[slot], np.concatenate([p.cells[:, 0] for p in run]), tol,
            10 * np.count_nonzero(labels, 1)[slot])
        for k, p in enumerate(run):
            n = p.yv.size
            p.alphas[:] = alpha[edges[k]:edges[k + 1], :n]
            p.converged[:] = converged[edges[k]:edges[k + 1]]
            fvals = _cell_products(p, stacked[first[k]:first[k + 1], :n, :n])
            p.bias[:] = _biases(p.alphas, fvals, p.yv, p.cells[:, 0])
        return run

    run, problems, n_max, kernels = [], 0, 0, 0
    for p in pairs:
        size = (len(p.cells), p.yv.size, p.by_g.values.size)
        if run and full(*size):
            yield from solve(run)
            run, problems, n_max, kernels = [], 0, 0, 0
        run.append(p)
        problems, n_max, kernels = problems + size[0], max(n_max, size[1]), kernels + size[2]
        if full(problems, n_max, kernels):
            yield from solve(run)
            run, problems, n_max, kernels = [], 0, 0, 0
    if run:
        yield from solve(run)


def _binary_svm(xm, yv, alpha, bias, c, gamma, converged) -> BinarySvm:
    """The machine of one solved dual (``alpha`` already clipped): its
    support vectors, their signed coefficients and ``bias``."""
    kept = alpha > 0.0
    return BinarySvm(xm[kept].copy(), (alpha * yv)[kept], float(bias), float(c), float(gamma),
                     bool(converged), frozen(alpha))


def train_binary_smo(x, y, c: float, gamma: float, tol: float = SMO_TOL,
                     max_passes: Optional[int] = None) -> BinarySvm:
    """Solve the soft-margin dual by maximal-violating-pair SMO.

    If the violation gap is still above ``tol`` after ``max_passes`` pair
    updates (default 10 * n), the best-effort model is returned with
    ``converged`` False.  This is the one-problem case of the packed solver
    behind ``train_multiclass`` and ``grid_predictions``.
    """
    xm = np.atleast_2d(np.ascontiguousarray(x, dtype=np.float64))  # so k is symmetric
    yv = np.asarray(y, dtype=np.float64).ravel()
    n = xm.shape[0]
    if yv.shape[0] != n:
        raise TrainingError("label count does not match sample count")
    if not np.all(np.isin(yv, (-1.0, 1.0))):
        raise TrainingError("binary labels must be -1 or +1")
    if np.unique(yv).size < 2:
        raise TrainingError("training data needs rows of both classes")
    if not (0.0 < c < np.inf and 0.0 < gamma < np.inf):
        raise TrainingError("C and gamma must be finite and positive")
    if max_passes is None:
        max_passes = 10 * n

    k = np.exp(-gamma * _sq_distances(xm, xm))
    alpha, converged = _smo_batch(k[None], [0], yv[None], [float(c)], tol, [max_passes])
    bias = _biases(alpha, (alpha * yv) @ k, yv, np.array([float(c)]))
    return _binary_svm(xm, yv, alpha[0], bias[0], c, gamma, converged[0])


@dataclass(frozen=True)
class MulticlassSvm:
    """One-vs-one ensemble with a shared train-fitted standardizer."""

    classes: tuple
    machines: Dict[Tuple, BinarySvm]
    standardizer: Standardizer
    c: float
    gamma: float

    def __post_init__(self):
        if len(self.classes) < 2 or list(self.classes) != sorted(set(self.classes)):
            raise ValueError("classes must be at least two, sorted and distinct")
        if set(self.machines) != set(itertools.combinations(self.classes, 2)):
            raise ValueError("machines must be keyed by exactly the class pairs")
        if any(m.support_vectors.shape[1] != self.standardizer.mean.size
               for m in self.machines.values()):
            raise ValueError("machine width does not match the standardizer")

    @property
    def converged(self) -> bool:
        return all(m.converged for m in self.machines.values())


def trainable_classes(labels) -> list:
    """Sorted classes of ``labels``, at least two of at least two rows each."""
    lab = list(labels)
    classes = sorted(set(lab))
    if len(classes) < 2:
        raise TrainingError("need at least 2 classes, got %d" % len(classes))
    for cl in classes:
        if lab.count(cl) < 2:
            raise TrainingError("class %r has %d sample(s); need at least 2" % (cl, lab.count(cl)))
    return classes


def _fit_splits(x, splits, tol):
    """Per (fit rows, fit labels, validation rows, (C, gamma) cells) split of
    ``x``, its classes, the standardizer fitted on its fit rows and a solved
    ``_Pair`` per class pair, a < b, with +1 for a: ``train_multiclass(x[fit],
    labels, c, gamma, tol)``'s alphas and converged flags for every cell,
    biases equal to rounding, and its pair machines' ``decision_values`` on
    ``x[val]``.  All splits' pairs, their rows' slices of the split's
    ``_split_distances``, stream through ``_solve_pairs``, built as it reads
    them; a pair's validation decisions come once its run's stacked kernels
    are freed, from one ``exp`` over all its gammas."""
    x = np.asarray(x, dtype=np.float64)
    fitted = {}  # each split's classes and standardizer, until its pairs are solved

    def pairs():
        for s, (fit, labels, val, cells) in enumerate(splits):
            cells = np.array(cells, dtype=np.float64).reshape(-1, 2)
            if not np.all((cells > 0) & (cells < np.inf)):
                raise TrainingError("C and gamma must be finite and positive")
            xm = np.atleast_2d(x[fit])
            lab = list(labels)
            if len(lab) != xm.shape[0]:
                raise TrainingError("label count does not match sample count")
            classes = tuple(trainable_classes(lab))
            scaler, sq, sq_val = _split_distances(xm, x[val])
            fitted[s] = classes, scaler
            by_g, m, lab_arr = _by_gamma(cells), len(cells), np.array(lab, dtype=object)
            for a, b in itertools.combinations(classes, 2):
                rows = (lab_arr == a) | (lab_arr == b)
                yield _Pair(s, (a, b), rows, np.where(lab_arr[rows] == a, 1.0, -1.0),
                            sq[np.ix_(rows, rows)], sq_val[:, rows], cells, by_g,
                            np.zeros((m, lab_arr[rows].size)), np.zeros(m, dtype=bool),
                            np.zeros(m), np.empty((m, sq_val.shape[0])))
            del sq, sq_val  # the pairs hold their slices; free the split's matrices

    for s, solved in itertools.groupby(_solve_pairs(pairs(), tol), key=lambda p: p.split):
        solved = list(solved)
        for p in solved:
            kernels = np.exp(-p.by_g.values[:, None, None] * p.sq_val).transpose(0, 2, 1)
            np.add(_cell_products(p, kernels), p.bias[:, None], out=p.decision)
        yield (*fitted.pop(s), solved)


def train_multiclass(x, labels, c: float, gamma: float, tol: float = SMO_TOL) -> MulticlassSvm:
    """Train k(k-1)/2 pairwise machines on standardized features.

    In each pairwise machine the lexicographically smaller class takes the +1
    side.  This is ``_fit_splits`` on one split, every row and one cell, with
    no validation rows: all pairs are solved together, each on its slice of
    the split's distances, so with two classes the machine is
    ``train_binary_smo`` of the split, bit for bit.
    """
    (classes, scaler, pairs), = _fit_splits(x, [(slice(None), labels, slice(0), [(c, gamma)])],
                                            tol)
    z = scaler.transform(x)
    machines = {p.pair: _binary_svm(z[p.rows], p.yv, p.alphas[0], p.bias[0], c, gamma,
                                    p.converged[0]) for p in pairs}
    return MulticlassSvm(classes, machines, scaler, float(c), float(gamma))


def dead_cells(x, splits):
    """Per (fit rows, fit labels, validation rows, (C, gamma) cells) split of
    ``x``, a bool array (cells,): True for a cell whose gamma sends every
    kernel value between two distinct rows of the split, fit x fit and
    validation x fit, to exactly 0.0: its pair machines decide by their
    biases alone, so it gives every row one class and ranks nothing.  As exp
    is monotone, a gamma is dead when its kernel value at the smallest
    off-diagonal distance of ``_split_distances``, the distances every
    pair's solve and scores read, is 0.0."""
    x = np.asarray(x, dtype=np.float64)
    for fit, _labels, val, cells in splits:
        _scaler, sq, sq_val = _split_distances(np.atleast_2d(x[fit]), x[val])
        np.fill_diagonal(sq, np.inf)  # each fit row's distance to itself
        nearest = min(sq.min(), sq_val.min(initial=np.inf))
        del sq, sq_val  # before the next split's matrices are built
        gammas = np.array(cells, dtype=np.float64).reshape(-1, 2)[:, 1]
        yield np.exp(-gammas * nearest) == 0.0


def grid_predictions(x, splits, tol: float = SMO_TOL):
    """Per (fit rows, fit labels, validation rows, (C, gamma) cells) split
    of ``x``, yield its classes ``sorted(set(labels))``, an int array (cells,
    validation rows) of indices into them, the summed margins (cells,
    validation rows, classes) and the converged flags (cells,): row r is
    ``predict_with_margins`` and ``converged`` of ``train_multiclass(x[fit],
    labels, *cells[r], tol)`` on ``x[val]``, the margins equal to rounding,
    except where a vote hangs on a pair decision value that is zero to
    rounding (duplicate rows of different labels, a gamma that no kernel
    value survives), whose sign may differ.  ``_winners`` picks from all
    cells' summed votes and margins at once.  Every cell listed is solved, a
    dead one (see ``dead_cells``) included; nested CV leaves those out."""
    for classes, _scaler, pairs in _fit_splits(x, splits, tol):
        votes, margins = _tally(classes, pairs[0].decision.shape,
                                ((p.pair, p.decision) for p in pairs))
        yield classes, _winners(votes, margins), margins, np.all(
            [p.converged for p in pairs], axis=0)


def _tally(classes, shape, decisions):
    """Per-class vote counts and summed signed margins, each of ``shape``
    plus a last axis ordered like ``classes``, from ((a, b), f) pairs in
    which f > 0 is a vote for a and f <= 0 one for b."""
    votes = np.zeros(shape + (len(classes),))
    margins = np.zeros_like(votes)
    index = {cl: i for i, cl in enumerate(classes)}
    for (a, b), f in decisions:
        ia, ib = index[a], index[b]
        margins[..., ia] += f
        margins[..., ib] -= f
        votes[..., ia] += f > 0
        votes[..., ib] += f <= 0
    return votes, margins


def decision_scores(model: MulticlassSvm, x) -> Tuple[np.ndarray, np.ndarray]:
    """Per-class vote counts and summed signed margins, ordered like model.classes."""
    z = model.standardizer.transform(x)
    return _tally(model.classes, (z.shape[0],),
                  ((pair, m.decision_values(z)) for pair, m in model.machines.items()))


def _winners(votes, margins) -> np.ndarray:
    """Winning class index along the last axis: the most votes, then the
    largest summed margin among those, then the first class in order."""
    most = votes == votes.max(axis=-1, keepdims=True)
    return np.where(most, margins, -np.inf).argmax(axis=-1)


def predict_with_margins(model: MulticlassSvm, x) -> Tuple[list, np.ndarray]:
    """Majority vote, ties resolved by summed margin, then class order, and
    the summed margins of ``decision_scores``, from one scoring pass over ``x``."""
    votes, margins = decision_scores(model, x)
    return [model.classes[i] for i in _winners(votes, margins)], margins
