"""Soft-margin RBF-kernel SVM trained by sequential minimal optimization.

The solver keeps the full kernel matrix in memory and updates the
maximal-violating pair each step (Fan, Chen & Lin, JMLR 2005).  It runs
packed: one loop advances many independent chains of duals of different
sizes, each chain with its own labels, kernel and pass limit and its box
bounds C in ascending order.  A chain's first dual is a lone cold solve,
step for step; each later one starts warm from the dual before it (alpha
seeding, DeCoste & Wagstaff, KDD 2000), and a chain restarts in place as
each dual stops.  As with LIBSVM's precomputed kernels (Chang & Lin, 2011),
the fit path sees distances, not rows: a split is (fit labels, (C, gamma)
cells, sq, sq_val), ``split_distances``'s fit x fit (exactly symmetric, zero
diagonal) and validation x fit matrices of rows standardized on its fit
rows.  ``_fit_splits`` turns splits into a stream of class pairs
(``_Pair``), one chain per gamma each, each holding its split's matrices, no
copy; ``_solve_pairs`` packs them into runs of whole pairs, a run closing
with the pair that brings it up to one of two caps (so it may pass a cap by
that pair), and yields each pair solved and scored, without the matrices.
A one-cell split is a chain of one, solved cold.  ``train_multiclass`` is
one split of every row and one cell; ``grid_predictions`` scores many
splits' validation rows with all their cells at once: the inner grid of
nested CV, and its outer fits as one-cell splits.  ``dead_cells`` reads a
split's matrices for the cells whose gamma leaves no kernel value between
distinct rows above ``_DEAD_KERNEL``.  Multi-class is one-vs-one with
majority voting; ties fall back to summed decision margins, then
lexicographic class order.
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
_PACK_CELLS = 2 ** 14   # chains x n_max of one packed solve's working arrays
# a kernel value at or below this between distinct rows moves a decision by at
# most n * C * 1e-20, far below SMO_TOL (see ``dead_cells``)
_DEAD_KERNEL = 1e-20
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


def split_distances(x_fit, x_val):
    """The standardizer fitted on a split's fit rows ``x_fit`` and the squared
    distances, one product each, of the rows it standardizes: fit x fit and
    validation ``x_val`` x fit, which the dead-cell test and every pair read."""
    scaler = fit_standardizer(x_fit)
    z = scaler.transform(x_fit)
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


def _smo_batch(kernels, y, c, ends, tol, max_passes, out, slot):
    """Maximal-violating-pair SMO on many independent chains of duals in one loop.

    Row r has labels ``y[r]``, +1 or -1 and then 0 on the padding that ends
    every shorter row, kernel ``kernels[r]`` and pass limit
    ``max_passes[r]``: the kernel symmetric, zero on padded rows and columns
    and 1.0 on the rest of the diagonal, as is every kernel on
    ``_sq_distances`` of rows to themselves, so a step's curvature K_ii +
    K_jj - 2 K_ji is 2.0 - 2.0 K_ji, bit for bit.  Its chain is the cells q
    from ``ends[r - 1]`` (0 for row 0) up to ``ends[r]``, at least one, with
    box bounds ``c[q]`` ascending, solved in turn.  The first cell starts
    cold, at alpha = 0; each next one starts where the last one stopped,
    converged or not (alpha seeding, DeCoste & Wagstaff, KDD 2000): its
    alphas kept if any is free in the last box, else scaled by s = C_k /
    C_(k-1), which scales the kernel part of the gradient too, so the
    violation becomes y + s (v - y) with no kernel product.  Both starts are
    feasible.  A cell stops when it has no violating pair or a gap of at
    most ``tol``, and is unconverged if still running ``max_passes[r]``
    passes after its start.  Its alphas, clipped to its box, go to row
    ``slot[q]`` of ``out`` (cells, n), and the row restarts in place at its
    next cell, which takes its first pair the next pass (the row steps by
    zero meanwhile).  A padded entry is in neither the up nor the low set,
    so its alpha stays exactly 0, and as padding comes last each cell takes
    a lone solve's steps from its start: the same first-index pair, clipping
    and gradient update, in the same floating-point order.  Returns the
    converged flags (cells,), cell q's at ``slot[q]`` like its alphas.

    The violation -y * gradient and its masked copies persist, stacked as
    one array, updated from the two changed kernel columns as in LIBSVM
    (Chang & Lin, 2011), and only the two moved entries are re-masked: the
    bits of recomputing them each pass.  A pass reads and writes single
    entries by flat index (row r's entry i at r * n + i) and gathers both
    kernel columns of every row with one ``take`` from the kernels viewed as
    (kernels * n, n) rows: a symmetric kernel's rows are its columns.
    """
    c = np.asarray(c, dtype=np.float64)
    ends, slot = np.asarray(ends), np.asarray(slot)
    converged = np.zeros(c.size, dtype=bool)
    rows, n = y.shape
    if not rows:
        return converged
    # Working arrays hold only the rows still iterating.
    cell = np.concatenate(([0], ends[:-1]))  # each row's current cell
    last = ends - 1
    limit = np.asarray(max_passes)
    deadline = limit.copy()  # the pass at which each row's current cell expires
    a = np.zeros((rows, n))
    box = c[cell]
    eps = _BOUND_EPS * (1.0 + box)
    top = box - eps
    v = np.empty((3, rows, n))  # -y * gradient (the gradient starting at -1), up and low copies
    v[0] = y
    # a padded alpha is never below its top, so padding is in neither set
    v[1], v[2] = _masked(a, y, np.where(y != 0.0, top[:, None], 0.0), eps[:, None], y > 0)
    columns = kernels.reshape(-1, n)
    kid = np.arange(0, rows * n, n)  # each row's first kernel row in ``columns``
    soonest = deadline.min()  # no cell expires before this pass
    size = rows * n  # entries of the rows still running; row r starts at r * n
    starts, up_low = np.arange(0, size, n), np.array([[size], [2 * size]])
    for t in itertools.count():
        ij = np.array((v[1].argmax(axis=1), v[2].argmin(axis=1)))
        best = v.take(ij + starts + up_low)
        gap = best[0] - best[1]  # -inf when the up or the low set is empty
        stop = gap <= tol
        if t >= soonest:
            stop |= deadline <= t
        if stop.any():
            s = np.flatnonzero(stop)
            q = cell[s]
            converged[slot[q]] = deadline[s] > t
            out[slot[q]] = np.clip(a[s], 0.0, box[s, None])
            more = q < last[s]
            s = s[more]
            if s.size:
                # each row of ``s`` restarts at its next cell from the hybrid seed;
                # its first pair comes next pass, so this pass it takes a zero step
                cell[s] += 1
                was, now = box[s], c[cell[s]]
                y_s, v_s, a_s = y[s], v[0, s], a[s]
                free = ((a_s > eps[s, None]) & (a_s < top[s, None])).any(axis=1)[:, None]
                scale = (now / was)[:, None]
                a[s] = a_s = np.where(free, a_s, a_s * scale)
                v[0, s] = v_s = np.where(free, v_s, y_s + scale * (v_s - y_s))
                box[s], eps[s] = now, _BOUND_EPS * (1.0 + now)
                top[s] = now - eps[s]
                v[1, s], v[2, s] = _masked(
                    a_s, v_s, np.where(y_s != 0.0, top[s, None], 0.0), eps[s, None], y_s > 0)
                deadline[s] = t + 1 + limit[s]
                gap[s] = 0.0
                stop[s] = False
            if not more.all():
                keep = ~stop
                if not keep.any():
                    break
                a, box, eps, top, y, kid, limit, deadline, cell, last, gap = (
                    w.compress(keep, axis=0)
                    for w in (a, box, eps, top, y, kid, limit, deadline, cell, last, gap))
                v, ij = v.compress(keep, axis=1), ij.compress(keep, axis=1)
                size = cell.size * n
                starts, up_low = np.arange(0, size, n), np.array([[size], [2 * size]])
            soonest = deadline.min()
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
    return converged


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
    order: np.ndarray   # the cells grouped by gamma, each group by ascending C, ties in order
    edges: np.ndarray   # gamma g's group, its chain of C values, is order[edges[g]:edges[g + 1]]


def _by_gamma(cells) -> _Gammas:
    """The gammas of ``cells``, grouped."""
    values, index = np.unique(cells[:, 1], return_inverse=True)
    order = np.lexsort((cells[:, 0], index))
    return _Gammas(values, order, np.searchsorted(index[order], np.arange(values.size + 1)))


class _Pair(NamedTuple):
    """Class pair (a, b) of one split: its inputs, holding the split's fit
    distances until its kernels are stacked and its validation ones until
    ``_solve_pairs`` yields it with its outputs per (c, gamma) cell of the
    split instead; its alphas view its run's output."""

    split: int             # the split's index in its stream
    pair: Tuple            # (a, b)
    rows: np.ndarray       # the split's fit rows of class a or b, a mask
    yv: np.ndarray         # their labels: +1 for a, -1 for b
    cells: np.ndarray      # the split's (cells, 2) array of (c, gamma) rows
    by_g: _Gammas          # their gammas, grouped
    sq: Optional[np.ndarray]      # the split's fit x fit squared distances, block [rows][:, rows]
    sq_val: Optional[np.ndarray]  # and its validation x fit ones, columns [:, rows]
    alphas: Optional[np.ndarray] = None     # (cells, rows), clipped to each cell's box
    converged: Optional[np.ndarray] = None  # (cells,)
    bias: Optional[np.ndarray] = None       # (cells,)
    decision: Optional[np.ndarray] = None   # (cells, validation rows), bias included


def _cell_products(by_g: _Gammas, coef, kernels):
    """Per cell, its row of ``coef`` (cells, n) times ``kernels[g]``, g the
    index of its gamma in ``by_g``: one product per gamma over all its cells."""
    coef = coef[by_g.order]
    grouped = np.empty((coef.shape[0], kernels.shape[2]))
    for g, (lo, hi) in enumerate(zip(by_g.edges, by_g.edges[1:])):
        np.matmul(coef[lo:hi], kernels[g], out=grouped[lo:hi])
    out = np.empty_like(grouped)
    out[by_g.order] = grouped
    return out


def _solve_pairs(pairs, tol):
    """Solve every (c, gamma) cell of every ``_Pair`` of ``pairs``, pass
    limit 10 * n, and yield the pairs in order, each with its alphas,
    converged flags, biases and validation decision values and without its
    split's matrices.

    A pair is one chain per gamma, its cells of that gamma by ascending C
    (see ``_smo_batch``), so the first cell of a chain has a lone solve's
    alphas and converged flag and each later one the warm-started solve's.
    Whole pairs go to ``_smo_batch`` in runs, in stream order, all chains of
    a pair in one run.  A run closes with the pair that brings its chains x
    n_max up to ``_PACK_CELLS`` or its stacked kernels, one per chain and
    n_max**2 floats each, up to ``_PACK_FLOATS``, so a run may pass a cap by
    its last pair; a pair that reaches a cap on its own is a run by itself.
    Each pair's kernels are stacked once, one ``exp`` over all its gammas of
    its block of the split's fit x fit distances, which it then lets go of,
    and its alphas are a row slice of the run's output.  Every pair of a run
    takes its biases from the stacked kernels, which are then freed, and each
    pair is scored as it is yielded, by one ``exp`` over all its gammas of its
    columns of the split's validation distances.
    """
    def full(chains, n_max):
        return chains * n_max >= _PACK_CELLS or chains * n_max * n_max >= _PACK_FLOATS

    def solve(run):
        n_max = max(p.yv.size for p in run)
        first = np.cumsum([0] + [p.by_g.values.size for p in run])  # each pair's first chain
        edges = np.cumsum([0] + [len(p.cells) for p in run])        # and its first cell
        stacked = np.zeros((first[-1], n_max, n_max))
        labels = np.zeros((first[-1], n_max))
        for k, p in enumerate(run):
            n = p.yv.size
            labels[first[k]:first[k + 1], :n] = p.yv
            stacked[first[k]:first[k + 1], :n, :n] = np.exp(
                -p.by_g.values[:, None, None] * p.sq[np.ix_(p.rows, p.rows)])
            run[k] = p._replace(sq=None)  # its kernels stacked, it lets go of the fit distances
        del p
        alphas = np.empty((edges[-1], n_max))
        converged = _smo_batch(
            stacked, labels,
            np.concatenate([p.cells[p.by_g.order, 0] for p in run]),
            np.concatenate([edges[k] + p.by_g.edges[1:] for k, p in enumerate(run)]), tol,
            10 * np.count_nonzero(labels, 1), alphas,
            np.concatenate([edges[k] + p.by_g.order for k, p in enumerate(run)]))
        solved = []  # each pair's alphas and biases
        for k, p in enumerate(run):
            n = p.yv.size
            a = alphas[edges[k]:edges[k + 1], :n]
            fvals = _cell_products(p.by_g, a * p.yv, stacked[first[k]:first[k + 1], :n, :n])
            solved.append((a, _biases(a, fvals, p.yv, p.cells[:, 0])))
        del stacked
        for k, (p, (a, bias)) in enumerate(zip(run, solved)):
            kernels = np.exp(-p.by_g.values[:, None, None] * p.sq_val[:, p.rows])
            yield p._replace(sq_val=None, alphas=a,
                             converged=converged[edges[k]:edges[k + 1]], bias=bias,
                             decision=_cell_products(p.by_g, a * p.yv, kernels.transpose(0, 2, 1))
                             + bias[:, None])

    run, chains, n_max = [], 0, 0
    for p in pairs:
        size = (p.by_g.values.size, p.yv.size)
        if run and full(*size):
            yield from solve(run)
            run, chains, n_max = [], 0, 0
        run.append(p)
        chains, n_max = chains + size[0], max(n_max, size[1])
        del p  # the run alone holds it
        if full(chains, n_max):
            yield from solve(run)
            run, chains, n_max = [], 0, 0
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
    ``converged`` False.  This is the one-cell chain of the packed solver
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
    alpha = np.zeros((1, n))
    converged = _smo_batch(k[None], yv[None], [float(c)], [1], tol, [max_passes], alpha, [0])
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


def _fit_splits(splits, tol):
    """Per (fit labels, (C, gamma) cells, sq, sq_val) split, ``sq`` and
    ``sq_val`` its ``split_distances``, its classes and a solved ``_Pair``
    per class pair, a < b, with +1 for a: alphas and converged flags for
    every cell from its chain (``_solve_pairs``; a chain's first cell has
    ``train_multiclass``'s on the split's fit rows), biases, and its pair
    machines' decision values on the validation rows.  All splits' pairs,
    holding their split's matrices, stream through ``_solve_pairs``, built
    as it reads them, and a split is yielded once its last pair is solved."""
    classes_of = {}  # each split's classes, until its pairs are solved

    def pairs():
        for s, (labels, cells, sq, sq_val) in enumerate(splits):
            cells = np.array(cells, dtype=np.float64).reshape(-1, 2)
            if not np.all((cells > 0) & (cells < np.inf)):
                raise TrainingError("C and gamma must be finite and positive")
            lab = list(labels)
            if len(lab) != sq.shape[0]:
                raise TrainingError("label count does not match sample count")
            classes_of[s] = classes = tuple(trainable_classes(lab))
            by_g, lab = _by_gamma(cells), np.array(lab, dtype=object)
            for a, b in itertools.combinations(classes, 2):
                rows = (lab == a) | (lab == b)
                yield _Pair(s, (a, b), rows, np.where(lab[rows] == a, 1.0, -1.0), cells, by_g,
                            sq, sq_val)
            del sq, sq_val  # the pairs alone hold the split's matrices

    split = []
    for p in _solve_pairs(pairs(), tol):
        split.append(p)
        if p.pair == classes_of[p.split][-2:]:  # the split's last pair
            del p  # the split lives on in what is yielded alone
            yield classes_of.pop(split[0].split), split
            split = []


def train_multiclass(x, labels, c: float, gamma: float, tol: float = SMO_TOL) -> MulticlassSvm:
    """Train k(k-1)/2 pairwise machines on standardized features.

    In each pairwise machine the lexicographically smaller class takes the +1
    side.  Feature values must be finite.  This is ``_fit_splits`` on one
    split, ``split_distances(x, x[:0])``, every row and one cell: all pairs
    are solved together, each on its block of the split's distances, so with
    two classes the machine is ``train_binary_smo`` of the split, bit for bit.
    """
    x = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(x)):
        raise TrainingError("feature values must be finite")
    scaler, sq, sq_val = split_distances(x, x[:0])
    split = iter([(labels, [(c, gamma)], sq, sq_val)])  # let go of once read
    del sq, sq_val  # so its pairs alone hold the matrices
    (classes, pairs), = _fit_splits(split, tol)
    z = scaler.transform(x)
    machines = {p.pair: _binary_svm(z[p.rows], p.yv, p.alphas[0], p.bias[0], c, gamma,
                                    p.converged[0]) for p in pairs}
    return MulticlassSvm(classes, machines, scaler, float(c), float(gamma))


def dead_cells(sq, sq_val, gammas):
    """For a split's ``split_distances`` ``sq`` (fit x fit) and ``sq_val``
    (validation x fit), a bool array like ``gammas``: True for a gamma that
    leaves every kernel value between two distinct rows of the split at or
    below ``_DEAD_KERNEL``.  A pair machine's decision is its bias plus
    sum_i alpha_i y_i k_i with 0 <= alpha_i <= C, so such kernel values move
    it by at most n * C * 1e-20: 1e-12 at 10**4 rows and the grid's largest
    C, 10**4, nine orders below ``SMO_TOL``, the accuracy to which the
    solver fixes the bias.  A vote can differ from the bias's sign only
    where the bias is that close to 0, as in an exactly balanced pair, and
    it then rests on terms far below the solver's accuracy; so the cell is
    taken to give every row one class and to rank nothing.  As exp is
    monotone, a gamma is dead when its kernel value at the smallest
    off-diagonal distance of the two matrices, read in place, is at most
    ``_DEAD_KERNEL``."""
    n = sq.shape[0]
    # sq flat from its second entry, as n - 1 rows of n + 1 that each end on the diagonal
    off_diagonal = sq.reshape(-1)[1:].reshape(n - 1, n + 1)[:, :n]
    nearest = min(off_diagonal.min(initial=np.inf), sq_val.min(initial=np.inf))
    return np.exp(-np.asarray(gammas, dtype=np.float64) * nearest) <= _DEAD_KERNEL


def grid_predictions(splits, tol: float = SMO_TOL):
    """Per (fit labels, (C, gamma) cells, sq, sq_val) split (``_fit_splits``),
    yield its classes ``sorted(set(labels))``, an int array (cells,
    validation rows) of indices into them, the summed margins (cells,
    validation rows, classes) and the converged flags (cells,).  For the
    first cell of each chain (its gamma's smallest C), row r is
    ``predict_with_margins`` and ``converged`` of ``train_multiclass`` on
    the split's fit rows with ``cells[r]`` and ``tol``, on its validation
    rows, the margins equal to rounding, except where a vote hangs on a pair
    decision value that is zero to rounding (duplicate rows of different
    labels, a gamma that no kernel value survives), whose sign may differ.
    Every later cell of a chain is solved warm from the cell before it (see
    ``_smo_batch``), so its machines meet the same tolerance as a lone
    solve's but are not its bits.  ``_winners`` picks from all cells' summed
    votes and margins at once.  Every cell listed is solved, a dead one (see
    ``dead_cells``) included; nested CV leaves those out."""
    for classes, pairs in _fit_splits(splits, tol):
        votes, margins = _tally(classes, pairs[0].decision.shape,
                                ((p.pair, p.decision) for p in pairs))
        converged = np.all([p.converged for p in pairs], axis=0)
        del pairs  # before the next split's runs are solved
        yield classes, _winners(votes, margins), margins, converged


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
