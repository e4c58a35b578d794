"""Nested cross-validation, fold construction, metrics, and corpus statistics.

Fold plans are built once, by one assignment rule per mode that deals the
outer folds over all rows and each fold's inner folds over its training rows
(speaker-independent plans never split a speaker across folds, at either
level), and the nested loop selects (C, gamma) on inner folds only, so
outer-test predictions can never influence a decision.  The bookkeeping that
proves that is stored on the report.  ``task_classes`` decides whether a task
can be evaluated at all (two classes or more, a positive label among them):
``emovox evaluate`` asks it of the manifest before extracting, and
``nested_cv`` of the rows it is given.  One
``svm.grid_predictions`` stream solves and scores every usable inner split
of every outer fold (a cells x validation rows prediction matrix per split,
no per-cell model) in packed runs of whole class pairs, each pair one chain
per gamma through its C values in ascending order, each C warm-started from
the one before.  A split is its fit labels, cells and ``svm.split_distances``
matrices.  On reaching a fold the stream makes each of its splits' matrices
once: ``svm.dead_cells`` reads them for the cells dead in all the fold's
splits (every kernel value between distinct rows is at most 1e-20, so the
machines' biases give every row one class), and the splits hand them on with
the live cells.  Each fold selects a live cell by its inner UARs.  A second
stream fits each outer fold as a one-cell split, a lone cold solve, making
its matrices on reaching it: the fold's labels, ROC scores and converged flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .arrays import frozen
from .errors import EvaluationError
from .manifest import ManifestRow
from .svm import dead_cells, grid_predictions, split_distances

SPEAKER_INDEPENDENT = "speaker_independent"
SPEAKER_DEPENDENT = "speaker_dependent"
MODES = (SPEAKER_INDEPENDENT, SPEAKER_DEPENDENT)

DEFAULT_POSITIVE_LABEL = "dissatisfied"


@dataclass(frozen=True)
class FoldPlan:
    """Outer assignment per row plus, per outer fold, an inner assignment
    over that fold's training rows (-1 marks rows outside it)."""

    mode: str
    k_outer: int
    k_inner: int
    source_ids: tuple
    outer: tuple
    inner: tuple
    seed: int


class Metrics(NamedTuple):
    uar: float
    acc: float
    sen: Optional[float]
    spe: Optional[float]


@dataclass(frozen=True)
class FoldOutcome:
    fold: int
    c: float
    gamma: float
    confusion: np.ndarray
    uar: float
    acc: float
    sen: Optional[float]
    spe: Optional[float]
    test_count: int
    converged: bool

    def __post_init__(self):
        object.__setattr__(self, "confusion", frozen(self.confusion, np.int64))


@dataclass(frozen=True)
class EvalReport:
    classes: tuple
    mode: str
    seed: int
    folds: tuple
    mean_uar: float
    mean_acc: float
    positive_label: Optional[str]
    roc_points: Optional[tuple]
    auc: Optional[float]
    leakage: tuple


# ---------------------------------------------------------------------------
# fold construction
# ---------------------------------------------------------------------------


def make_folds(rows: Sequence[ManifestRow], mode: str, k_outer: int = 5,
               k_inner: int = 5, seed: int = 0) -> FoldPlan:
    """Build a deterministic nested fold plan over manifest rows (path, speaker,
    label): one rule per mode deals the outer folds over all rows, then each
    outer fold's inner folds over its training rows."""
    if mode not in MODES:
        raise EvaluationError("unknown mode %r; expected one of %s" % (mode, MODES))
    if k_outer < 2 or k_inner < 2:
        raise EvaluationError("fold counts must be at least 2")
    ids = [r.path for r in rows]
    if len(set(ids)) != len(ids):
        raise EvaluationError("duplicate source ids in sample set")
    if not rows:
        raise EvaluationError("empty sample set")
    labels = [r.label for r in rows]
    classes = sorted(set(labels))
    rng = np.random.default_rng(seed)
    n = len(rows)

    if mode == SPEAKER_INDEPENDENT:
        speakers = [r.speaker for r in rows]
        counts = {}  # each speaker's rows per class
        for spk, cl in zip(speakers, labels):
            counts.setdefault(spk, np.zeros(len(classes)))[classes.index(cl)] += 1

        def assign(indices, k, too_few):
            # whole speakers, shuffled, each to the fold where it gives the
            # smallest sum-of-squares class load (ties: the lowest fold)
            present = sorted({speakers[i] for i in indices})
            if len(present) < k:
                raise EvaluationError(too_few.format(n=len(present), k=k))
            load = np.zeros((k, len(classes)))
            fold_of = {}
            for j in rng.permutation(len(present)):
                add = counts[present[j]]
                fold = int(np.argmin(np.sum((load + add) ** 2, axis=1)))
                fold_of[present[j]] = fold
                load[fold] += add
            return {i: fold_of[speakers[i]] for i in indices}
    else:
        for cl in classes:
            if labels.count(cl) < k_outer:
                raise EvaluationError("class %r has %d sample(s); speaker-dependent folding "
                                      "needs >= %d" % (cl, labels.count(cl), k_outer))

        def assign(indices, k, _too_few):
            # each class's rows, shuffled, dealt round-robin from a random fold
            fold_of = {}
            for cl in sorted({labels[i] for i in indices}):
                members = [i for i in indices if labels[i] == cl]
                order = rng.permutation(len(members))
                offset = int(rng.integers(k))
                for pos, j in enumerate(order):
                    fold_of[members[j]] = (pos + offset) % k
            return fold_of

    outer_map = assign(range(n), k_outer,
                       "speaker-independent folding needs >= {k} speakers, got {n}")
    outer = tuple(outer_map[i] for i in range(n))
    inner = []
    for fold in range(k_outer):
        inner_map = assign([i for i in range(n) if outer[i] != fold], k_inner,
                           "outer fold %d leaves {n} training speakers; inner folding needs >= {k}"
                           % fold)
        inner.append(tuple(inner_map.get(i, -1) for i in range(n)))
    return FoldPlan(mode, k_outer, k_inner, tuple(ids), outer, tuple(inner), seed)


# ---------------------------------------------------------------------------
# metrics, ROC, statistical tests
# ---------------------------------------------------------------------------


def metrics(confusion, positive_index: Optional[int] = 0) -> Metrics:
    """UAR/ACC from a rows-are-truth confusion matrix; SEN/SPE only for 2x2."""
    m = np.asarray(confusion, dtype=np.float64)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or m.size == 0:
        raise EvaluationError("confusion matrix must be square and non-empty")
    if np.any(m < 0):
        raise EvaluationError("confusion matrix has negative counts")
    total = float(m.sum())
    if total == 0:
        raise EvaluationError("confusion matrix is all zeros")
    row_sums = m.sum(axis=1)
    present = row_sums > 0
    recalls = np.diag(m)[present] / row_sums[present]
    uar = float(np.mean(recalls))
    acc = float(np.trace(m) / total)
    sen = spe = None
    if m.shape[0] == 2 and positive_index in (0, 1):
        pos, neg = positive_index, 1 - positive_index
        sen = float(m[pos, pos] / row_sums[pos]) if row_sums[pos] > 0 else None
        spe = float(m[neg, neg] / row_sums[neg]) if row_sums[neg] > 0 else None
    return Metrics(uar, acc, sen, spe)


def roc_curve(scores, labels) -> Tuple[tuple, float]:
    """Threshold sweep over descending scores; AUC by trapezoid.

    There is one point per distinct score (0.0 and -0.0 are one score), each
    the false and true positive rates of the rows scoring at least it, after
    a first point at (0, 0); the last point is (1, 1).
    """
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    if s.shape != y.shape or s.ndim != 1:
        raise EvaluationError("scores and labels must be matching 1-D sequences")
    if np.isnan(s).any():
        raise EvaluationError("ROC scores must not be NaN")
    n_pos = int(y.sum())
    n_neg = int((~y).sum())
    if n_pos == 0 or n_neg == 0:
        raise EvaluationError("ROC needs both classes present")
    order = np.argsort(-s)
    desc = s[order]
    tp = np.cumsum(y[order])
    fp = np.arange(1, s.size + 1) - tp
    # each distinct score's last row in descending order
    last = np.flatnonzero(np.append(desc[1:] != desc[:-1], True))
    fpr = np.concatenate(([0.0], fp[last] / n_neg))
    tpr = np.concatenate(([0.0], tp[last] / n_pos))
    auc = float(np.trapezoid(tpr, fpr))
    return tuple(zip(fpr.tolist(), tpr.tolist())), auc


def _log_beta_half(a: float) -> float:
    """ln B(a, 1/2).  From a = 25 on, lgamma(a) - lgamma(a + 1/2) would lose
    up to 1e-12 to cancellation, so the difference comes from Stirling's
    series instead, to about 1e-15."""
    if a < 25.0:
        return math.lgamma(a) + math.lgamma(0.5) - math.lgamma(a + 0.5)

    def series(z):
        z2 = z * z
        return (1 / 12 - (1 / 360 - (1 / 1260 - (1 / 1680 - 1 / (1188 * z2)) / z2) / z2) / z2) / z

    shift = a * math.log1p(0.5 / a) - 0.5 + 0.5 * math.log(a) + series(a + 0.5) - series(a)
    return 0.5 * math.log(math.pi) - shift


def _incomplete_beta(a: float, b: float, x: float) -> float:
    """Regularised incomplete beta I_x(a, b), one of a and b being 1/2, for
    x < (a + 1) / (a + b + 2), where its continued fraction converges fast;
    evaluated by the modified Lentz method (Press et al., Numerical Recipes,
    2nd ed., section 6.4)."""
    tiny = 1e-300
    c, d = 1.0, 1.0 - (a + b) * x / (a + 1.0)
    d = 1.0 / (d if abs(d) > tiny else tiny)
    frac = d
    for m in range(1, 10_000):
        for coef in (m * (b - m) * x / ((a + 2 * m - 1.0) * (a + 2 * m)),
                     -(a + m) * (a + b + m) * x / ((a + 2 * m) * (a + 2 * m + 1.0))):
            d = 1.0 + coef * d
            d = 1.0 / (d if abs(d) > tiny else tiny)
            c = 1.0 + coef / c
            c = c if abs(c) > tiny else tiny
            frac *= d * c
        if abs(d * c - 1.0) <= 1e-16:
            break
    front = a * math.log(x) + b * math.log1p(-x) - _log_beta_half(max(a, b))
    return math.exp(front) * frac / a


def _student_t_sf(t: float, df: float) -> float:
    """Upper-tail probability of Student's t: half of I_x(df/2, 1/2) at
    x = df / (df + t^2), or of one minus its mirror I_(1-x)(1/2, df/2)
    where that converges faster (always near t = 0)."""
    a = 0.5 * df
    x = df / (df + t * t)
    if t == 0.0:
        tail = 0.5
    elif x < (a + 1.0) / (a + 2.5):
        tail = 0.5 * _incomplete_beta(a, 0.5, x)
    else:
        tail = 0.5 - 0.5 * _incomplete_beta(0.5, a, t * t / (df + t * t))
    return tail if t >= 0 else 1.0 - tail


def welch_t_test(a, b) -> Tuple[float, float]:
    """Welch's unequal-variance t statistic and two-sided p-value."""
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    if av.size < 2 or bv.size < 2:
        raise EvaluationError("each group needs at least 2 values")
    if not (np.all(np.isfinite(av)) and np.all(np.isfinite(bv))):
        raise EvaluationError("values must be finite")
    va = float(av.var(ddof=1))
    vb = float(bv.var(ddof=1))
    if va == 0.0 or vb == 0.0:
        raise EvaluationError("degenerate (zero-variance) group")
    na, nb = av.size, bv.size
    sa, sb = va / na, vb / nb
    t = (float(av.mean()) - float(bv.mean())) / np.sqrt(sa + sb)
    df = (sa + sb) ** 2 / (sa ** 2 / (na - 1) + sb ** 2 / (nb - 1))
    p = min(2.0 * _student_t_sf(abs(t), df), 1.0)
    return float(t), float(p)


def chi_square_independence(table) -> Tuple[float, float]:
    """Pearson chi-square on a 2x2 table, df=1.

    p is the regularized upper incomplete gamma Q(1/2, chi2/2), which for
    one degree of freedom is erfc(sqrt(chi2/2)).
    """
    o = np.asarray(table, dtype=np.float64)
    if o.shape != (2, 2) or not np.all((o >= 0) & (o < np.inf)):
        raise EvaluationError("expected a finite, non-negative 2x2 table")
    rows = o.sum(axis=1)
    cols = o.sum(axis=0)
    if np.any(rows == 0) or np.any(cols == 0):
        raise EvaluationError("zero marginal in contingency table")
    expected = np.outer(rows, cols) / o.sum()
    chi2 = float(((o - expected) ** 2 / expected).sum())
    p = math.erfc(math.sqrt(0.5 * chi2))
    return chi2, p


# ---------------------------------------------------------------------------
# nested cross-validation
# ---------------------------------------------------------------------------


def _confusion(classes, truth, predicted):
    index = {cl: i for i, cl in enumerate(classes)}
    m = np.zeros((len(classes), len(classes)), dtype=np.int64)
    for t, p in zip(truth, predicted):
        m[index[t], index[p]] += 1
    return m


def _inner_uars(truth, guesses):
    """UAR of each row of ``guesses`` (cells, rows) against ``truth`` (rows),
    both class indices: recall averaged over the classes present in truth."""
    present, counts = np.unique(truth, return_counts=True)
    hits = np.stack([np.count_nonzero(guesses[:, truth == cl] == cl, axis=1)
                     for cl in present], axis=1)
    return np.mean(hits / counts, axis=1)


def task_classes(labels, positive_label: Optional[str] = None) -> Tuple[tuple, Optional[str]]:
    """The sorted classes of a task over ``labels`` and its positive label.

    A task needs at least two classes.  A given ``positive_label`` must be
    one of them; without one, ``dissatisfied`` is positive when it is a class.
    """
    classes = tuple(sorted(set(labels)))
    if len(classes) < 2:
        raise EvaluationError("need at least 2 classes, got %d" % len(classes))
    if positive_label is None:
        return classes, DEFAULT_POSITIVE_LABEL if DEFAULT_POSITIVE_LABEL in classes else None
    if positive_label not in classes:
        raise EvaluationError("positive label %r not among classes %s" % (positive_label, classes))
    return classes, positive_label


def nested_cv(rows: Sequence[ManifestRow], x, plan: FoldPlan,
              cells: Sequence[Tuple[float, float]],
              positive_label: Optional[str] = None) -> EvalReport:
    """Run the nested loop of ``plan`` over manifest ``rows``, featured by the
    rows of matrix ``x``, and the (C, gamma) ``cells`` (``config.grid()``).

    Hyperparameters are chosen per outer fold by mean inner-fold UAR (ties:
    the first cell, in C-major order the smallest C, then gamma).  Inner folds
    whose training part lacks a trainable class are skipped.  A cell is dead
    for a fold when ``svm.dead_cells`` finds it dead in every usable inner
    split of the fold, on the distances its pairs then solve on: its gamma
    leaves every kernel value between distinct rows at or below 1e-20, so it
    can only give every row one class, its machines' biases deciding.  Dead
    cells are not solved and cannot be selected; a cell dead in only some of
    the fold's inner splits is solved and scored in all of them.  A fold
    whose cells are all dead, or that has no usable inner fold, takes the
    first cell, and its outer fit is solved as any other.
    """
    ids = tuple(r.path for r in rows)
    if ids != plan.source_ids:
        raise EvaluationError("sample set does not match the fold plan")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != len(rows):
        raise EvaluationError(
            "feature matrix of shape %s does not match sample count %d" % (x.shape, len(rows))
        )
    if not np.all(np.isfinite(x)):
        raise EvaluationError("feature values must be finite")
    if not cells:
        raise EvaluationError("the (C, gamma) cell list is empty")
    labels = np.array([r.label for r in rows], dtype=object)
    classes, positive_label = task_classes(labels.tolist(), positive_label)
    binary = len(classes) == 2
    pos_index = classes.index(positive_label or classes[0]) if binary else None

    outer = np.asarray(plan.outer)
    id_array = np.array(ids)
    truth_index = np.array([classes.index(label) for label in labels])
    usable = []  # per outer fold: (fit mask, fit labels, validation mask) per usable inner split
    test_masks, leakage = [], []
    for fold in range(plan.k_outer):
        test_mask = outer == fold
        if not test_mask.any() or test_mask.all():
            raise EvaluationError("outer fold %d is degenerate" % fold)
        test_masks.append(test_mask)
        inner_assign = np.asarray(plan.inner[fold])
        in_inner = inner_assign != -1
        fold_splits = []
        for inner_fold in range(plan.k_inner):
            val_mask = inner_assign == inner_fold
            fit_mask = in_inner & ~val_mask
            fit_labels = labels[fit_mask].tolist()
            # usable when it validates some rows and fits >= 2 rows of every class
            if val_mask.any() and all(fit_labels.count(cl) >= 2 for cl in classes):
                fold_splits.append((fit_mask, fit_labels, val_mask))
        usable.append(fold_splits)
        # every usable split touches all of the fold's inner rows
        touched_ids = set(id_array[in_inner].tolist()) if fold_splits else set()
        test_ids = set(id_array[test_mask].tolist())
        overlap = touched_ids & test_ids
        if overlap:
            raise EvaluationError(
                "leakage: %d outer-test sample(s) touched by inner decisions" % len(overlap)
            )
        leakage.append((len(touched_ids), len(test_ids), 0))

    gammas = np.array([g for _c, g in cells], dtype=np.float64)
    live = {}  # each fold's cells that are not dead in every usable inner split
    streamed = []  # (fold, validation mask) of each split the inner stream yields

    def inner_stream():
        for fold, fold_splits in enumerate(usable):
            made = [split_distances(x[fit], x[val])[1:] for fit, _labels, val in fold_splits]
            dead = np.all([dead_cells(sq, sq_val, gammas) for sq, sq_val in made], axis=0)
            live[fold] = [cells[k] for k in np.flatnonzero(~dead)] if made else []
            for _fit, fit_labels, val in fold_splits if live[fold] else ():
                streamed.append((fold, val))
                yield fit_labels, live[fold], *made.pop(0)  # then held by its pairs alone

    uars = [[] for _fold in usable]
    # every class is in each inner split's fit rows, so indices refer to ``classes``
    for i, (_classes, guesses, _margins, _ok) in enumerate(grid_predictions(inner_stream())):
        fold, val = streamed[i]
        uars[fold].append(_inner_uars(truth_index[val], guesses))
    # first best live cell: smallest C, then gamma; with none, the first cell
    chosen = [live[fold][int(np.argmax(np.mean(fold_uars, axis=0)))] if fold_uars else cells[0]
              for fold, fold_uars in enumerate(uars)]

    # each fold's matrices made as the stream reaches it, so one fold's at a time
    outer_fits = grid_predictions((labels[~test].tolist(), [cell],
                                   *split_distances(x[~test], x[test])[1:])
                                  for test, cell in zip(test_masks, chosen))
    folds, pooled_scores, pooled_truth = [], [], []
    for fold, ((c_win, g_win), test_mask, (fit_classes, guesses, margins, converged)) in enumerate(
            zip(chosen, test_masks, outer_fits)):
        confusion = _confusion(classes, labels[test_mask].tolist(),
                               [fit_classes[i] for i in guesses[0]])
        folds.append(FoldOutcome(fold, c_win, g_win, confusion,
                                 *metrics(confusion, positive_index=pos_index),
                                 test_count=int(test_mask.sum()), converged=bool(converged[0])))
        if binary:  # both classes are in the fit rows, so margins are ordered like ``classes``
            pooled_scores.extend(margins[0, :, pos_index].tolist())
            pooled_truth.extend((labels[test_mask] == classes[pos_index]).tolist())

    roc_points = auc = None
    if binary and pooled_scores:
        roc_points, auc = roc_curve(pooled_scores, pooled_truth)

    return EvalReport(
        classes=classes,
        mode=plan.mode,
        seed=plan.seed,
        folds=tuple(folds),
        mean_uar=float(np.mean([f.uar for f in folds])),
        mean_acc=float(np.mean([f.acc for f in folds])),
        positive_label=classes[pos_index] if pos_index is not None else None,
        roc_points=roc_points,
        auc=auc,
        leakage=tuple(leakage),
    )


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def format_report(report: EvalReport) -> str:
    """Key-value text document with one nested block per outer fold.

    It holds no timings, so same-seed runs serialize byte-identically.
    """
    lines = [
        "mode: %s" % report.mode,
        "seed: %d" % report.seed,
        "classes: %s" % ",".join(report.classes),
        "k_outer: %d" % len(report.folds),
        "mean_uar: %r" % report.mean_uar,
        "mean_acc: %r" % report.mean_acc,
    ]
    if report.positive_label is not None:
        lines.append("positive_label: %s" % report.positive_label)
    if report.auc is not None:
        lines.append("auc: %r" % report.auc)
    for fold, audit in zip(report.folds, report.leakage):
        lines.append("fold %d:" % fold.fold)
        lines.append("  c: %r" % fold.c)
        lines.append("  gamma: %r" % fold.gamma)
        lines.append("  uar: %r" % fold.uar)
        lines.append("  acc: %r" % fold.acc)
        if fold.sen is not None:
            lines.append("  sen: %r" % fold.sen)
        if fold.spe is not None:
            lines.append("  spe: %r" % fold.spe)
        lines.append("  test_count: %d" % fold.test_count)
        lines.append("  inner_ids: %d" % audit[0])
        lines.append("  leaked_ids: %d" % audit[2])
        lines.append("  converged: %s" % fold.converged)
        for row in np.asarray(fold.confusion):
            lines.append("  confusion_row: %s" % ",".join(str(int(v)) for v in row))
    return "\n".join(lines) + "\n"


def fold_metrics_csv(report: EvalReport) -> str:
    """Flat per-fold metrics table."""
    out = ["fold,c,gamma,uar,acc,sen,spe,test_count"]
    for f in report.folds:
        out.append("%d,%r,%r,%r,%r,%s,%s,%d" % (
            f.fold, f.c, f.gamma, f.uar, f.acc,
            "" if f.sen is None else repr(f.sen),
            "" if f.spe is None else repr(f.spe),
            f.test_count,
        ))
    return "\n".join(out) + "\n"


def roc_csv(report: EvalReport) -> str:
    if report.roc_points is None:
        raise EvaluationError("report has no ROC data (not a binary task)")
    out = ["fpr,tpr"]
    for fpr, tpr in report.roc_points:
        out.append("%r,%r" % (fpr, tpr))
    return "\n".join(out) + "\n"
