"""Nested cross-validation, fold construction, metrics, and corpus statistics.

Fold plans are built once (speaker-independent plans never split a speaker
across folds, at either level) and the nested loop selects (C, gamma) on inner
folds only, so outer-test predictions can never influence a decision.  The
bookkeeping that proves that is stored on the report.  The loop first plans
every usable inner split of every outer fold and drops, per fold, the cells
that ``svm.dead_cells`` finds dead in all of its inner splits (every kernel
value between distinct rows underflows to 0.0, so every row gets one class).
It then solves and scores the live cells of every split in one
``svm.grid_predictions`` call (a cells x validation rows prediction matrix per
split, solved in packed runs of whole class pairs, each run closed by the
pair that brings it up to one of the solver's two caps, no per-cell model), and per fold takes the inner UARs from those matrices and selects a
live cell.  A second call fits every outer fold as a one-cell split, trained
on its training rows and scored on its test rows, which gives the fold's
labels, ROC scores and converged flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .arrays import frozen
from .errors import EvaluationError
from .manifest import ManifestRow
from .svm import dead_cells, grid_predictions

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


def _greedy_speaker_assignment(speaker_order, per_speaker_class_counts, classes, k):
    """Assign whole speakers to folds, balancing per-class sample counts.

    Each speaker goes to the fold where adding it gives the smallest
    sum-of-squares class load; ties pick the lowest fold index.
    """
    load = np.zeros((k, len(classes)))
    assignment = {}
    for spk in speaker_order:
        add = per_speaker_class_counts[spk]
        costs = np.sum((load + add[None, :]) ** 2, axis=1)
        fold = int(np.argmin(costs))
        assignment[spk] = fold
        load[fold] += add
    return assignment


def _stratified_assignment(indices, labels, k, rng):
    """Deal each class's shuffled samples round-robin over k folds."""
    assign = {}
    for cl in sorted(set(labels[i] for i in indices)):
        members = [i for i in indices if labels[i] == cl]
        order = [members[j] for j in rng.permutation(len(members))]
        offset = int(rng.integers(k))
        for pos, idx in enumerate(order):
            assign[idx] = (pos + offset) % k
    return assign


def make_folds(rows: Sequence[ManifestRow], mode: str, k_outer: int = 5,
               k_inner: int = 5, seed: int = 0) -> FoldPlan:
    """Build a deterministic nested fold plan over manifest rows (path, speaker, label)."""
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
        speakers = sorted(set(r.speaker for r in rows))
        if len(speakers) < k_outer:
            raise EvaluationError(
                "speaker-independent folding needs >= %d speakers, got %d"
                % (k_outer, len(speakers))
            )
        counts = {
            spk: np.array(
                [sum(1 for r in rows if r.speaker == spk and r.label == cl)
                 for cl in classes],
                dtype=np.float64,
            )
            for spk in speakers
        }
        order = [speakers[i] for i in rng.permutation(len(speakers))]
        outer_by_speaker = _greedy_speaker_assignment(order, counts, classes, k_outer)
        outer = tuple(outer_by_speaker[r.speaker] for r in rows)

        inner = []
        for fold in range(k_outer):
            train_speakers = sorted({r.speaker for r, f in zip(rows, outer) if f != fold})
            if len(train_speakers) < k_inner:
                raise EvaluationError(
                    "outer fold %d leaves %d training speakers; inner folding needs >= %d"
                    % (fold, len(train_speakers), k_inner)
                )
            sub_order = [train_speakers[i] for i in rng.permutation(len(train_speakers))]
            by_speaker = _greedy_speaker_assignment(sub_order, counts, classes, k_inner)
            inner.append(tuple(
                by_speaker[r.speaker] if f != fold else -1
                for r, f in zip(rows, outer)
            ))
    else:
        for cl in classes:
            count = labels.count(cl)
            if count < k_outer:
                raise EvaluationError(
                    "class %r has %d sample(s); speaker-dependent folding needs >= %d"
                    % (cl, count, k_outer)
                )
        outer_map = _stratified_assignment(range(n), labels, k_outer, rng)
        outer = tuple(outer_map[i] for i in range(n))
        inner = []
        for fold in range(k_outer):
            train_idx = [i for i in range(n) if outer[i] != fold]
            inner_map = _stratified_assignment(train_idx, labels, k_inner, rng)
            inner.append(tuple(
                inner_map[i] if outer[i] != fold else -1 for i in range(n)
            ))

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


def nested_cv(rows: Sequence[ManifestRow], x, plan: FoldPlan,
              cells: Sequence[Tuple[float, float]],
              positive_label: Optional[str] = None) -> EvalReport:
    """Run the nested loop of ``plan`` over manifest ``rows``, featured by the
    rows of matrix ``x``, and the (C, gamma) ``cells`` (``config.grid()``).

    Hyperparameters are chosen per outer fold by mean inner-fold UAR (ties:
    the first cell, in C-major order the smallest C, then gamma).  Inner folds
    whose training part lacks a trainable class are skipped.  A cell is dead
    for a fold when ``svm.dead_cells`` finds it dead in every usable inner
    split of the fold: its gamma sends every kernel value between distinct
    rows to exactly 0.0, so it can only give every row one class.  Dead cells
    are not solved and cannot be selected; a cell dead in only some of the
    fold's inner splits is solved and scored in all of them.  A fold whose
    cells are all dead, or that has no usable inner fold, takes the first
    cell, and its outer fit is solved as any other.
    """
    ids = tuple(r.path for r in rows)
    if ids != plan.source_ids:
        raise EvaluationError("sample set does not match the fold plan")
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 2 or x.shape[0] != len(rows):
        raise EvaluationError(
            "feature matrix of shape %s does not match sample count %d" % (x.shape, len(rows))
        )
    if not cells:
        raise EvaluationError("the (C, gamma) cell list is empty")
    labels = np.array([r.label for r in rows], dtype=object)
    classes = tuple(sorted(set(labels.tolist())))
    if len(classes) < 2:
        raise EvaluationError("need at least 2 classes, got %d" % len(classes))
    if positive_label is None and DEFAULT_POSITIVE_LABEL in classes:
        positive_label = DEFAULT_POSITIVE_LABEL
    binary = len(classes) == 2
    if positive_label is not None and positive_label not in classes:
        raise EvaluationError("positive label %r not among classes %s" % (positive_label, classes))
    pos_index = classes.index(positive_label) if (binary and positive_label) else (0 if binary else None)

    outer = np.asarray(plan.outer)
    truth_index = np.array([classes.index(label) for label in labels])
    splits = []  # (outer fold, fit mask, fit labels, validation mask) of each usable inner split
    leakage = []
    for fold in range(plan.k_outer):
        test_mask = outer == fold
        if not test_mask.any() or test_mask.all():
            raise EvaluationError("outer fold %d is degenerate" % fold)
        inner_assign = np.asarray(plan.inner[fold])
        touched_ids = set()
        for inner_fold in range(plan.k_inner):
            val_mask = inner_assign == inner_fold
            fit_mask = (inner_assign != -1) & (inner_assign != inner_fold)
            if not val_mask.any() or not fit_mask.any():
                continue
            fit_labels = labels[fit_mask].tolist()
            if any(fit_labels.count(cl) < 2 for cl in classes):
                continue  # a class is missing or untrainable in this inner split
            touched_ids.update(np.array(ids)[val_mask | fit_mask].tolist())
            splits.append((fold, fit_mask, fit_labels, val_mask))

        test_ids = set(np.array(ids)[test_mask].tolist())
        overlap = touched_ids & test_ids
        if overlap:
            raise EvaluationError(
                "leakage: %d outer-test sample(s) touched by inner decisions" % len(overlap)
            )
        leakage.append((len(touched_ids), len(test_ids), 0))

    dead = np.ones((plan.k_outer, len(cells)), dtype=bool)  # dead in every usable inner split
    for (fold, *_split), split_dead in zip(splits, dead_cells(
            x, [(fit, fit_labels, val, cells) for _f, fit, fit_labels, val in splits])):
        dead[fold] &= split_dead
    live = [np.flatnonzero(~fold_dead) for fold_dead in dead]
    solved = [split for split in splits if live[split[0]].size]
    # every class is in each inner split's fit rows, so indices refer to ``classes``
    inner_guesses = [guesses for _classes, guesses, _margins, _ok in grid_predictions(
        x, [(fit, fit_labels, val, [cells[k] for k in live[f]])
            for f, fit, fit_labels, val in solved])]
    chosen = []
    for fold, fold_live in enumerate(live):
        uars = [_inner_uars(truth_index[val], guesses)
                for (f, _fit, _labels, val), guesses in zip(solved, inner_guesses) if f == fold]
        # first best live cell: smallest C, then gamma; with none, the first cell
        chosen.append(cells[fold_live[int(np.argmax(np.mean(uars, axis=0)))]] if uars
                      else cells[0])

    test_masks = [outer == fold for fold in range(plan.k_outer)]
    outer_fits = grid_predictions(x, [(~test, labels[~test].tolist(), test, [cell])
                                      for test, cell in zip(test_masks, chosen)])
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
