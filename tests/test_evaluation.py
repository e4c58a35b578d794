"""Fold construction, nested CV, metrics, ROC, and statistical-test checks."""

import math
import sys

import numpy as np
import pytest
from scipy.integrate import quad

from emovox.config import ExperimentConfig
from emovox.errors import EvaluationError
from emovox.evaluation import (
    SPEAKER_DEPENDENT,
    SPEAKER_INDEPENDENT,
    FoldPlan,
    _student_t_sf,
    chi_square_independence,
    fold_metrics_csv,
    format_report,
    make_folds,
    metrics,
    nested_cv,
    roc_csv,
    roc_curve,
    task_classes,
    welch_t_test,
)
from emovox.manifest import ManifestRow


def blob_dataset(rng, class_names=("a", "b", "c"), n_per=30, sep=10.0, sigma=0.5,
                 n_speakers=10):
    centers = {
        name: (math.cos(2 * math.pi * i / len(class_names)) * sep,
               math.sin(2 * math.pi * i / len(class_names)) * sep)
        for i, name in enumerate(class_names)
    }
    samples, feats = [], []
    for name in class_names:
        for j in range(n_per):
            feats.append(np.asarray(centers[name]) + rng.standard_normal(2) * sigma)
            samples.append(ManifestRow(
                path="%s%02d" % (name, j),
                label=name,
                speaker="spk%d" % (j % n_speakers),
            ))
    return samples, np.array(feats)


SMALL_GRID = [(1.0, 0.1), (1.0, 1.0), (10.0, 0.1), (10.0, 1.0)]


# ---------------------------------------------------------------------------
# fold plans
# ---------------------------------------------------------------------------


def test_ten_equal_speakers_two_per_fold():
    samples = [
        ManifestRow("u%d_%d" % (spk, i), "x", "spk%d" % spk)
        for spk in range(10) for i in range(3)
    ]
    plan = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=3)
    by_fold = {}
    for s, f in zip(samples, plan.outer):
        by_fold.setdefault(f, set()).add(s.speaker)
    assert sorted(by_fold) == [0, 1, 2, 3, 4]
    assert all(len(spks) == 2 for spks in by_fold.values())


def test_speaker_never_split_property():
    for seed in range(30):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 60))
        samples = [
            ManifestRow("id%d" % i, speaker="spk%d" % int(rng.integers(8)),
                        label=("p", "q")[int(rng.integers(2))])
            for i in range(n)
        ]
        if len({s.speaker for s in samples}) < 4:
            continue
        plan = make_folds(samples, SPEAKER_INDEPENDENT, 4, 3, seed=seed)
        outer_of = {}
        for s, f in zip(samples, plan.outer):
            assert outer_of.setdefault(s.speaker, f) == f
        for fold in range(4):
            inner_of = {}
            for s, f, g in zip(samples, plan.outer, plan.inner[fold]):
                if f == fold:
                    assert g == -1
                else:
                    assert 0 <= g < 3
                    assert inner_of.setdefault(s.speaker, g) == g


def test_fold_plan_deterministic():
    rng = np.random.default_rng(0)
    samples, _ = blob_dataset(rng)
    a = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=11)
    b = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=11)
    assert a == b


def test_single_speaker_error():
    samples = [ManifestRow("u%d" % i, "x", "only") for i in range(25)]
    with pytest.raises(EvaluationError, match="1"):
        make_folds(samples, SPEAKER_INDEPENDENT, 5, 5)


def test_stratified_balance():
    samples = [ManifestRow("a%d" % i, "big", "s%d" % i) for i in range(30)]
    samples += [ManifestRow("b%d" % i, "small", "t%d" % i) for i in range(20)]
    plan = make_folds(samples, SPEAKER_DEPENDENT, 5, 5, seed=2)
    for fold in range(5):
        chosen = [s for s, f in zip(samples, plan.outer) if f == fold]
        big = sum(1 for s in chosen if s.label == "big")
        small = len(chosen) - big
        assert big == 6
        assert small == 4


def test_stratified_small_class_error():
    samples = [ManifestRow("a%d" % i, "big", "s") for i in range(20)]
    samples += [ManifestRow("b%d" % i, "tiny", "s") for i in range(3)]
    with pytest.raises(EvaluationError, match="tiny"):
        make_folds(samples, SPEAKER_DEPENDENT, 5, 5)


def test_fold_plan_validation():
    samples = [ManifestRow("a", "x", "s1"), ManifestRow("a", "x", "s2")]
    with pytest.raises(EvaluationError):
        make_folds(samples, SPEAKER_DEPENDENT, 2, 2)
    ok = [ManifestRow("a", "x", "s1"), ManifestRow("b", "x", "s2")]
    with pytest.raises(EvaluationError):
        make_folds(ok, "bogus_mode", 2, 2)
    with pytest.raises(EvaluationError):
        make_folds(ok, SPEAKER_DEPENDENT, 1, 2)


def _greedy_speaker_assignment(speaker_order, per_speaker_class_counts, classes, k):
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
    assign = {}
    for cl in sorted(set(labels[i] for i in indices)):
        members = [i for i in indices if labels[i] == cl]
        order = [members[j] for j in rng.permutation(len(members))]
        offset = int(rng.integers(k))
        for pos, idx in enumerate(order):
            assign[idx] = (pos + offset) % k
    return assign


def two_branch_make_folds(rows, mode, k_outer=5, k_inner=5, seed=0):
    """The fold planner with each level of each mode written out on its own:
    the oracle that ``make_folds``' one routine per mode must reproduce."""
    if mode not in (SPEAKER_INDEPENDENT, SPEAKER_DEPENDENT):
        raise EvaluationError("unknown mode %r; expected one of %s"
                              % (mode, (SPEAKER_INDEPENDENT, SPEAKER_DEPENDENT)))
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
            raise EvaluationError("speaker-independent folding needs >= %d speakers, got %d"
                                  % (k_outer, len(speakers)))
        counts = {spk: np.array([sum(1 for r in rows if r.speaker == spk and r.label == cl)
                                 for cl in classes], dtype=np.float64)
                  for spk in speakers}
        order = [speakers[i] for i in rng.permutation(len(speakers))]
        outer_by_speaker = _greedy_speaker_assignment(order, counts, classes, k_outer)
        outer = tuple(outer_by_speaker[r.speaker] for r in rows)
        inner = []
        for fold in range(k_outer):
            train_speakers = sorted({r.speaker for r, f in zip(rows, outer) if f != fold})
            if len(train_speakers) < k_inner:
                raise EvaluationError(
                    "outer fold %d leaves %d training speakers; inner folding needs >= %d"
                    % (fold, len(train_speakers), k_inner))
            sub_order = [train_speakers[i] for i in rng.permutation(len(train_speakers))]
            by_speaker = _greedy_speaker_assignment(sub_order, counts, classes, k_inner)
            inner.append(tuple(by_speaker[r.speaker] if f != fold else -1
                               for r, f in zip(rows, outer)))
    else:
        for cl in classes:
            count = labels.count(cl)
            if count < k_outer:
                raise EvaluationError(
                    "class %r has %d sample(s); speaker-dependent folding needs >= %d"
                    % (cl, count, k_outer))
        outer_map = _stratified_assignment(range(n), labels, k_outer, rng)
        outer = tuple(outer_map[i] for i in range(n))
        inner = []
        for fold in range(k_outer):
            train_idx = [i for i in range(n) if outer[i] != fold]
            inner_map = _stratified_assignment(train_idx, labels, k_inner, rng)
            inner.append(tuple(inner_map[i] if outer[i] != fold else -1 for i in range(n)))
    return FoldPlan(mode, k_outer, k_inner, tuple(ids), outer, tuple(inner), seed)


def _plan_or_error(planner, *args):
    try:
        return planner(*args)
    except EvaluationError as exc:
        return str(exc)


def test_fold_plans_and_errors_match_two_branch_oracle():
    # random manifests of 5-80 rows, 1-14 speakers and 1-4 classes, k from 2 to 5
    errors = []
    for seed in range(2000):
        rng = np.random.default_rng(seed)
        n, n_speakers, n_classes = rng.integers(5, 81), rng.integers(1, 15), rng.integers(1, 5)
        k_outer, k_inner = (int(k) for k in rng.integers(2, 6, size=2))
        rows = [ManifestRow("p%d" % i, "c%d" % rng.integers(n_classes),
                            "s%d" % rng.integers(n_speakers)) for i in range(n)]
        for mode in (SPEAKER_INDEPENDENT, SPEAKER_DEPENDENT):
            args = (rows, mode, k_outer, k_inner, seed)
            want = _plan_or_error(two_branch_make_folds, *args)
            assert _plan_or_error(make_folds, *args) == want, (seed, mode)
            if isinstance(want, str):
                errors.append(want)
    # both plans and each level's error are compared
    assert 500 < len(errors) < 3500
    assert {e.split(" ", 1)[0] for e in errors} == {"speaker-independent", "outer", "class"}


def test_grid_default_is_80_cells():
    cells = ExperimentConfig().grid()
    assert len(cells) == 80
    assert cells[0] == (1e-3, 1e-6)
    assert cells[1] == (1e-3, 1e-5)
    assert cells[-1] == (1e4, 1e3)
    samples, feats = blob_dataset(np.random.default_rng(0), n_per=10)
    plan = make_folds(samples, SPEAKER_DEPENDENT, 5, 5, seed=0)
    with pytest.raises(EvaluationError, match="empty"):
        nested_cv(samples, feats, plan, [])


# ---------------------------------------------------------------------------
# nested cross-validation
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def blob_report():
    rng = np.random.default_rng(8)
    samples, feats = blob_dataset(rng)
    plan = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=4)
    return nested_cv(samples, feats, plan, SMALL_GRID), samples


def test_nested_cv_separable_blobs_uar(blob_report):
    report, _ = blob_report
    assert report.mean_uar >= 0.95
    assert len(report.folds) == 5


def test_nested_cv_structure(blob_report):
    report, samples = blob_report
    for fold in report.folds:
        assert (fold.c, fold.gamma) in SMALL_GRID
        assert int(fold.confusion.sum()) == fold.test_count
        assert np.array_equal(fold.confusion.sum(axis=1) >= 0, [True] * 3)
    assert report.mean_uar == pytest.approx(np.mean([f.uar for f in report.folds]))
    assert sum(f.test_count for f in report.folds) == len(samples)


def test_nested_cv_leakage_audit(blob_report):
    report, samples = blob_report
    n = len(samples)
    for touched, tested, leaked in report.leakage:
        assert leaked == 0
        assert touched == n - tested


def test_nested_cv_leakage_triples_on_blobs(blob_report):
    # (inner ids touched, outer-test ids, leaked ids) per fold, as recorded
    # before the audit took each fold's touched ids from one mask
    assert blob_report[0].leakage == ((72, 18, 0),) * 5
    rng = np.random.default_rng(8)
    samples, feats = blob_dataset(rng)
    keep = [i for i, row in enumerate(samples) if row.label != "c" or row.path < "c04"]
    samples, feats = [samples[i] for i in keep], feats[keep]
    audits = [nested_cv(samples, feats, make_folds(samples, SPEAKER_DEPENDENT, k_outer, k_inner),
                        SMALL_GRID).leakage
              for k_outer, k_inner in ((3, 2), (4, 2), (2, 3))]
    # fold 1 of the first plan has no usable inner split, so touches no id
    assert audits == [((43, 21, 0), (0, 22, 0), (43, 21, 0)), ((48, 16, 0),) * 4,
                      ((32, 32, 0),) * 2]


@pytest.mark.parametrize("labels, positive, want", [
    (["a", "b", "a"], None, (("a", "b"), None)),
    (["satisfied", "dissatisfied"], None, (("dissatisfied", "satisfied"), "dissatisfied")),
    (["satisfied", "dissatisfied"], "satisfied", (("dissatisfied", "satisfied"), "satisfied")),
    (["x", "dissatisfied", "y"], None, (("dissatisfied", "x", "y"), "dissatisfied")),
    (["rough", "smooth"], "smooth", (("rough", "smooth"), "smooth"))])
def test_task_classes(labels, positive, want):
    assert task_classes(labels, positive) == want


@pytest.mark.parametrize("labels, positive, message", [
    (["smooth"] * 6, None, "need at least 2 classes, got 1"),
    (["smooth"] * 6, "smooth", "need at least 2 classes, got 1"),
    ([], None, "need at least 2 classes, got 0"),
    (["rough", "smooth"], "nope", "positive label 'nope' not among classes ('rough', 'smooth')")])
def test_task_classes_messages(labels, positive, message):
    # the exact messages ``emovox evaluate`` gave before extracting; nested_cv
    # raises the same ones on the rows it is given
    with pytest.raises(EvaluationError) as exc:
        task_classes(labels, positive)
    assert str(exc.value) == message
    if labels:
        rows = [ManifestRow("p%d" % i, label, "s%d" % i) for i, label in enumerate(labels)]
        plan = FoldPlan(SPEAKER_DEPENDENT, 2, 2, tuple(r.path for r in rows),
                        (0, 1) * (len(rows) // 2), ((-1, 0) * (len(rows) // 2),) * 2, 0)
        with pytest.raises(EvaluationError) as exc:
            nested_cv(rows, np.zeros((len(rows), 1)), plan, SMALL_GRID, positive_label=positive)
        assert str(exc.value) == message


def test_nested_cv_tie_break_prefers_small_c_then_gamma():
    rng = np.random.default_rng(9)
    samples, feats = blob_dataset(rng, sep=50.0, sigma=0.1)
    plan = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=1)
    report = nested_cv(samples, feats, plan, SMALL_GRID)
    for fold in report.folds:
        assert fold.uar == 1.0
        assert (fold.c, fold.gamma) == (1.0, 0.1)


def test_nested_cv_permuted_labels_near_chance():
    rng = np.random.default_rng(10)
    base, feats = blob_dataset(rng, n_per=20)
    uars = []
    for rep in range(5):
        labels = [s.label for s in base]
        perm = rng.permutation(len(labels))
        shuffled = [
            ManifestRow(s.path, labels[perm[i]], s.speaker)
            for i, s in enumerate(base)
        ]
        plan = make_folds(shuffled, SPEAKER_DEPENDENT, 5, 5, seed=rep)
        uars.append(nested_cv(shuffled, feats, plan, SMALL_GRID).mean_uar)
    assert abs(float(np.mean(uars)) - 1.0 / 3.0) <= 0.1


def test_nested_cv_binary_roc_and_positive_class():
    rng = np.random.default_rng(12)
    samples, feats = blob_dataset(rng, class_names=("dissatisfied", "satisfied"), n_per=25)
    plan = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=0)
    report = nested_cv(samples, feats, plan, SMALL_GRID)
    assert report.positive_label == "dissatisfied"
    assert report.auc is not None and report.auc >= 0.95
    fprs = [p[0] for p in report.roc_points]
    assert all(b >= a for a, b in zip(fprs, fprs[1:]))
    for fold in report.folds:
        assert fold.sen is not None and fold.spe is not None


def recorded_streams(monkeypatch):
    """The splits of every ``grid_predictions`` call that nested CV makes, as
    the call reads them, each without the distances an inner split brings."""
    from emovox import evaluation

    streams = []
    grid_predictions = evaluation.grid_predictions

    def recorded(x, splits):
        streams.append([])
        return grid_predictions(x, (streams[-1].append(split[:4]) or split for split in splits))

    monkeypatch.setattr(evaluation, "grid_predictions", recorded)
    return streams


def test_nested_cv_scores_each_outer_fold_once(monkeypatch):
    # two solve streams: the inner grid, then every outer fold as a one-cell
    # split that fits on its training rows and scores its test rows once,
    # which gives its labels and ROC scores; no model is built or scored
    from emovox.svm import BinarySvm

    def unexpected(machine, x):
        raise AssertionError("nested CV scored a model")

    streams = recorded_streams(monkeypatch)
    monkeypatch.setattr(BinarySvm, "decision_values", unexpected)
    rng = np.random.default_rng(12)
    samples, feats = blob_dataset(rng, class_names=("dissatisfied", "satisfied"), n_per=25)
    plan = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=0)
    report = nested_cv(samples, feats, plan, SMALL_GRID)
    assert len(streams) == 2
    assert all(cells == SMALL_GRID for *_rest, cells in streams[0])
    assert len(streams[1]) == plan.k_outer
    labels = [s.label for s in samples]
    for fold, (fit, fit_labels, test, cells) in zip(report.folds, streams[1]):
        assert np.array_equal(test, np.asarray(plan.outer) == fold.fold)
        assert np.array_equal(fit, ~test)
        assert fit_labels == [label for label, t in zip(labels, test) if not t]
        assert cells == [(fold.c, fold.gamma)]
        assert fold.test_count == test.sum()


def usable_inner_splits(samples, plan, fold):
    """(fit mask, validation mask) of each inner split of ``fold`` whose fit
    rows hold at least two rows of every class."""
    labels = np.array([s.label for s in samples], dtype=object)
    inner = np.asarray(plan.inner[fold])
    splits = []
    for inner_fold in range(plan.k_inner):
        val = inner == inner_fold
        fit = (inner != -1) & ~val
        fit_labels = labels[fit].tolist()
        if val.any() and all(fit_labels.count(cl) >= 2 for cl in set(labels)):
            splits.append((fit, val))
    return splits


def per_cell_selection(samples, feats, plan, cells):
    """(C, gamma) of each outer fold by the per-cell loop, and its dead cells:
    one model per cell, predicted and scored one cell at a time, first best
    mean inner UAR among the cells that are not dead in every usable inner
    split (``split_is_dead``), the first cell when all are."""
    from test_svm import split_is_dead, train_grid

    from emovox.svm import predict_with_margins

    labels = np.array([s.label for s in samples], dtype=object)
    classes = sorted(set(labels))
    chosen, dead = [], []
    for fold in range(plan.k_outer):
        uars = [[] for _cell in cells]
        alive = [False] * len(cells)
        for fit, val in usable_inner_splits(samples, plan, fold):
            truth = labels[val]
            for k, (cell_uars, model) in enumerate(
                    zip(uars, train_grid(feats[fit], labels[fit].tolist(), cells))):
                alive[k] |= not split_is_dead(feats[fit], feats[val], cells[k][1])
                guess = np.array(predict_with_margins(model, feats[val])[0], dtype=object)
                cell_uars.append(np.mean([np.mean(guess[truth == cl] == cl)
                                          for cl in classes if cl in truth]))
        scores = [np.mean(u) if live else -np.inf for u, live in zip(uars, alive)]
        chosen.append(cells[scores.index(max(scores))])
        dead.append([cell for cell, live in zip(cells, alive) if not live])
    return chosen, dead


@pytest.mark.parametrize("class_names", [("angry", "happy", "sad"),
                                         ("dissatisfied", "satisfied")])
def test_nested_cv_report_matches_per_cell_oracle(class_names, monkeypatch):
    from emovox import evaluation
    from emovox.svm import predict_with_margins, train_multiclass

    from test_svm import oracle_grid_predictions

    rng = np.random.default_rng(21)
    samples, feats = blob_dataset(rng, class_names=class_names, n_per=12, sep=1.5,
                                  sigma=1.0, n_speakers=6)
    feats = np.hstack([feats, rng.standard_normal((len(feats), 4))])
    plan = make_folds(samples, SPEAKER_INDEPENDENT, 3, 3, seed=2)
    cells = ExperimentConfig().grid()
    report = nested_cv(samples, feats, plan, cells)
    chosen, dead = per_cell_selection(samples, feats, plan, cells)
    assert [(f.c, f.gamma) for f in report.folds] == chosen
    assert all(dead)  # every fold has dead cells, which the oracle skips too
    streams = []

    def oracle_stream(x, splits):
        # the inner grid by one model per cell, each outer fold by
        # ``train_multiclass`` and ``predict_with_margins``
        streams.append(splits)
        for fit, labels, val, split_cells, *_distances in splits:
            classes = tuple(sorted(set(labels)))
            if len(streams) == 1:
                guesses = oracle_grid_predictions(x[fit], labels, x[val], split_cells)
                yield classes, guesses, None, None
                continue
            model = train_multiclass(x[fit], labels, *split_cells[0])
            guesses, margins = predict_with_margins(model, x[val])
            yield (classes, np.array([[classes.index(g) for g in guesses]]), margins[None],
                   np.array([model.converged]))

    monkeypatch.setattr(evaluation, "grid_predictions", oracle_stream)
    oracle = nested_cv(samples, feats, plan, cells)
    assert len(streams) == 2
    assert format_report(report) == format_report(oracle)
    assert fold_metrics_csv(report) == fold_metrics_csv(oracle)
    if len(class_names) == 2:
        assert roc_csv(report) == roc_csv(oracle)
    # the fixture is hard enough that folds select different cells
    assert len({(f.c, f.gamma) for f in report.folds}) > 1


def assert_runs_hold_whole_pairs(stream, calls):
    """The ``_smo_batch`` calls (chains, n_max) of one pair stream, in order,
    take the stream's pairs whole and in order, a chain per pair and gamma,
    and each run but the last closes with the pair that brings it up to a
    cap, chains x n_max to ``_PACK_CELLS`` or chains x n_max**2 stacked
    kernel floats to ``_PACK_FLOATS``, and not before.  Returns the calls the
    stream used up."""
    from emovox import svm

    def full(run):
        chains, n_max = sum(c for c, _n in run), max(n for _c, n in run)
        return chains * n_max >= svm._PACK_CELLS or chains * n_max ** 2 >= svm._PACK_FLOATS

    sizes = [(p.by_g.values.size, p.yv.size) for p in stream]
    used = 0
    while sizes:
        chains, n_max = calls[used]
        run = []
        while sum(c for c, _n in run) < chains:
            run.append(sizes.pop(0))
        assert sum(c for c, _n in run) == chains and max(n for _c, n in run) == n_max
        assert len(run) == 1 or not full(run[:-1])
        assert full(run) or not sizes
        used += 1
    return used


def packed_nested_cv_runs(monkeypatch, caps=None):
    """Nested CV of four blob classes with the solver's caps set to ``caps``
    (chains x n_max, stacked kernel floats): its report, which must equal
    the one under the default caps, and the (chains, n_max) of its
    ``_smo_batch`` runs, of its inner and of its outer stream, each checked
    against the rule.  The class pairs of every usable inner split of every
    outer fold share packed SMO runs, then the six pairs of every outer fold
    do."""
    from test_svm import count_solves

    from emovox import svm

    rng = np.random.default_rng(31)
    samples, feats = blob_dataset(rng, class_names=("angry", "happy", "neutral", "sad"),
                                  n_per=8, sep=2.0, sigma=1.0, n_speakers=8)
    plan = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=1)
    want = format_report(nested_cv(samples, feats, plan, SMALL_GRID))
    calls = count_solves(monkeypatch)
    streams = []
    solve_pairs = svm._solve_pairs

    def recorded(pairs, tol):
        streams.append([])
        return solve_pairs((streams[-1].append(p) or p for p in pairs), tol)

    monkeypatch.setattr(svm, "_solve_pairs", recorded)
    if caps:
        monkeypatch.setattr(svm, "_PACK_CELLS", caps[0])
        monkeypatch.setattr(svm, "_PACK_FLOATS", caps[1])
    assert format_report(nested_cv(samples, feats, plan, SMALL_GRID)) == want
    labels = np.array([s.label for s in samples], dtype=object)
    usable = 0
    for fold in range(plan.k_outer):
        inner = np.asarray(plan.inner[fold])
        for inner_fold in range(plan.k_inner):
            val, fit = inner == inner_fold, (inner != -1) & (inner != inner_fold)
            fit_labels = labels[fit].tolist()
            usable += bool(val.any() and all(fit_labels.count(cl) >= 2 for cl in set(labels)))
    assert usable > 2 * plan.k_outer
    inner, outer = streams
    # two gammas: two chains of two C values per inner pair, one one-cell
    # chain per outer pair
    assert len(inner) == 6 * usable and len(outer) == 6 * plan.k_outer
    assert {(len(p.cells), p.by_g.values.size) for p in inner} == {(4, 2)}
    assert {(len(p.cells), p.by_g.values.size) for p in outer} == {(1, 1)}
    cut = assert_runs_hold_whole_pairs(inner, calls)  # a run never mixes the two streams
    assert assert_runs_hold_whole_pairs(outer, calls[cut:]) == len(calls) - cut
    return calls[:cut], calls[cut:]


def test_nested_cv_packs_inner_splits_then_outer_folds(monkeypatch):
    # a run counts chains (a pair's cells of one gamma), holds each pair
    # whole and closes at the pair that brings it up to a cap: here every
    # inner split shares one run, and every outer fold another
    inner_runs, outer_runs = packed_nested_cv_runs(monkeypatch)
    assert len(inner_runs) == len(outer_runs) == 1


def test_lowered_caps_pack_nested_cv_into_more_runs(monkeypatch):
    # the same rule under caps that the runs reach, in both streams, some
    # runs closed by the chains cap alone and one by the kernel-float cap
    # alone; no output changes
    inner_runs, outer_runs = packed_nested_cv_runs(monkeypatch, (150, 1800))
    assert len(inner_runs) > 2 and len(outer_runs) > 1
    closed = {(chains * n_max >= 150, chains * n_max ** 2 >= 1800)
              for chains, n_max in inner_runs + outer_runs}
    assert {(True, False), (False, True)} <= closed


def noisy_blobs(seed, n_per=20, noise=12):
    """``blob_dataset`` of three classes with ``noise`` standard-normal
    columns appended: on the seeds used here no two of its rows come within
    squared distance 0.745 on 2 + 12 standardized dims, so gamma = 1000
    sends every kernel value between distinct rows to 0.0."""
    rng = np.random.default_rng(seed)
    samples, feats = blob_dataset(rng, n_per=n_per)
    return samples, np.hstack([feats, rng.standard_normal((len(feats), noise))])


def test_nested_cv_solves_no_dead_cell(monkeypatch):
    from test_svm import count_solves, split_is_dead

    calls = count_solves(monkeypatch)
    samples, feats = noisy_blobs(41)
    plan = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=3)
    cells = [(c, g) for c in (1.0, 10.0) for g in (1e-2, 1e3)]
    report = nested_cv(samples, feats, plan, cells)
    usable = [usable_inner_splits(samples, plan, fold) for fold in range(plan.k_outer)]
    for fit, val in (split for splits in usable for split in splits):
        assert split_is_dead(feats[fit], feats[val], 1e3)
        assert not split_is_dead(feats[fit], feats[val], 1e-2)
    # three class pairs: one chain of the two live cells in every usable
    # inner split, then one one-cell chain per outer fold
    assert sum(chains for chains, _n_max in calls) == (
        3 * sum(map(len, usable)) + 3 * plan.k_outer)
    assert all(fold.gamma == 1e-2 for fold in report.folds)


def test_nested_cv_never_selects_a_dead_cell_over_a_live_one(monkeypatch):
    # labels at random, so a live cell scores about chance, and a dead cell
    # first in the list: by inner UAR alone it wins some folds
    from emovox import evaluation

    samples, feats = noisy_blobs(43)
    rng = np.random.default_rng(44)
    labels = [s.label for s in samples]
    samples = [ManifestRow(s.path, label, s.speaker)
               for s, label in zip(samples, rng.permutation(labels))]
    plan = make_folds(samples, SPEAKER_DEPENDENT, 5, 5, seed=4)
    cells = [(1.0, 1e3), (10.0, 1e-2), (100.0, 1e-2)]
    report = nested_cv(samples, feats, plan, cells)
    assert all(fold.gamma == 1e-2 for fold in report.folds)
    monkeypatch.setattr(evaluation, "dead_cells",
                        lambda sq, sq_val, gammas: np.zeros(len(gammas), dtype=bool))
    unruled = nested_cv(samples, feats, plan, cells)
    assert any(fold.gamma == 1e3 for fold in unruled.folds)


def test_cell_dead_in_some_inner_splits_is_solved_in_all(monkeypatch):
    # two rows of one speaker a small step apart: gamma = 1000 keeps their
    # kernel value above 0 wherever one of them is a fit row, and is dead in
    # the inner split that validates on both; gamma = 1e6 is dead everywhere
    from test_svm import split_is_dead

    streams = recorded_streams(monkeypatch)
    samples, feats = noisy_blobs(45)
    feats[10] = feats[0] + 0.05 * np.random.default_rng(46).standard_normal(feats.shape[1])
    assert samples[0].speaker == samples[10].speaker
    plan = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=5)
    cells = [(1.0, 1e6), (1.0, 1e3)]
    report = nested_cv(samples, feats, plan, cells)
    inner_splits = iter(streams[0])
    partly_dead = 0
    for fold in report.folds:
        usable = usable_inner_splits(samples, plan, fold.fold)
        dead = [split_is_dead(feats[fit], feats[val], 1e3) for fit, val in usable]
        assert all(split_is_dead(feats[fit], feats[val], 1e6) for fit, val in usable)
        if plan.outer[0] == fold.fold:  # both rows are outer-test rows: all cells dead
            assert all(dead)
            assert (fold.c, fold.gamma) == cells[0]
            continue
        assert any(dead) and not all(dead)
        partly_dead += 1
        for fit, val in usable:
            _fit, _labels, val_rows, split_cells = next(inner_splits)
            assert np.array_equal(val_rows, val)
            assert split_cells == [(1.0, 1e3)]
        assert (fold.c, fold.gamma) == (1.0, 1e3)
    assert partly_dead == plan.k_outer - 1
    assert next(inner_splits, None) is None


def test_all_dead_grid_takes_the_first_cell_and_fits_it(monkeypatch):
    from test_svm import count_solves

    calls = count_solves(monkeypatch)
    streams = recorded_streams(monkeypatch)
    samples, feats = noisy_blobs(47)
    plan = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=6)
    cells = ExperimentConfig(gamma_exp_min=3, gamma_exp_max=3).grid()
    assert {g for _c, g in cells} == {1e3} and len(cells) == 8
    report = nested_cv(samples, feats, plan, cells)
    # the inner stream solves nothing, the outer one three pairs per fold
    assert streams[0] == [] and len(streams[1]) == plan.k_outer
    assert sum(chains for chains, _n_max in calls) == 3 * plan.k_outer
    for fold in report.folds:
        assert (fold.c, fold.gamma) == cells[0]
        assert int(fold.confusion.sum()) == fold.test_count > 0
        assert 0.0 <= fold.uar <= 1.0
        assert isinstance(fold.converged, bool)


@pytest.mark.parametrize("class_names", [("angry", "happy", "neutral", "sad"),
                                         ("dissatisfied", "satisfied")])
def test_nested_cv_makes_each_split_distances_once(class_names, monkeypatch):
    # one standardizer and pair of distance matrices per usable inner split,
    # which the dead test reads and every pair of the split solves and
    # scores on, holding them, not a copy; then one per outer fold
    from emovox import evaluation, svm

    made = []
    split_distances = svm._split_distances

    def counted(*args):
        made.append(split_distances(*args))
        return made[-1]

    monkeypatch.setattr(svm, "_split_distances", counted)
    monkeypatch.setattr(evaluation, "_split_distances", counted)
    records = []
    solve_pairs = svm._solve_pairs
    monkeypatch.setattr(svm, "_solve_pairs", lambda pairs, tol: solve_pairs(
        (records.append(p) or p for p in pairs), tol))
    rng = np.random.default_rng(31)
    samples, feats = blob_dataset(rng, class_names=class_names, n_per=8, sep=2.0, sigma=1.0,
                                  n_speakers=8)
    plan = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=1)
    nested_cv(samples, feats, plan, SMALL_GRID)
    usable = sum(len(usable_inner_splits(samples, plan, fold)) for fold in range(plan.k_outer))
    assert usable > 2 * plan.k_outer
    assert len(made) == usable + plan.k_outer
    pairs = len(class_names) * (len(class_names) - 1) // 2
    assert len(records) == pairs * (usable + plan.k_outer)
    for p in records:
        assert any(p.sq is sq and p.sq_val is sq_val for _scaler, sq, sq_val in made)
    # each split's pairs hold the matrices made for it, in stream order
    owners = [next(k for k, (_s, sq, _v) in enumerate(made) if p.sq is sq) for p in records]
    assert owners == sorted(owners) and len(set(owners)) == len(made)
    # with no usable inner split, each fold makes only its outer fit's
    made.clear()
    samples, feats = [], []
    rng = np.random.default_rng(13)
    for i in range(44):
        samples.append(ManifestRow("r%d" % i, "yz"[i >= 40], "s%d" % i))
        feats.append(rng.standard_normal(2) + 8.0 * (i >= 40))
    plan = make_folds(samples, SPEAKER_DEPENDENT, 2, 2, seed=0)
    report = nested_cv(samples, np.array(feats), plan, SMALL_GRID)
    assert len(made) == plan.k_outer
    assert all((fold.c, fold.gamma) == SMALL_GRID[0] for fold in report.folds)


@pytest.mark.parametrize("n_classes", [2, 3, 4, 5])
def test_train_multiclass_matches_per_pair_binary_smo(n_classes):
    # each machine is the scalar oracle on its pair's slice of the split's
    # distances, and, where the pair is the whole split, a lone binary solve
    from test_svm import assert_same_machine, scalar_smo, zero_diagonal_sq

    from emovox.svm import train_binary_smo, train_multiclass

    for seed in range(3):
        r = np.random.default_rng(50 * n_classes + seed)
        names = "vwxyz"[:n_classes]
        labels = [name for name in names for _ in range(int(r.integers(2, 12)))]
        x = r.standard_normal((len(labels), 3)) + np.array(
            [names.index(label) for label in labels])[:, None]
        c, gamma = float(10.0 ** r.integers(-2, 5)), float(10.0 ** r.integers(-3, 2))
        model = train_multiclass(x, labels, c, gamma)
        z = model.standardizer.transform(x)
        sq = zero_diagonal_sq(z)
        lab = np.array(labels, dtype=object)
        assert list(model.machines) == [(a, b) for i, a in enumerate(names) for b in names[i + 1:]]
        for (a, b), machine in model.machines.items():
            mask = (lab == a) | (lab == b)
            y = np.where(lab[mask] == a, 1.0, -1.0)
            wants = [scalar_smo(z[mask], y, c, gamma, sq=sq[np.ix_(mask, mask)])]
            if n_classes == 2:
                wants.append(train_binary_smo(z[mask], y, c, gamma))
            for want in wants:
                assert_same_machine(machine, want)
                assert machine.alphas.tobytes() == want.alphas.tobytes()
                assert machine.dual_coef.tobytes() == want.dual_coef.tobytes()


def test_nested_cv_skips_unusable_inner_folds():
    rng = np.random.default_rng(13)
    samples, feats = [], []
    for i in range(40):
        samples.append(ManifestRow("y%d" % i, "y", "s%d" % i))
        feats.append(rng.standard_normal(2))
    for i in range(4):
        samples.append(ManifestRow("z%d" % i, "z", "t%d" % i))
        feats.append(rng.standard_normal(2) + 8.0)
    plan = make_folds(samples, SPEAKER_DEPENDENT, 2, 2, seed=0)
    report = nested_cv(samples, np.array(feats), plan, SMALL_GRID)
    # every inner split leaves < 2 "z" samples, so all cells score 0 and the
    # first grid cell wins by the tie-break
    first = SMALL_GRID[0]
    for fold in report.folds:
        assert (fold.c, fold.gamma) == first
        assert np.isfinite(fold.uar)


def test_nested_cv_plan_mismatch_error():
    rng = np.random.default_rng(14)
    samples, feats = blob_dataset(rng, n_per=10)
    plan = make_folds(samples, SPEAKER_DEPENDENT, 5, 5, seed=0)
    reordered = list(reversed(samples))
    with pytest.raises(EvaluationError, match="match"):
        nested_cv(reordered, feats, plan, SMALL_GRID)


def test_nested_cv_row_count_error():
    rng = np.random.default_rng(15)
    samples, feats = blob_dataset(rng, class_names=("a", "b"), n_per=10)
    plan = make_folds(samples, SPEAKER_DEPENDENT, 5, 5, seed=0)
    with pytest.raises(EvaluationError, match="does not match sample count"):
        nested_cv(samples, feats[:-1], plan, SMALL_GRID)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------


def test_metrics_hand_case():
    m = metrics([[9, 1], [4, 6]])
    assert m.uar == pytest.approx(0.75, abs=1e-12)
    assert m.acc == pytest.approx(0.75, abs=1e-12)
    assert m.sen == pytest.approx(0.9, abs=1e-12)
    assert m.spe == pytest.approx(0.6, abs=1e-12)


def test_metrics_diagonal_is_perfect():
    m = metrics(np.diag([5, 7, 9]))
    assert m.uar == 1.0
    assert m.acc == 1.0
    assert m.sen is None and m.spe is None


def test_metrics_degenerate_predictor():
    m = metrics([[10, 0], [10, 0]])
    assert m.uar == 0.5
    assert m.acc == 0.5
    assert m.sen == 1.0
    assert m.spe == 0.0


def test_uar_duplication_invariant_acc_not():
    base = np.array([[8, 2], [3, 7]])
    dup = base.copy()
    dup[0] *= 3  # tripling one class's test samples
    assert metrics(dup).uar == pytest.approx(metrics(base).uar, abs=1e-12)
    assert metrics(dup).acc != pytest.approx(metrics(base).acc, abs=1e-6)


def test_metrics_validation():
    with pytest.raises(EvaluationError):
        metrics(np.zeros((0, 0)))
    with pytest.raises(EvaluationError):
        metrics(np.zeros((2, 2)))
    with pytest.raises(EvaluationError):
        metrics([[1, 2, 3], [4, 5, 6]])


# ---------------------------------------------------------------------------
# ROC
# ---------------------------------------------------------------------------


def test_roc_hand_case():
    points, auc = roc_curve([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
    assert auc == pytest.approx(0.75, abs=1e-12)
    assert points[0] == (0.0, 0.0)
    assert points[-1] == (1.0, 1.0)


def test_roc_perfect_and_uninformative():
    _, auc = roc_curve([0.9, 0.8, 0.2, 0.1], [1, 1, 0, 0])
    assert auc == 1.0
    _, flat = roc_curve([0.5, 0.5, 0.5, 0.5], [1, 0, 1, 0])
    assert flat == 0.5


def mann_whitney_auc(scores, labels):
    pos = scores[labels]
    neg = scores[~labels]
    wins = 0.0
    for p in pos:
        wins += np.sum(p > neg) + 0.5 * np.sum(p == neg)
    return wins / (pos.size * neg.size)


def test_roc_auc_equals_mann_whitney(rng):
    for _ in range(100):
        n = int(rng.integers(6, 40))
        scores = np.round(rng.standard_normal(n), int(rng.integers(1, 9)))
        labels = rng.random(n) < 0.5
        if labels.all() or not labels.any():
            labels[0] = ~labels[0]
        _, auc = roc_curve(scores, labels)
        assert auc == pytest.approx(mann_whitney_auc(scores, labels), abs=1e-9)


def test_roc_fpr_tpr_monotone(rng):
    scores = rng.standard_normal(60)
    labels = rng.random(60) < 0.4
    labels[0] = True
    labels[1] = False
    points, _ = roc_curve(scores, labels)
    fpr = [p[0] for p in points]
    tpr = [p[1] for p in points]
    assert all(b >= a for a, b in zip(fpr, fpr[1:]))
    assert all(b >= a for a, b in zip(tpr, tpr[1:]))


def test_roc_single_class_error():
    with pytest.raises(EvaluationError):
        roc_curve([0.1, 0.2], [1, 1])


def loop_roc_curve(scores, labels):
    """The threshold loop ``roc_curve`` used before its one-sort sweep: one
    rescan of every score per distinct score."""
    s = np.asarray(scores, dtype=np.float64)
    y = np.asarray(labels).astype(bool)
    n_pos = int(y.sum())
    n_neg = int((~y).sum())
    points = [(0.0, 0.0)]
    for thr in np.unique(s)[::-1]:
        hit = s >= thr
        points.append((float((hit & ~y).sum() / n_neg), float((hit & y).sum() / n_pos)))
    if points[-1] != (1.0, 1.0):
        points.append((1.0, 1.0))
    fpr = np.array([p[0] for p in points])
    tpr = np.array([p[1] for p in points])
    return tuple(points), float(np.trapezoid(tpr, fpr))


def test_roc_matches_threshold_loop_oracle(rng):
    # ties, signed zeros, infinities and odd class sizes; every point and
    # the AUC bit for bit
    for trial in range(300):
        n = int(rng.integers(2, 90))
        scores = np.round(rng.standard_normal(n), int(rng.integers(0, 4)))
        scores[rng.random(n) < 0.2] = 0.0
        scores[rng.random(n) < 0.2] = -0.0
        if trial % 10 == 0:
            scores[rng.integers(n)] = np.inf
            scores[rng.integers(n)] = -np.inf
        labels = rng.random(n) < rng.uniform(0.1, 0.9)
        labels[0], labels[-1] = True, False
        got_points, got_auc = roc_curve(scores, labels)
        want_points, want_auc = loop_roc_curve(scores, labels)
        assert got_points == want_points
        assert all(type(v) is float for p in got_points for v in p)
        assert np.float64(got_auc).tobytes() == np.float64(want_auc).tobytes()


def test_roc_rejects_nan_scores():
    with pytest.raises(EvaluationError):
        roc_curve([0.1, np.nan, 0.3], [1, 0, 1])


# ---------------------------------------------------------------------------
# Welch t-test and chi-square
# ---------------------------------------------------------------------------


def numeric_t_tail(t, df):
    lognorm = (math.lgamma((df + 1) / 2.0) - math.lgamma(df / 2.0)
               - 0.5 * math.log(df * math.pi))
    dens = lambda x: math.exp(lognorm) * (1.0 + x * x / df) ** (-(df + 1) / 2.0)
    val, _ = quad(dens, t, np.inf)
    return val


def test_t_cdf_against_numeric_integration():
    for t, df in ((2.0, 10.0), (0.5, 3.0), (4.2, 25.0), (-1.3, 7.0)):
        assert _student_t_sf(t, df) == pytest.approx(numeric_t_tail(t, df), abs=1e-8)
    assert 2.0 * _student_t_sf(2.0, 10.0) == pytest.approx(0.0734, abs=1e-3)


def scipy_t_tail(t, df):
    """``_student_t_sf`` from SciPy's incomplete beta, given the same x the
    function computes, or 1 - x (which the complement ``betaincc`` takes
    exactly) where the function takes that branch."""
    from scipy.special import betainc, betaincc

    a, x = 0.5 * df, df / (df + t * t)
    if x < (a + 1.0) / (a + 2.5):
        tail = 0.5 * float(betainc(a, 0.5, x))
    else:
        tail = 0.5 * float(betaincc(0.5, a, t * t / (df + t * t)))
    return tail if t >= 0 else 1.0 - tail


def test_t_tail_matches_scipy_incomplete_beta(rng):
    dfs = np.concatenate([[2.0, 2.5, 3.0, 49.9, 50.0, 50.1, 2000.0],
                          10.0 ** rng.uniform(math.log10(2.0), math.log10(2000.0), 60)])
    ts = np.concatenate([[0.0, 1e-9, 0.01, 1.0, 1.2, 50.0], rng.uniform(0.0, 50.0, 20),
                         10.0 ** rng.uniform(-6.0, math.log10(50.0), 20)])
    mirrored = direct = 0
    for df in dfs:
        for t in np.concatenate([ts, -ts]):
            got, want = _student_t_sf(t, df), scipy_t_tail(t, df)
            if want < sys.float_info.min:   # below double precision
                assert got < sys.float_info.min, (df, t)
                continue
            assert abs(got - want) <= 1e-12 * want, (df, t, got, want)
            if df / (df + t * t) < (0.5 * df + 1.0) / (0.5 * df + 2.5):
                direct += 1
            else:
                mirrored += 1
    assert _student_t_sf(0.0, 7.3) == 0.5
    assert direct > 1000 and mirrored > 1000


def test_welch_identical_groups():
    a = [1.0, 2.0, 3.0, 4.0]
    t, p = welch_t_test(a, list(a))
    assert t == 0.0
    assert p == 1.0


def test_welch_separated_samples(rng):
    a = rng.standard_normal(1000)
    b = rng.standard_normal(1000) + 1.0
    _, p = welch_t_test(a, b)
    assert p < 1e-10


def test_welch_antisymmetric(rng):
    a = rng.standard_normal(20)
    b = rng.standard_normal(25) + 0.3
    t_ab, p_ab = welch_t_test(a, b)
    t_ba, p_ba = welch_t_test(b, a)
    assert t_ab == pytest.approx(-t_ba, abs=1e-12)
    assert p_ab == pytest.approx(p_ba, abs=1e-12)


def test_welch_errors():
    with pytest.raises(EvaluationError):
        welch_t_test([1.0], [1.0, 2.0])
    with pytest.raises(EvaluationError):
        welch_t_test([2.0, 2.0], [1.0, 3.0])


@pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
def test_welch_rejects_non_finite_values(bad):
    with pytest.raises(EvaluationError, match="finite"):
        welch_t_test([1.0, bad], [2.0, 3.0])
    with pytest.raises(EvaluationError, match="finite"):
        welch_t_test([2.0, 3.0], [bad, 1.0, 4.0])


def test_chi2_corpus_gender_table():
    # straightforward Pearson hand computation on these counts gives ~16.37
    # (expected cells 662.0/597.0/581.0/524.0)
    chi2, p = chi_square_independence([[711, 548], [532, 573]])
    assert chi2 == pytest.approx(16.372, abs=0.01)
    assert p < 0.001


def test_chi2_proportional_table():
    chi2, p = chi_square_independence([[50, 50], [50, 50]])
    assert chi2 == 0.0
    assert p == 1.0


def test_chi2_extreme_association():
    _, p = chi_square_independence([[100, 0], [0, 100]])
    assert p < 1e-10


def chi2_tables(rng):
    """2x2 tables whose chi-square spans about 0 to 1e3."""
    tables = [[[50, 50], [50, 50]], [[50, 51], [50, 50]]]
    for n in (20, 200, 2000):
        for _ in range(300):
            tables.append(rng.integers(1, n, (2, 2)).tolist())
    return tables


def test_chi2_p_matches_incomplete_gamma_oracle(rng):
    # scipy's Q(1/2, x) is itself off by up to ~1.1e-13 relative at large
    # chi2 (against mpmath, below), so the bound is its accuracy, not erfc's
    from scipy.special import gammaincc

    chi2s = []
    for table in chi2_tables(rng):
        chi2, p = chi_square_independence(table)
        if chi2 > 1e3:
            continue
        chi2s.append(chi2)
        want = float(gammaincc(0.5, 0.5 * chi2))
        assert p == pytest.approx(want, rel=2e-13, abs=0), table
    assert min(chi2s) == 0.0 and max(chi2s) > 500


def test_chi2_p_matches_high_precision_erfc(rng):
    # Rounding sqrt(x), x = chi2 / 2, moves erfc by a relative x * 2.2e-16;
    # erfc itself adds about two ulps.
    mpmath = pytest.importorskip("mpmath")
    for table in chi2_tables(rng)[::10]:
        chi2, p = chi_square_independence(table)
        with mpmath.workdps(40):
            want = float(mpmath.erfc(mpmath.sqrt(mpmath.mpf(chi2) / 2)))
        assert p == pytest.approx(want, rel=2.2e-16 * (2.0 + 0.5 * chi2), abs=0), table


def test_chi2_zero_marginal_error():
    with pytest.raises(EvaluationError):
        chi_square_independence([[0, 0], [5, 5]])


@pytest.mark.parametrize("bad", [np.inf, np.nan])
def test_chi2_rejects_non_finite_cells(bad):
    with pytest.raises(EvaluationError, match="finite"):
        chi_square_independence([[3, bad], [5, 5]])


# ---------------------------------------------------------------------------
# report serialization
# ---------------------------------------------------------------------------


def test_format_report_structure(blob_report):
    report, _ = blob_report
    text = format_report(report)
    assert text.count("fold ") == 5
    assert "mean_uar: " in text
    assert "leaked_ids: 0" in text
    assert "runtime_s" not in text


def test_report_deterministic_across_runs():
    rng = np.random.default_rng(8)
    samples, feats = blob_dataset(rng)
    plan = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=4)
    r1 = nested_cv(samples, feats, plan, SMALL_GRID)
    r2 = nested_cv(samples, feats, plan, SMALL_GRID)
    assert format_report(r1) == format_report(r2)
    assert fold_metrics_csv(r1) == fold_metrics_csv(r2)


def test_fold_metrics_csv_round_trips(blob_report):
    report, _ = blob_report
    lines = fold_metrics_csv(report).strip().split("\n")
    assert lines[0].startswith("fold,c,gamma,uar")
    assert len(lines) == 6
    for line, fold in zip(lines[1:], report.folds):
        cols = line.split(",")
        assert float(cols[3]) == fold.uar


def test_roc_csv_requires_binary(blob_report):
    report, _ = blob_report
    with pytest.raises(EvaluationError):
        roc_csv(report)
    rng = np.random.default_rng(20)
    samples, feats = blob_dataset(rng, class_names=("neg", "pos"), n_per=15)
    plan = make_folds(samples, SPEAKER_DEPENDENT, 5, 5, seed=0)
    binary_report = nested_cv(samples, feats, plan, SMALL_GRID)
    lines = roc_csv(binary_report).strip().split("\n")
    assert lines[0] == "fpr,tpr"
    fprs = [float(l.split(",")[0]) for l in lines[1:]]
    assert all(b >= a for a, b in zip(fprs, fprs[1:]))
