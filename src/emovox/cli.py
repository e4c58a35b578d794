"""Command-line front end: extract / evaluate / train / predict / stats.

Exit codes: 0 full success, 1 partial success (some rows failed but the
requested artifact was produced), 2 fatal.  All outputs are deterministic
functions of (manifest bytes, config bytes); no timestamps are embedded.
"""

from __future__ import annotations

import argparse
import csv
import io
import logging
import os
import sys

# A threaded OpenBLAS product sums in another order, so output bytes would follow
# the CPU count: pin one BLAS thread before NumPy loads (library callers too).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import numpy as np  # noqa: E402 (after the BLAS pin)

from . import modelio
from .cache import FeatureCache
from .config import ExperimentConfig, load_config
from .errors import EmovoxError, EvaluationError
from .evaluation import (
    chi_square_independence,
    fold_metrics_csv,
    format_report,
    make_folds,
    nested_cv,
    roc_csv,
    welch_t_test,
)
from .manifest import GENDERS, ManifestRow, read_manifest
from .pipeline import (
    ExtractionResult,
    extract_for_manifest,
    feature_csv,
    load_audio,
    load_embedding_models,
)
from .svm import predict_with_margins, train_multiclass, trainable_classes

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_FATAL = 2

log = logging.getLogger("emovox")


def _write_text(path, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _extract(manifest: tuple[ManifestRow, ...], config: ExperimentConfig) -> ExtractionResult:
    cache = FeatureCache(config.cache_dir) if config.cache_dir else None
    models = load_embedding_models(config)
    result = extract_for_manifest(manifest, config, cache, models)
    for failure in result.failures:
        log.warning("skipped %s: %s", failure.path, failure.reason)
    log.info("extracted %d/%d rows (%d cache hits, %d computed)",
             len(result.vectors), result.total, result.cache_hits,
             result.computed)
    if not result.vectors:
        raise EmovoxError("no rows extracted successfully")
    return result


def cmd_extract(args) -> int:
    config = load_config(args.config)
    manifest = read_manifest(args.manifest)
    result = _extract(manifest, config)
    _write_text(args.out_csv, feature_csv([row.path for row in result.rows], result.vectors))
    log.info("wrote %s", args.out_csv)
    return EXIT_PARTIAL if result.failures else EXIT_OK


def cmd_evaluate(args) -> int:
    config = load_config(args.config)
    manifest = read_manifest(args.manifest)
    # The manifest alone decides whether folding is feasible, the class count
    # and whether the positive label exists, so check them before extracting.
    make_folds(manifest, config.mode, config.k_outer, config.k_inner, seed=config.seed)
    classes = sorted({row.label for row in manifest})
    if len(classes) < 2:
        raise EvaluationError("need at least 2 classes, got %d" % len(classes))
    if config.positive_label is not None and config.positive_label not in classes:
        raise EvaluationError("positive label %r not among classes %s"
                              % (config.positive_label, tuple(classes)))
    result = _extract(manifest, config)
    plan = make_folds(result.rows, config.mode, config.k_outer, config.k_inner,
                      seed=config.seed)
    report = nested_cv(result.rows, np.array([v.values for v in result.vectors]), plan,
                       config.grid(), positive_label=config.positive_label)
    _write_text(args.report, format_report(report))
    _write_text(args.metrics_csv, fold_metrics_csv(report))
    log.info("wrote %s and %s", args.report, args.metrics_csv)
    if report.roc_points:
        _write_text(args.roc_csv, roc_csv(report))
        log.info("wrote %s", args.roc_csv)
    log.info("aggregate UAR %.4f ACC %.4f", report.mean_uar, report.mean_acc)
    return EXIT_PARTIAL if result.failures else EXIT_OK


def cmd_train(args) -> int:
    config = load_config(args.config)
    manifest = read_manifest(args.manifest)
    trainable_classes(row.label for row in manifest)  # before extracting, as evaluate checks
    result = _extract(manifest, config)
    feats = np.array([v.values for v in result.vectors])
    labels = [row.label for row in result.rows]
    model = train_multiclass(feats, labels, config.train_c, config.train_gamma)
    modelio.save_svm(args.model, model, scheme=config.scheme,
                     feature_dim=feats.shape[1])
    log.info("trained on %d rows (C=%g gamma=%g); wrote %s",
             len(labels), config.train_c, config.train_gamma, args.model)
    return EXIT_PARTIAL if result.failures else EXIT_OK


def cmd_predict(args) -> int:
    config = load_config(args.config)
    manifest = read_manifest(args.manifest)
    model, meta = modelio.load_svm(args.model)
    if meta.get("scheme") and meta["scheme"] != config.scheme:
        log.error("model was trained on scheme %r but config requests %r",
                  meta["scheme"], config.scheme)
        return EXIT_FATAL
    result = _extract(manifest, config)
    feats = np.array([v.values for v in result.vectors])
    if feats.shape[1] != meta["feature_dim"]:
        log.error("model expects %d-dim features, extracted %d dims",
                  meta["feature_dim"], feats.shape[1])
        return EXIT_FATAL
    labels, margins = predict_with_margins(model, feats)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["source_id", "label"]
                    + ["score_%s" % c for c in model.classes])
    for row, lab, row_margin in zip(result.rows, labels, margins):
        writer.writerow([row.path, lab]
                        + ["%.17g" % m for m in row_margin])
    _write_text(args.out_csv, buf.getvalue())
    log.info("wrote %s (%d rows)", args.out_csv, len(labels))
    return EXIT_PARTIAL if result.failures else EXIT_OK


def _mean_std(values) -> tuple:
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return (float("nan"), float("nan"))
    return (float(arr.mean()), float(arr.std(ddof=1)) if arr.size > 1 else 0.0)


def _stats_text(manifest: tuple[ManifestRow, ...], durations: dict) -> str:
    classes = sorted({row.label for row in manifest})
    lines = ["corpus statistics", "=" * 17, ""]
    lines.append("rows: %d" % len(manifest))
    lines.append("classes: %d (%s)" % (len(classes), ", ".join(classes)))
    lines.append("")
    per_class_gender = {}
    for cls in classes:
        rows = [r for r in manifest if r.label == cls]
        durs = [durations[r.path] for r in rows if durations.get(r.path) is not None]
        mean, std = _mean_std(durs)
        genders = {g: sum(1 for r in rows if r.gender == g) for g in GENDERS}
        per_class_gender[cls] = genders
        lines.append("class %s:" % cls)
        lines.append("  count: %d" % len(rows))
        if durs:
            lines.append("  duration_s: %.2f +/- %.2f (n=%d)"
                         % (mean, std, len(durs)))
        else:
            lines.append("  duration_s: unavailable")
        lines.append("  gender: " + " ".join("%s=%d" % kv for kv in genders.items()))
        lines.append("")
    if len(classes) == 1:
        lines.append("tests skipped: only one class present")
        return "\n".join(lines) + "\n"
    if len(classes) != 2:
        lines.append("tests skipped: Welch t and chi-square need exactly "
                     "two classes (found %d)" % len(classes))
        return "\n".join(lines) + "\n"
    a_cls, b_cls = classes
    a_durs = [durations[r.path] for r in manifest
              if r.label == a_cls and durations.get(r.path) is not None]
    b_durs = [durations[r.path] for r in manifest
              if r.label == b_cls and durations.get(r.path) is not None]
    try:
        t, p = welch_t_test(a_durs, b_durs)
        lines.append("welch_t duration %s vs %s: t=%.4f p=%.3g"
                     % (a_cls, b_cls, t, p))
    except EmovoxError as exc:
        lines.append("welch_t skipped: %s" % exc)
    table = [[per_class_gender[a_cls]["m"], per_class_gender[a_cls]["f"]],
             [per_class_gender[b_cls]["m"], per_class_gender[b_cls]["f"]]]
    try:
        chi2, p = chi_square_independence(table)
        lines.append("chi_square gender x class: chi2=%.4f p=%.3g" % (chi2, p))
    except EmovoxError as exc:
        lines.append("chi_square skipped: %s" % exc)
    return "\n".join(lines) + "\n"


def cmd_stats(args) -> int:
    manifest = read_manifest(args.manifest)
    durations = {}
    failures = 0
    for row in manifest:
        if row.duration_s is not None:
            durations[row.path] = row.duration_s
        else:
            try:
                durations[row.path] = load_audio(row.path).duration_s
            except (EmovoxError, OSError) as exc:
                log.warning("no duration for %s: %s", row.path, exc)
                durations[row.path] = None
                failures += 1
    text = _stats_text(manifest, durations)
    if args.out:
        _write_text(args.out, text)
    else:
        sys.stdout.write(text)
    return EXIT_PARTIAL if failures else EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="emovox",
        description="Speech emotion / satisfaction feature extraction and "
                    "SVM evaluation toolkit")
    parser.add_argument("-v", "--verbose", action="store_true",
                        help="debug-level logging")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="extract features for a manifest")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("evaluate", help="nested cross-validation experiment")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--metrics-csv", required=True)
    p.add_argument("--roc-csv", default="roc.csv",
                   help="written only for binary tasks")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("train", help="train an SVM at fixed C and gamma")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("predict", help="label a manifest with a trained model")
    p.add_argument("--manifest", required=True)
    p.add_argument("--config", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("--out-csv", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("stats", help="corpus statistics report")
    p.add_argument("--manifest", required=True)
    p.add_argument("--out", default=None,
                   help="write the report here instead of stdout")
    p.set_defaults(func=cmd_stats)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(
        level=logging.DEBUG if args.verbose else logging.INFO,
        format="%(levelname)s %(message)s", stream=sys.stderr)
    try:
        return args.func(args)
    except EmovoxError as exc:
        log.error("%s", exc)
        return EXIT_FATAL
    except FileNotFoundError as exc:
        log.error("%s", exc)
        return EXIT_FATAL


if __name__ == "__main__":
    sys.exit(main())
