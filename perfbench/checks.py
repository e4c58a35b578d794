"""Output checks.  Each compares an output with an independent computation or
with a property the method must have; a failed check raises CheckFailed."""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np
from scipy.special import logsumexp

# Documented per-scheme dimensions (README "Layout"; i-vectors: the TV rank).
DIMS = {"phonation": 28, "articulation": 488, "prosody": 78,
        "i2010pc": 1596, "xvector": 512}
PROSODY_F0_MEAN = 0      # docs/prosody_features.md: f0_contour.mean
PROSODY_F0_MAX = 4       # docs/prosody_features.md: f0_contour.max
PROSODY_F0_MIN = 5       # docs/prosody_features.md: f0_contour.min
F0_TOLERANCE = 0.05
F0_MAX_ROUGHNESS = 0.3
# The pitch tracker drops to a subharmonic F0/m (m = 2, 3, ... down to its
# 60 Hz floor) on some frames of many clean voices (see CHANGES.md).  A row
# whose mean misses F0 by more than 5 % passes only if it shows exactly that
# fault: contour minimum within 10 % of F0/m, mean between F0/m and F0, and
# the true F0 still found (maximum near F0, which the synthesis intonation
# puts at 1.03 F0).
F0_FLOOR_HZ = 60.0       # estimate_f0's lowest F0
F0_SUBHARMONIC_TOLERANCE = 0.10
F0_MAX_RANGE = (0.95, 1.2)
F0_MIN_WITHIN = 1.0 / 3  # share of checked rows whose mean must be within 5 %
UAR_MARGIN = 0.15        # "clearly above chance": UAR >= 1/k + margin
EXACT = 1e-12


class CheckFailed(Exception):
    pass


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def sha256(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def scheme_layout(schemes, ivector_rank=0):
    """(scheme, offset, width) for each member of a fused vector."""
    out, offset = [], 0
    for s in schemes:
        width = ivector_rank if s == "ivector" else DIMS[s]
        out.append((s, offset, width))
        offset += width
    return out


def read_features(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, body = rows[0], rows[1:]
    ids = [r[0] for r in body]
    values = np.array([[float(v) for v in r[1:]] for r in body]).reshape(len(body), -1)
    return header, ids, values


def check_rows(path, rows, layout):
    """Manifest rows in manifest order, each with the documented width.

    Rows the program reports as failed are absent; the caller counts them.
    """
    header, ids, values = read_features(path)
    dim = sum(w for _s, _o, w in layout)
    require(header == ["source_id"] + ["f%d" % i for i in range(dim)],
            "feature CSV header does not have %d columns" % dim)
    found = set(ids)
    require(ids == [r.path for r in rows if r.path in found],
            "feature CSV rows are not manifest rows in manifest order")
    require(values.shape == (len(ids), dim), "feature matrix shape %s" % (values.shape,))
    require(bool(np.all(np.isfinite(values))), "non-finite feature values")
    return dict(zip(ids, values))


def check_f0(features, rows, layout):
    """Prosody F0 statistics against the synthesis F0 on rows with roughness <= 0.3.

    Each row's f0_contour.mean must lie within 5 % of the synthesis F0, or
    the row must show the tracker's subharmonic fault as described above; a
    row without voiced F0 fails.  At least a third of the rows must pass
    the 5 % test.  Returns (rows within 5 %, rows with the fault).
    """
    offset = dict((s, o) for s, o, _w in layout)["prosody"]
    within = subharmonic = 0
    for r in rows:
        if r.roughness > F0_MAX_ROUGHNESS:
            continue
        values = features[r.path]
        mean, top, low = (values[offset + i] / r.f0_hz
                          for i in (PROSODY_F0_MEAN, PROSODY_F0_MAX, PROSODY_F0_MIN))
        require(low > 0.0, "%s: no voiced F0 (synthesised %.1f Hz)" % (r.path, r.f0_hz))
        if abs(mean - 1.0) <= F0_TOLERANCE:
            within += 1
            continue
        fault = any(abs(low * m - 1.0) <= F0_SUBHARMONIC_TOLERANCE and 1.0 / m <= mean < 1.0
                    for m in range(2, int(r.f0_hz * (1.0 + F0_SUBHARMONIC_TOLERANCE)
                                          / F0_FLOOR_HZ) + 1))
        require(fault and F0_MAX_RANGE[0] <= top <= F0_MAX_RANGE[1],
                "%s: f0 mean/max/min are %.3f/%.3f/%.3f x the synthesised %.1f Hz"
                % (r.path, mean, top, low, r.f0_hz))
        subharmonic += 1
    require(within >= F0_MIN_WITHIN * (within + subharmonic) and within > 0,
            "only %d of %d rows have an f0 mean within 5 %%"
            % (within, within + subharmonic))
    return within, subharmonic


def reference_ivector(tv, mfcc):
    """Dense posterior mean (I + T'S^-1 N T)^-1 T'S^-1 F from raw frames."""
    ubm = tv.ubm
    x = np.asarray(mfcc, dtype=np.float64)
    log_dens = (np.log(ubm.weights)[None, :]
                - 0.5 * np.sum(np.log(2 * np.pi * ubm.variances), axis=1)[None, :]
                - 0.5 * np.sum((x[:, None, :] - ubm.means[None]) ** 2
                               / ubm.variances[None], axis=2))
    post = np.exp(log_dens - logsumexp(log_dens, axis=1, keepdims=True))
    n_c = post.sum(axis=0)
    f_c = post.T @ x - n_c[:, None] * ubm.means
    dim = ubm.dim
    inv_sigma = 1.0 / ubm.variances.reshape(-1)
    big_n = np.repeat(n_c, dim)
    t = tv.t_matrix
    precision = np.eye(tv.rank) + t.T @ ((inv_sigma * big_n)[:, None] * t)
    return np.linalg.solve(precision, t.T @ (inv_sigma * f_c.reshape(-1)))


def check_ivectors(features, sample_rows, layout, tv_path, wav_root):
    from emovox import modelio
    from emovox.pipeline import embedding_mfcc, load_audio

    tv = modelio.load_tv(tv_path)
    _s, offset, width = [e for e in layout if e[0] == "ivector"][0]
    for r in sample_rows:
        mfcc = embedding_mfcc(load_audio(os.path.join(wav_root, r.path)))
        want = reference_ivector(tv, mfcc)
        got = features[r.path][offset:offset + width]
        err = float(np.max(np.abs(got - want)))
        require(err <= 1e-7 * (1.0 + float(np.max(np.abs(want)))),
                "%s: i-vector differs from the dense solve by %.3g" % (r.path, err))


def parse_report(text):
    head, folds = {}, []
    for line in text.splitlines():
        if line.startswith("fold "):
            folds.append({"confusion": []})
        elif line.startswith("  "):
            key, _, value = line.strip().partition(": ")
            if key == "confusion_row":
                folds[-1]["confusion"].append([int(v) for v in value.split(",")])
            else:
                folds[-1][key] = value
        else:
            key, _, value = line.partition(": ")
            head[key] = value
    return head, folds


def check_report(report_path, metrics_path, mode, grid, n_classes, accuracy):
    """Fold metrics, leakage audit, selection and (if ``accuracy``) UAR of one report.

    Returns the report header, the number of rows tested across folds and
    the (C, gamma) selected in each fold.
    """
    with open(report_path, encoding="utf-8") as fh:
        head, folds = parse_report(fh.read())
    classes = head["classes"].split(",")
    require(len(classes) == n_classes, "report lists classes %s" % classes)
    require(len(folds) == int(head["k_outer"]), "fold count mismatch")
    pos = classes.index(head["positive_label"]) if "positive_label" in head else None
    uars, cells = [], []
    pooled = np.zeros((n_classes, n_classes))
    tested = sum(int(f["test_count"]) for f in folds)   # each row is tested once
    for i, f in enumerate(folds):
        m = np.array(f["confusion"], dtype=np.float64)
        require(m.shape == (n_classes, n_classes), "fold %d confusion shape" % i)
        rows = m.sum(axis=1)
        uar = float(np.mean(np.diag(m)[rows > 0] / rows[rows > 0]))
        acc = float(np.trace(m) / m.sum())
        want = {"uar": uar, "acc": acc}
        if pos is not None:
            want["sen"] = m[pos, pos] / rows[pos]
            want["spe"] = m[1 - pos, 1 - pos] / rows[1 - pos]
        for key, value in want.items():
            require(abs(float(f[key]) - value) <= EXACT,
                    "fold %d: %s %s != recomputed %r" % (i, key, f[key], value))
        require(int(f["test_count"]) == int(m.sum()), "fold %d: test_count" % i)
        require(int(f["leaked_ids"]) == 0, "fold %d: leaked ids" % i)
        if mode == "speaker_independent":
            require(int(f["inner_ids"]) + int(f["test_count"]) == tested,
                    "fold %d: inner_ids + test_count != %d" % (i, tested))
        require(any(math.isclose(float(f["c"]), c, rel_tol=EXACT) for c in grid[0])
                and any(math.isclose(float(f["gamma"]), g, rel_tol=EXACT)
                        for g in grid[1]),
                "fold %d: (C, gamma) = (%s, %s) is off the grid" % (i, f["c"], f["gamma"]))
        uars.append(float(f["uar"]))
        cells.append((f["c"], f["gamma"]))
        pooled += m
    mean_uar = float(head["mean_uar"])
    require(abs(mean_uar - float(np.mean(uars))) <= EXACT, "mean_uar is not the fold mean")
    require(not accuracy or mean_uar >= 1.0 / n_classes + UAR_MARGIN,
            "UAR %.3f is not clearly above chance" % mean_uar)
    # Overlapping classes: at UAR 1.0 a worse (C, gamma) choice would not show.
    require(not accuracy or pooled.sum() > np.trace(pooled),
            "no test row is misclassified: the classes are separable")
    with open(metrics_path, encoding="utf-8") as fh:
        table = list(csv.DictReader(fh))
    for f, row in zip(folds, table):
        for key in ("c", "gamma", "uar", "acc", "sen", "spe", "test_count"):
            require(row[key] == f.get(key, ""), "metrics CSV disagrees on %s" % key)
    require(len(table) == len(folds), "metrics CSV fold count")
    return head, tested, tuple(cells)


def check_roc(roc_path, auc):
    with open(roc_path, encoding="utf-8") as fh:
        pts = np.array([[float(v) for v in r] for r in list(csv.reader(fh))[1:]])
    fpr, tpr = pts[:, 0], pts[:, 1]
    require(tuple(pts[0]) == (0.0, 0.0) and tuple(pts[-1]) == (1.0, 1.0),
            "ROC does not run from (0,0) to (1,1)")
    require(bool(np.all(np.diff(fpr) >= 0) and np.all(np.diff(tpr) >= 0)),
            "ROC is not monotone")
    area = float(np.sum(np.diff(fpr) * (tpr[1:] + tpr[:-1]) / 2.0))
    require(abs(area - auc) <= 1e-9, "ROC area %r != reported auc %r" % (area, auc))


def same(label, digests):
    """All runs of the same inputs produced the same bytes."""
    require(len(set(digests)) == 1, "%s differs between runs: %s" % (label, sorted(set(digests))))
    return digests[0]

