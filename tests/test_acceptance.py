"""Acceptance checks: one test per shipping criterion, tolerances pinned.

Each test prints a single ``PASS: criterion N`` line on success so a verbose
run reads as a checklist.  Criterion 8 needs the Berlin EMODB corpus on disk
and is skipped unless EMOVOX_EMODB_DIR points at its wav directory.
"""

import importlib.util
import math
import os
import time

import numpy as np
import pytest
from scipy.fft import dct
from scipy.linalg import subspace_angles

from emovox.cli import main as cli_main
from emovox.dsp import estimate_f0, teager_energy
from emovox.embeddings import (
    GmmUbm,
    TotalVariabilityModel,
    extract_ivector,
    random_xvector_weights,
    stats_pool,
    frame_representations,
    train_total_variability,
    train_ubm,
    xvector_forward,
)
from emovox.evaluation import (
    SPEAKER_DEPENDENT,
    SPEAKER_INDEPENDENT,
    fold_metrics_csv,
    format_report,
    make_folds,
    metrics,
    nested_cv,
    roc_curve,
)
from emovox.features import SCHEME_DIMS
from emovox.features.phonation import phonation_features
from emovox.manifest import ManifestRow, write_manifest
from emovox.pipeline import extract_scheme
from emovox.svm import train_binary_smo

from conftest import dual_objective, make_corpus, tone, voice_like, wf, write_pcm16
from test_evaluation import SMALL_GRID, blob_dataset, mann_whitney_auc
from test_features import pulse_train
from test_svm import kkt_worst_violation, projected_gradient_dual

_EMODB_DIR = os.environ.get("EMOVOX_EMODB_DIR", "")


class budget:
    """Assert the block finishes inside its runtime allowance."""

    def __init__(self, seconds):
        self.seconds = seconds

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        self.elapsed = time.perf_counter() - self.t0
        if exc_type is None:
            assert self.elapsed < self.seconds, (
                "runtime %.1fs exceeded the %.0fs budget"
                % (self.elapsed, self.seconds))
        return False


def test_criterion_1_feature_dimensionality():
    rng = np.random.default_rng(101)
    want = {"articulation": 488, "phonation": 28, "prosody": 78,
            "i2010pc": 1596}
    assert {k: SCHEME_DIMS[k] for k in want} == want
    with budget(60) as b:
        for i in range(100):
            n = int(rng.integers(2000, 8000))
            t = np.arange(n) / 8000.0
            x = (rng.uniform(0.1, 0.6) * np.sin(2 * np.pi * rng.uniform(90, 280) * t)
                 + rng.uniform(0.0, 0.3) * rng.standard_normal(n))
            w = wf(np.clip(x, -0.99, 0.99))
            for scheme, dim in want.items():
                vec = extract_scheme(w, scheme)
                assert vec.dim == dim, (scheme, i)
                assert np.all(np.isfinite(vec.values))
    print("PASS: criterion 1 — dims art=488 pho=28 pro=78 pc=1596 held over "
          "100 random waveforms (%.1fs)" % b.elapsed)


def test_criterion_2_dsp_oracles():
    with budget(60) as b:
        for f0 in (120.0, 200.0, 300.0):
            track = estimate_f0(wf(tone(f0, dur_s=1.0, amp=0.6)))
            voiced = track.values[track.values > 0]
            assert voiced.size >= 0.5 * track.values.size
            ok = np.abs(voiced - f0) <= 0.05 * f0
            assert np.mean(ok) >= 0.95, f0

        periods = [0.005 if i % 2 == 0 else 0.00505 for i in range(150)]
        vec = phonation_features(wf(pulse_train(periods)))
        jitter = vec.values[8]
        assert abs(jitter - 0.995) <= 0.05 * 0.995

        amp, omega = 0.7, 0.3
        psi = teager_energy(amp * np.cos(omega * np.arange(2000)))
        assert np.max(np.abs(psi - amp ** 2 * math.sin(omega) ** 2)) <= 1e-6

        m = dct(np.eye(24), type=2, norm="ortho", axis=0)
        assert np.max(np.abs(m @ m.T - np.eye(24))) <= 1e-9
    print("PASS: criterion 2 — F0 within 5%% on >=95%% voiced frames, jitter "
          "within 5%% of 0.995%%, TEO<=1e-6, DCT orthonormal<=1e-9 (%.1fs)"
          % b.elapsed)


def _random_gmm(rng, c, d):
    weights = rng.dirichlet(np.ones(c) * 4.0)
    means = rng.standard_normal((c, d)) * 2.0
    variances = rng.uniform(0.3, 2.0, (c, d))
    return GmmUbm(weights, means, variances)


def test_criterion_3_ivector_correctness():
    with budget(300) as b:
        rng = np.random.default_rng(33)
        worst = 0.0
        for _ in range(50):
            c = int(rng.integers(2, 6))
            d = int(rng.integers(2, 5))
            rank = int(rng.integers(1, 4))
            ubm = _random_gmm(rng, c, d)
            t = rng.standard_normal((c * d, rank))
            occ = rng.uniform(0.5, 30.0, c)
            first = rng.standard_normal((c, d))
            model = TotalVariabilityModel(t, ubm, rank)
            w = extract_ivector(model, (occ, first))
            sigma_inv = np.diag(1.0 / ubm.variances.reshape(-1))
            n_big = np.diag(np.repeat(occ, d))
            lhs = np.eye(rank) + t.T @ sigma_inv @ n_big @ t
            rhs = t.T @ sigma_inv @ first.reshape(-1)
            ref = np.linalg.solve(lhs, rhs)
            worst = max(worst, float(np.max(np.abs(w - ref))))
            zero = extract_ivector(model, (occ, np.zeros((c, d))))
            assert np.all(zero == 0.0)
        assert worst <= 1e-9, worst

        # EM objective monotonicity on overlapping synthetic data
        mix = np.concatenate([
            rng.standard_normal((1500, 4)) + off for off in (-0.8, 0.0, 0.8)
        ])
        ubm = train_ubm(mix, 4, n_iters=20, seed=0)
        lls = np.array(ubm.log_likelihoods)
        assert lls.size >= 5
        assert np.all(np.diff(lls) >= -1e-8 * np.maximum(1.0, np.abs(lls[:-1])))

        # TV training: monotone objective and rank-2 subspace recovery
        c, d, rank = 4, 3, 2
        base = _random_gmm(np.random.default_rng(7), c, d)
        t_true = np.linalg.qr(rng.standard_normal((c * d, rank)))[0] * 2.0
        stats = []
        for _ in range(80):
            w_true = rng.standard_normal(rank)
            occ = rng.uniform(5.0, 40.0, c)
            clean = (t_true @ w_true).reshape(c, d) * occ[:, None]
            noise = (np.sqrt(occ[:, None] * base.variances)
                     * rng.standard_normal((c, d)) * 0.1)
            stats.append((occ, clean + noise))
        tv = train_total_variability(stats, base, rank, n_iters=20, seed=1)
        obj = np.array(tv.objectives)
        assert obj.size == 20
        assert np.all(np.diff(obj) >= -1e-8 * np.maximum(1.0, np.abs(obj[:-1])))
        angle = np.max(subspace_angles(tv.t_matrix, t_true))
        assert angle < math.radians(10.0), math.degrees(angle)
    print("PASS: criterion 3 — i-vector dense-solve oracle<=1e-9 (worst "
          "%.2e), F=0=>w=0, UBM/TV objectives monotone, subspace angle "
          "%.1f deg (%.1fs)" % (worst, math.degrees(angle), b.elapsed))


def test_criterion_4_svm_correctness():
    with budget(120) as b:
        worst_gap = 0.0
        worst_kkt = 0.0
        for seed in range(20):
            r = np.random.default_rng(seed)
            x = r.standard_normal((10, 3))
            y = np.where(r.random(10) < 0.5, -1.0, 1.0)
            if np.all(y == y[0]):
                y[0] = -y[0]
            c, gamma = 1.5, 0.7
            model = train_binary_smo(x, y, c, gamma, tol=1e-8,
                                     max_passes=200_000)
            diff = np.sum(x ** 2, 1)[:, None] + np.sum(x ** 2, 1)[None, :] \
                - 2.0 * x @ x.T
            kmat = np.exp(-gamma * np.maximum(diff, 0.0))
            ref = projected_gradient_dual(kmat, y, c, iters=10_000)
            worst_gap = max(worst_gap, abs(dual_objective(model) - ref))
            worst_kkt = max(worst_kkt, kkt_worst_violation(model, x, y))
        assert worst_gap <= 1e-4, worst_gap

        xor_x = np.array([[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])
        xor_y = np.array([1.0, -1.0, -1.0, 1.0])
        xor = train_binary_smo(xor_x, xor_y, 10.0, 1.0)
        assert np.all(np.sign(xor.decision_values(xor_x)) == xor_y)
        worst_kkt = max(worst_kkt, kkt_worst_violation(xor, xor_x, xor_y))
        assert worst_kkt <= 1e-3 + 1e-7, worst_kkt
    print("PASS: criterion 4 — SMO dual within %.2e of PG oracle on 20 "
          "problems, KKT worst %.2e <= 1e-3, XOR exact (%.1fs)"
          % (worst_gap, worst_kkt, b.elapsed))


def test_criterion_5_nested_cv_integrity():
    with budget(300) as b:
        rng = np.random.default_rng(8)
        samples, feats = blob_dataset(rng)
        plan = make_folds(samples, SPEAKER_INDEPENDENT, 5, 5, seed=4)
        report = nested_cv(samples, feats, plan, SMALL_GRID)
        assert report.mean_uar >= 0.95
        for touched, tested, leaked in report.leakage:
            assert leaked == 0
            assert touched == len(samples) - tested

        report2 = nested_cv(samples, feats, plan, SMALL_GRID)
        assert format_report(report) == format_report(report2)
        assert fold_metrics_csv(report) == fold_metrics_csv(report2)

        base, bfeats = blob_dataset(np.random.default_rng(10), n_per=20)
        uars = []
        for rep in range(5):
            labels = [s.label for s in base]
            perm = rng.permutation(len(labels))
            shuffled = [ManifestRow(s.path, labels[perm[i]], s.speaker)
                        for i, s in enumerate(base)]
            pplan = make_folds(shuffled, SPEAKER_DEPENDENT, 5, 5, seed=rep)
            uars.append(nested_cv(shuffled, bfeats, pplan, SMALL_GRID).mean_uar)
        chance_gap = abs(float(np.mean(uars)) - 1.0 / 3.0)
        assert chance_gap <= 0.1, uars
    print("PASS: criterion 5 — leakage 0 everywhere, blob UAR %.3f >= 0.95, "
          "permuted-label UAR off chance by %.3f <= 0.1, same-seed reports "
          "byte-identical (%.1fs)" % (report.mean_uar, chance_gap, b.elapsed))


def test_criterion_6_metrics():
    with budget(60) as b:
        m = metrics([[9, 1], [4, 6]])
        assert m.uar == 0.75
        assert m.acc == 0.75

        _, auc = roc_curve([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert auc == 0.75

        rng = np.random.default_rng(66)
        worst = 0.0
        for _ in range(100):
            n = int(rng.integers(6, 50))
            scores = np.round(rng.standard_normal(n), int(rng.integers(1, 9)))
            labels = rng.random(n) < 0.5
            if labels.all() or not labels.any():
                labels[0] = ~labels[0]
            _, a = roc_curve(scores, labels)
            worst = max(worst, abs(a - mann_whitney_auc(scores, labels)))
        assert worst <= 1e-9, worst
    print("PASS: criterion 6 — UAR/ACC exactly 0.75, AUC hand case exactly "
          "0.75, AUC==Mann-Whitney within %.1e on 100 sets (%.1fs)"
          % (worst, b.elapsed))


def test_criterion_7_xvector_forward():
    with budget(60) as b:
        weights = random_xvector_weights(n_classes=6, seed=77)
        rng = np.random.default_rng(77)
        mfcc = rng.standard_normal((120, 24))
        emb = xvector_forward(weights, mfcc)
        assert emb.shape == (512,)

        const = np.tile(rng.standard_normal(24), (60, 1))
        reps = frame_representations(weights, const)
        pooled = stats_pool(reps)
        assert np.all(pooled[1500:] == 0.0)

        h = frame_representations(weights, mfcc)
        perm = rng.permutation(h.shape[0])
        assert np.array_equal(stats_pool(h[perm]), stats_pool(h))
    print("PASS: criterion 7 — x-vector dim 512, constant-input std block "
          "exactly 0, frame permutation exact (%.1fs)" % b.elapsed)


def _load_emodb_parser():
    path = os.path.join(os.path.dirname(__file__), "..", "scripts",
                        "make_manifest.py")
    spec = importlib.util.spec_from_file_location("make_manifest", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.parse_emodb


@pytest.mark.skipif(not _EMODB_DIR,
                    reason="set EMOVOX_EMODB_DIR to the EMODB wav directory "
                           "to run the indicative open-data check")
def test_criterion_8_emodb_indicative(tmp_path):
    parse_emodb = _load_emodb_parser()
    rows = []
    for dirpath, _, files in sorted(os.walk(_EMODB_DIR)):
        for name in sorted(files):
            if not name.lower().endswith(".wav"):
                continue
            parsed = parse_emodb(name)
            if parsed:
                label, speaker, gender = parsed
                rows.append(ManifestRow(os.path.join(dirpath, name), label,
                                        speaker, gender))
    assert len(rows) == 535, "expected the 535-utterance EMODB corpus"
    manifest = tmp_path / "emodb.csv"
    write_manifest(manifest, rows)

    with budget(7200) as b:
        results = {}
        for scheme in ("articulation+prosody+phonation", "i2010pc"):
            cfg = tmp_path / (scheme.replace("+", "_") + ".cfg")
            cfg.write_text("scheme = %s\nmode = speaker_independent\n"
                           "k_outer = 5\nk_inner = 5\nseed = 0\n"
                           "cache_dir = %s\n" % (scheme, tmp_path / "cache"))
            report = tmp_path / (scheme.replace("+", "_") + ".txt")
            rc = cli_main(["evaluate", "--manifest", str(manifest),
                           "--config", str(cfg), "--report", str(report),
                           "--metrics-csv", str(tmp_path / "m.csv"),
                           "--roc-csv", str(tmp_path / "r.csv")])
            assert rc == 0
            text = report.read_text()
            results[scheme] = float(text.split("mean_uar: ")[1].splitlines()[0])
        fused = results["articulation+prosody+phonation"]
        assert fused >= 0.40, results
        assert results["i2010pc"] >= fused - 0.10, results
    print("PASS: criterion 8 — EMODB 7-class SI UAR fused %.3f >= 0.40, "
          "i2010pc %.3f >= fused-0.10 (%.0fs)"
          % (fused, results["i2010pc"], b.elapsed))


def test_criterion_9_end_to_end_robustness(tmp_path):
    with budget(120) as b:
        rows = make_corpus(tmp_path, n_per_class=6, seed=9)
        write_pcm16(tmp_path / "silence.wav", np.zeros(8000), 8000)
        rows.append(ManifestRow(str(tmp_path / "silence.wav"), "smooth",
                                "spk0", "m"))
        clipped = np.clip(3.0 * voice_like(150.0, rough=1.0, seed=5), -0.999,
                          0.999)
        write_pcm16(tmp_path / "clipped.wav", clipped, 8000)
        rows.append(ManifestRow(str(tmp_path / "clipped.wav"), "rough",
                                "spk1", "f"))
        write_pcm16(tmp_path / "tiny.wav", tone(200, dur_s=0.010), 8000)
        rows.append(ManifestRow(str(tmp_path / "tiny.wav"), "smooth", "spk2",
                                "m"))
        rows.append(ManifestRow(str(tmp_path / "missing.wav"), "rough",
                                "spk3", "f"))
        manifest = tmp_path / "robust.csv"
        write_manifest(manifest, rows)
        cfg = tmp_path / "robust.cfg"
        cfg.write_text("scheme = phonation\nmode = speaker_dependent\n"
                       "k_outer = 2\nk_inner = 2\n"
                       "c_exp_min = 0\nc_exp_max = 1\n"
                       "gamma_exp_min = -2\ngamma_exp_max = -1\n"
                       "cache_dir = %s\n" % (tmp_path / "cache"))

        features = tmp_path / "features.csv"
        rc = cli_main(["extract", "--manifest", str(manifest),
                       "--config", str(cfg), "--out-csv", str(features)])
        assert rc == 1  # the missing path makes this a partial success
        lines = features.read_text().strip().split("\n")
        assert len(lines) == len(rows)  # header + all rows except the missing
        for line in lines[1:]:
            values = np.array([float(c) for c in line.split(",")[1:]])
            assert np.all(np.isfinite(values))

        rc = cli_main(["evaluate", "--manifest", str(manifest),
                       "--config", str(cfg),
                       "--report", str(tmp_path / "report.txt"),
                       "--metrics-csv", str(tmp_path / "metrics.csv"),
                       "--roc-csv", str(tmp_path / "roc.csv")])
        assert rc == 1
        text = (tmp_path / "report.txt").read_text()
        assert math.isfinite(float(text.split("mean_uar: ")[1].splitlines()[0]))
    print("PASS: criterion 9 — extract+evaluate completed with partial exit "
          "on silence/clipped/10ms/missing manifest; feature CSV NaN/Inf "
          "free (%.1fs)" % b.elapsed)
