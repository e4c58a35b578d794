"""End-to-end command-line checks: extract, evaluate, train, predict, stats."""

import os
import subprocess
import sys

import numpy as np
import pytest

import emovox
from emovox.cli import main
from emovox.manifest import ManifestRow, write_manifest

from conftest import craft_wav, make_corpus, tone, voice_like, write_pcm16


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Shared corpus + config; module scope so the cache warms across tests."""
    root = tmp_path_factory.mktemp("cli")
    rows = make_corpus(root, n_per_class=8, seed=2)
    manifest = root / "corpus.csv"
    write_manifest(manifest, rows)
    config = root / "exp.cfg"
    config.write_text(
        "scheme = phonation\n"
        "mode = speaker_independent\n"
        "k_outer = 2\n"
        "k_inner = 2\n"
        "c_exp_min = 0\nc_exp_max = 1\n"
        "gamma_exp_min = -2\ngamma_exp_max = -1\n"
        "seed = 5\n"
        "cache_dir = %s\n" % (root / "cache"))
    return root, manifest, config, rows


SRC = os.path.dirname(os.path.dirname(os.path.abspath(emovox.__file__)))


# The extraction stack, and numpy.ma: a command on a warm cache loads none of it.
EXTRACTION_STACK = ("emovox.audio", "emovox.dsp", "emovox.analysis", "emovox.functionals",
                    "emovox.features.phonation", "emovox.features.articulation",
                    "emovox.features.prosody", "emovox.features.i2010pc",
                    "emovox.embeddings", "numpy.ma")


def under(name, prefixes):
    """Whether module ``name`` is one of ``prefixes`` or lies under one."""
    return any(name == p or name.startswith(p + ".") for p in prefixes)


def fresh_cli(argv, prefixes=("scipy",)):
    """Run ``emovox argv`` in a fresh interpreter (``[]``: import the CLI only).

    Returns the exit code (0 for a bare import) and the sorted names of the
    modules under ``prefixes`` (``under``) that the interpreter had loaded
    when it finished.
    """
    code = ("import sys; from emovox.cli import main; "
            "rc = main(sys.argv[1:]) if sys.argv[1:] else 0; "
            "print(rc, *sorted(sys.modules))")
    out = subprocess.run([sys.executable, "-c", code] + [str(a) for a in argv],
                         env=dict(os.environ, PYTHONPATH=SRC),
                         capture_output=True, text=True, check=True, timeout=600)
    rc, *loaded = out.stdout.splitlines()[-1].split()
    return int(rc), [m for m in loaded if under(m, prefixes)]


def test_cli_import_leaves_scipy_unloaded():
    # every command but stats runs on NumPy alone, so none pays for
    # importing SciPy at start-up
    assert fresh_cli([]) == (0, [])


def test_cli_import_loads_no_extraction_stack():
    # the DSP, feature and embedding modules load on a row's first cache miss
    assert fresh_cli([], EXTRACTION_STACK) == (0, [])


def test_extract_leaves_scipy_unloaded(workspace, tmp_path):
    # nothing in the six-scheme extract (resampler, F0, MFCC, GMM
    # posteriors) may pull SciPy in, whatever the mix of input rates
    from emovox.embeddings import GmmUbm, TotalVariabilityModel, random_xvector_weights
    from emovox.modelio import save_tv, save_xvector

    _, _, _, rows = workspace
    mixed = [ManifestRow(str(write_pcm16(tmp_path / ("r%d.wav" % rate),
                                         voice_like(f0, rate=rate, seed=rate), rate)),
                         "smooth", "spk8", "m")
             for rate, f0 in ((16000, 140.0), (44100, 210.0))]
    rows = rows + mixed
    manifest = tmp_path / "mixed.csv"
    write_manifest(manifest, rows)
    rng = np.random.default_rng(3)
    ubm = GmmUbm(np.full(2, 0.5), rng.standard_normal((2, 24)), np.ones((2, 24)))
    save_tv(tmp_path / "tv.emvx",
            TotalVariabilityModel(0.1 * rng.standard_normal((48, 2)), ubm, 2))
    save_xvector(tmp_path / "xv.emvx", random_xvector_weights(seed=0))
    config = tmp_path / "six.cfg"
    config.write_text(
        "scheme = articulation+prosody+phonation+i2010pc+ivector+xvector\n"
        "tv_model = %s\nxvector_model = %s\ncache_dir = %s\n"
        % (tmp_path / "tv.emvx", tmp_path / "xv.emvx", tmp_path / "cache"))
    argv = ["extract", "--manifest", manifest, "--config", config,
            "--out-csv", tmp_path / "six.csv"]
    rc, loaded = fresh_cli(argv, ("scipy",) + EXTRACTION_STACK)
    assert rc == 0
    assert [m for m in loaded if under(m, ("scipy",))] == []
    # a cold extract does load the stack, so the warm-cache checks below
    # are not vacuous
    stack = [p for p in EXTRACTION_STACK if p != "numpy.ma"]
    assert [p for p in stack if not any(under(m, (p,)) for m in loaded)] == []
    assert len((tmp_path / "six.csv").read_text().strip().split("\n")) == len(rows) + 1


def test_threaded_cold_extract_matches_serial(workspace, tmp_path):
    # on a fresh interpreter the first rows of a threaded extract import the
    # extraction stack from several threads at once
    _, manifest, _, _ = workspace
    out = {}
    for workers in (1, 4):
        config = tmp_path / ("w%d.cfg" % workers)
        config.write_text("scheme = phonation+articulation+prosody+i2010pc\n"
                          "workers = %d\n" % workers)
        csv_path = tmp_path / ("w%d.csv" % workers)
        assert fresh_cli(["extract", "--manifest", manifest, "--config", config,
                          "--out-csv", csv_path]) == (0, [])
        out[workers] = csv_path.read_bytes()
    assert out[4] == out[1]


def test_warm_cache_commands_leave_scipy_unloaded(workspace, tmp_path):
    # nor do they load the extraction stack or numpy.ma: a fully cached
    # manifest decodes no audio
    root, manifest, config, _ = workspace
    assert main(["extract", "--manifest", str(manifest), "--config", str(config),
                 "--out-csv", str(tmp_path / "warm.csv")]) == 0
    common = ["--manifest", manifest, "--config", config]
    model = tmp_path / "m.svm"
    for argv in (["evaluate"] + common + ["--report", tmp_path / "report.txt",
                                          "--metrics-csv", tmp_path / "metrics.csv",
                                          "--roc-csv", tmp_path / "roc.csv"],
                 ["train"] + common + ["--model", model],
                 ["predict"] + common + ["--model", model,
                                         "--out-csv", tmp_path / "pred.csv"]):
        assert fresh_cli(argv, ("scipy",) + EXTRACTION_STACK) == (0, []), argv[0]


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def test_output_bytes_do_not_depend_on_blas_threads(tmp_path):
    # OpenBLAS sums a product it splits over threads in another order, so the
    # 44.1 kHz rows' resampler bits would follow the thread count; extract and
    # evaluate must give the same bytes under one, two and the default count
    cpus = set(sorted(os.sched_getaffinity(0))[:2])
    if len(cpus) < 2:
        pytest.skip("one CPU: OpenBLAS runs one thread whatever the setting")
    rows = []
    for i, rate in enumerate((8000, 16000, 44100) * 4):
        label, rough = (("smooth", 0.0), ("rough", 1.0))[i % 2]
        x = voice_like(110.0 + 9.0 * i, 1.0, rate, rough=rough, seed=i)
        rows.append(ManifestRow(str(write_pcm16(tmp_path / ("r%d.wav" % i), x, rate)),
                                label, "spk%d" % (i % 4), "mf"[i % 2]))
    manifest = tmp_path / "rates.csv"
    write_manifest(manifest, rows)
    # the default count is one per CPU of the process: at most two here
    code = ("import os, sys; os.sched_setaffinity(0, %r); from emovox.cli import main; "
            "sys.exit(main(sys.argv[1:]))" % (cpus,))
    outputs = []
    for threads in ("1", "2", None):
        run = tmp_path / ("threads_%s" % threads)
        run.mkdir()
        (run / "exp.cfg").write_text(
            "scheme = i2010pc\nmode = speaker_independent\nk_outer = 2\nk_inner = 2\n"
            "c_exp_min = 0\nc_exp_max = 1\ngamma_exp_min = -2\ngamma_exp_max = -1\n"
            "cache_dir = %s\n" % (run / "cache"))
        env = {k: v for k, v in os.environ.items() if k not in BLAS_VARS}
        env["PYTHONPATH"] = SRC
        if threads:
            env["OPENBLAS_NUM_THREADS"] = threads
        common = ["--manifest", manifest, "--config", run / "exp.cfg"]
        for argv in (["extract"] + common + ["--out-csv", run / "features.csv"],
                     ["evaluate"] + common + ["--report", run / "report.txt", "--metrics-csv",
                                              run / "metrics.csv", "--roc-csv", run / "roc.csv"]):
            subprocess.run([sys.executable, "-c", code] + [str(a) for a in argv], env=env,
                           capture_output=True, check=True)
        outputs.append({f: (run / f).read_bytes()
                        for f in ("features.csv", "report.txt", "metrics.csv", "roc.csv")})
    assert outputs[1] == outputs[0]
    assert outputs[2] == outputs[0]


def test_stats_leaves_scipy_unloaded(tmp_path, rng):
    # the Welch test's incomplete beta is NumPy-free too, so no command
    # needs SciPy
    manifest = tmp_path / "stats.csv"
    make_stats_manifest(manifest, rng)
    assert fresh_cli(["stats", "--manifest", manifest,
                      "--out", tmp_path / "stats.txt"]) == (0, [])


def test_extract_success(workspace):
    root, manifest, config, rows = workspace
    out = root / "features.csv"
    rc = main(["extract", "--manifest", str(manifest), "--config", str(config),
               "--out-csv", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == len(rows) + 1
    assert lines[0].split(",") == ["source_id"] + ["f%d" % i for i in range(28)]
    values = [float(c) for c in lines[1].split(",")[1:]]
    assert np.all(np.isfinite(values))


def test_extract_warm_cache_identical(workspace):
    root, manifest, config, _ = workspace
    a, b = root / "cold.csv", root / "warm.csv"
    main(["extract", "--manifest", str(manifest), "--config", str(config),
          "--out-csv", str(a)])
    rc = main(["extract", "--manifest", str(manifest), "--config", str(config),
               "--out-csv", str(b)])
    assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def test_extract_partial_on_missing_file(workspace, caplog):
    root, _, config, rows = workspace
    broken = rows + [ManifestRow(str(root / "gone.wav"), "rough", "spk9", "f")]
    manifest = root / "broken.csv"
    write_manifest(manifest, broken)
    out = root / "partial.csv"
    with caplog.at_level("WARNING", logger="emovox"):
        rc = main(["extract", "--manifest", str(manifest),
                   "--config", str(config), "--out-csv", str(out)])
    assert rc == 1
    assert len(out.read_text().strip().split("\n")) == len(rows) + 1
    assert any("gone.wav" in r.message for r in caplog.records)


# each case's 44.1 kHz row has its own tone, so the shared cache never holds it
@pytest.mark.parametrize("rate, fine_hz", [(96001, 200.0), (4_294_967_295, 230.0)])
def test_extract_counts_absurd_rate_as_row_failure(workspace, rate, fine_hz, monkeypatch,
                                                   caplog):
    from emovox import audio
    from emovox.audio import MAX_RESAMPLE_TAPS, _decimation_taps

    root, _, config, rows = workspace
    # filters and decimators are memoised per rate; design afresh here
    _decimation_taps.cache_clear()
    audio._polyphase_matrix.cache_clear()
    designed = []
    design = audio._kaiser_lowpass

    def checked_design(numtaps, *args, **kwargs):
        designed.append(numtaps)
        assert numtaps <= MAX_RESAMPLE_TAPS
        return design(numtaps, *args, **kwargs)

    monkeypatch.setattr(audio, "_kaiser_lowpass", checked_design)
    hostile = craft_wav(root / ("rate_%d.wav" % rate), bits=8, rate=rate,
                        payload=bytes(range(0, 256, 4)) * 4)
    fine = write_pcm16(root / ("fine_44k_%d.wav" % rate), tone(fine_hz, dur_s=0.5, rate=44100),
                       44100)
    extra = [ManifestRow(str(hostile), "rough", "spk9", "f"),
             ManifestRow(str(fine), "smooth", "spk9", "f")]
    manifest = root / ("hostile_%d.csv" % rate)
    write_manifest(manifest, rows + extra)
    out = root / ("hostile_%d_features.csv" % rate)
    with caplog.at_level("WARNING", logger="emovox"):
        rc = main(["extract", "--manifest", str(manifest), "--config", str(config),
                   "--out-csv", str(out)])
    assert rc == 1
    assert designed  # the 44.1 kHz row still designs its filter
    ids = [line.split(",")[0] for line in out.read_text().strip().split("\n")[1:]]
    assert ids == [r.path for r in rows] + [str(fine)]
    assert any(hostile.name in r.message and "tap" in r.message for r in caplog.records)


@pytest.mark.parametrize("command", ["extract", "evaluate", "train", "predict"])
def test_extract_fatal_when_nothing_succeeds(workspace, command, tmp_path, caplog):
    root, corpus, config, _ = workspace
    manifest = root / "all_missing.csv"
    # four speakers and two classes of two rows, so that the manifest checks
    # of evaluate and train pass and only the rows fail
    write_manifest(manifest, [ManifestRow(str(root / ("nope%d.wav" % i)), "xy"[i % 2],
                                          "s%d" % i, "m") for i in range(4)])
    model = tmp_path / "model.svm"
    if command == "predict":   # a model of the config's scheme, so only the rows fail
        assert main(["train", "--manifest", str(corpus), "--config", str(config),
                     "--model", str(model)]) == 0
    outputs = {"extract": ["--out-csv", str(tmp_path / "none.csv")],
               "evaluate": ["--report", str(tmp_path / "report.txt"),
                            "--metrics-csv", str(tmp_path / "metrics.csv")],
               "train": ["--model", str(model)],
               "predict": ["--model", str(model), "--out-csv", str(tmp_path / "none.csv")]}
    with caplog.at_level("ERROR", logger="emovox"):
        rc = main([command, "--manifest", str(manifest), "--config", str(config)]
                  + outputs[command])
    assert rc == 2
    assert [r.message for r in caplog.records if r.levelname == "ERROR"] \
        == ["no rows extracted successfully"]
    assert sorted(p.name for p in tmp_path.iterdir()) \
        == (["model.svm"] if command == "predict" else [])


def test_extract_fatal_on_bad_manifest(workspace):
    root, _, config, _ = workspace
    bad = root / "bad.csv"
    bad.write_text("wrong,header\n")
    rc = main(["extract", "--manifest", str(bad), "--config", str(config),
               "--out-csv", str(root / "x.csv")])
    assert rc == 2


def test_evaluate_bad_config_value_fatal_before_extraction(workspace, tmp_path):
    # a negative seed would only fail at fold making, after a full extraction
    _, manifest, _, _ = workspace
    config = tmp_path / "neg.cfg"
    config.write_text("scheme = phonation\nseed = -1\ncache_dir = %s\n"
                      % (tmp_path / "cache"))
    rc = main(["evaluate", "--manifest", str(manifest), "--config", str(config),
               "--report", str(tmp_path / "report.txt"),
               "--metrics-csv", str(tmp_path / "metrics.csv")])
    assert rc == 2
    assert sorted(p.name for p in tmp_path.iterdir()) == ["neg.cfg"]


def test_evaluate_writes_reports(workspace):
    root, manifest, config, _ = workspace
    report = root / "report.txt"
    metrics = root / "metrics.csv"
    roc = root / "roc.csv"
    rc = main(["evaluate", "--manifest", str(manifest), "--config", str(config),
               "--report", str(report), "--metrics-csv", str(metrics),
               "--roc-csv", str(roc)])
    assert rc == 0
    text = report.read_text()
    assert "mean_uar: " in text
    uar = float(text.split("mean_uar: ")[1].splitlines()[0])
    assert uar >= 0.95
    lines = metrics.read_text().strip().split("\n")
    assert lines[0].startswith("fold,c,gamma")
    assert len(lines) == 3  # header + 2 outer folds
    for line in lines[1:]:
        c, gamma = float(line.split(",")[1]), float(line.split(",")[2])
        assert c in (1.0, 10.0)
        assert gamma in (0.01, 0.1)
    roc_lines = roc.read_text().strip().split("\n")
    assert roc_lines[0] == "fpr,tpr"
    fprs = [float(l.split(",")[0]) for l in roc_lines[1:]]
    assert all(b >= a for a, b in zip(fprs, fprs[1:]))


def test_evaluate_same_seed_byte_identical(workspace):
    root, manifest, config, _ = workspace
    pairs = []
    for tag in ("r1", "r2"):
        report = root / ("%s.txt" % tag)
        metrics = root / ("%s_metrics.csv" % tag)
        rc = main(["evaluate", "--manifest", str(manifest),
                   "--config", str(config), "--report", str(report),
                   "--metrics-csv", str(metrics),
                   "--roc-csv", str(root / ("%s_roc.csv" % tag))])
        assert rc == 0
        pairs.append((report.read_bytes(), metrics.read_bytes()))
    assert pairs[0] == pairs[1]


def test_train_then_predict(workspace):
    root, manifest, config, rows = workspace
    model = root / "m.svm"
    rc = main(["train", "--manifest", str(manifest), "--config", str(config),
               "--model", str(model)])
    assert rc == 0
    out = root / "pred.csv"
    rc = main(["predict", "--manifest", str(manifest), "--config", str(config),
               "--model", str(model), "--out-csv", str(out)])
    assert rc == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "source_id,label,score_rough,score_smooth"
    assert len(lines) == len(rows) + 1
    want = {r.path: r.label for r in rows}
    hits = 0
    for line in lines[1:]:
        source, label = line.split(",")[:2]
        hits += int(want[source] == label)
    assert hits / len(rows) >= 0.99

    again = root / "pred2.csv"
    main(["predict", "--manifest", str(manifest), "--config", str(config),
          "--model", str(model), "--out-csv", str(again)])
    assert out.read_bytes() == again.read_bytes()


def test_identical_audio_at_two_paths_keeps_each_path(workspace, tmp_path, caplog):
    # the cache holds a vector's content, not its row: the second of two
    # byte-identical files is a hit on the first one's entry, and each row's
    # own path is its source_id in the feature and prediction CSVs
    root, manifest, _, rows = workspace
    config = tmp_path / "exp.cfg"
    config.write_text("scheme = phonation\ncache_dir = %s\n" % (tmp_path / "cache"))
    with open(rows[0].path, "rb") as fh:
        audio = fh.read()
    twins = []
    for name in ("a.wav", "b.wav"):
        (tmp_path / name).write_bytes(audio)
        twins.append(ManifestRow(str(tmp_path / name), rows[0].label, "spk0", "m"))
    pair = tmp_path / "twins.csv"
    write_manifest(pair, twins)
    features = tmp_path / "features.csv"
    with caplog.at_level("INFO", logger="emovox"):
        assert main(["extract", "--manifest", str(pair), "--config", str(config),
                     "--out-csv", str(features)]) == 0
    assert any("(1 cache hits, 1 computed)" in r.message for r in caplog.records)
    assert [len(files) for _, _, files in os.walk(tmp_path / "cache") if files] == [1]
    lines = features.read_text().strip().split("\n")[1:]
    assert [line.split(",")[0] for line in lines] == [row.path for row in twins]
    assert lines[0].split(",")[1:] == lines[1].split(",")[1:]

    model, predictions = tmp_path / "m.svm", tmp_path / "pred.csv"
    assert main(["train", "--manifest", str(manifest), "--config", str(config),
                 "--model", str(model)]) == 0
    assert main(["predict", "--manifest", str(pair), "--config", str(config),
                 "--model", str(model), "--out-csv", str(predictions)]) == 0
    lines = predictions.read_text().strip().split("\n")[1:]
    assert [line.split(",")[0] for line in lines] == [row.path for row in twins]
    assert lines[0].split(",")[1:] == lines[1].split(",")[1:]


def test_predict_scheme_mismatch(workspace):
    root, manifest, config, _ = workspace
    model = root / "m.svm"
    other = root / "other.cfg"
    other.write_text("scheme = prosody\ncache_dir = %s\n" % (root / "cache"))
    rc = main(["predict", "--manifest", str(manifest), "--config", str(other),
               "--model", str(model), "--out-csv", str(root / "no.csv")])
    assert rc == 2


def test_predict_inconsistent_model_fatal(workspace, tmp_path, caplog):
    # a machine keyed by a class the model does not list
    from emovox import modelio

    _, manifest, config, _ = workspace
    model = tmp_path / "m.svm"
    assert main(["train", "--manifest", str(manifest), "--config", str(config),
                 "--model", str(model)]) == 0
    kind, arrays, meta = modelio.read_container(model)
    meta["machines"][0]["b"] = "unknown"
    modelio.write_container(model, kind, arrays, meta)
    with caplog.at_level("ERROR", logger="emovox"):
        rc = main(["predict", "--manifest", str(manifest), "--config", str(config),
                   "--model", str(model), "--out-csv", str(tmp_path / "pred.csv")])
    assert rc == 2
    assert "class pairs" in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["m.svm"]


@pytest.mark.parametrize("setting, error", [
    ("k_outer = 2\nk_inner = 2\npositive_label = nope", "positive label 'nope'"),
    ("k_outer = 7", "needs >= 7 speakers, got 6"),
    ("k_outer = 2\nk_inner = 2", "need at least 2 classes, got 1")])
def test_evaluate_infeasible_manifest_fatal_before_extraction(workspace, tmp_path, caplog,
                                                             setting, error):
    # six rows of six speakers, of both classes (of one for the class-count
    # case): the manifest alone decides that evaluate must fail
    _, _, _, rows = workspace
    manifest = tmp_path / "six.csv"
    picked = rows[:6] if "classes" in error else rows[:3] + rows[-3:]
    write_manifest(manifest, [ManifestRow(row.path, row.label, "s%d" % i, row.gender)
                              for i, row in enumerate(picked)])
    config = tmp_path / "exp.cfg"
    config.write_text("scheme = phonation\n%s\ncache_dir = %s\n" % (setting, tmp_path / "cache"))
    with caplog.at_level("ERROR", logger="emovox"):
        rc = main(["evaluate", "--manifest", str(manifest), "--config", str(config),
                   "--report", str(tmp_path / "report.txt"),
                   "--metrics-csv", str(tmp_path / "metrics.csv")])
    assert rc == 2
    assert error in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "six.csv"]


@pytest.mark.parametrize("setting, labels, error", [
    ("positive_label = nope", ("smooth", "rough"),
     "positive label 'nope' not among classes ('rough', 'smooth')"),
    ("positive_label = smooth", ("smooth",), "need at least 2 classes, got 1")])
def test_evaluate_task_check_message_exact(workspace, tmp_path, caplog, setting, labels, error):
    # the one evaluable-task check gives evaluate its whole error line
    _, _, _, rows = workspace
    manifest = tmp_path / "rows.csv"
    write_manifest(manifest, [row for row in rows if row.label in labels])
    config = tmp_path / "exp.cfg"
    config.write_text("scheme = phonation\nk_outer = 2\nk_inner = 2\n%s\ncache_dir = %s\n"
                      % (setting, tmp_path / "cache"))
    with caplog.at_level("ERROR", logger="emovox"):
        rc = main(["evaluate", "--manifest", str(manifest), "--config", str(config),
                   "--report", str(tmp_path / "report.txt"),
                   "--metrics-csv", str(tmp_path / "metrics.csv")])
    assert rc == 2
    assert [r.getMessage() for r in caplog.records if r.levelname == "ERROR"] == [error]
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "rows.csv"]


def test_unwritable_cache_fails_no_row(workspace, tmp_path, caplog):
    # a regular file as cache_dir: no entry can be written, every vector is kept
    root, manifest, config, rows = workspace
    reference = tmp_path / "reference.csv"
    assert main(["extract", "--manifest", str(manifest), "--config", str(config),
                 "--out-csv", str(reference)]) == 0
    blocker = tmp_path / "not_a_dir"
    blocker.write_bytes(b"")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config.read_text().replace(str(root / "cache"), str(blocker)))
    out = tmp_path / "features.csv"
    with caplog.at_level("INFO", logger="emovox"):
        rc = main(["extract", "--manifest", str(manifest), "--config", str(cfg),
                   "--out-csv", str(out)])
    assert rc == 0
    assert out.read_bytes() == reference.read_bytes()
    warnings = [r.getMessage() for r in caplog.records if r.levelname == "WARNING"]
    assert warnings == ["could not write %d computed vector(s) to the cache %s"
                        % (len(rows), blocker)]
    assert blocker.read_bytes() == b""


@pytest.mark.parametrize("counts, error", [
    ((6,), "need at least 2 classes, got 1"),
    ((5, 1), "class 'rough' has 1 sample(s); need at least 2")])
def test_train_infeasible_manifest_fatal_before_extraction(workspace, tmp_path, caplog,
                                                          counts, error):
    # the manifest alone decides that train must fail: nothing is extracted
    _, _, config, rows = workspace
    manifest = tmp_path / "rows.csv"
    by_class = [[row for row in rows if row.label == label] for label in ("smooth", "rough")]
    write_manifest(manifest, [row for members, count in zip(by_class, counts)
                              for row in members[:count]])
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(config.read_text().replace(str(config.parent / "cache"),
                                              str(tmp_path / "cache")))
    with caplog.at_level("ERROR", logger="emovox"):
        rc = main(["train", "--manifest", str(manifest), "--config", str(cfg),
                   "--model", str(tmp_path / "model.svm")])
    assert rc == 2
    assert error in caplog.text
    assert sorted(p.name for p in tmp_path.iterdir()) == ["exp.cfg", "rows.csv"]


def make_stats_manifest(path, rng):
    rows = []
    for i in range(40):
        dur = max(1.0, rng.normal(34.0, 23.0))
        rows.append(ManifestRow("long/%d.wav" % i, "dissatisfied",
                                "s%d" % i, "m" if i % 4 else "f", dur))
    for i in range(40):
        dur = max(1.0, rng.normal(16.0, 11.0))
        rows.append(ManifestRow("short/%d.wav" % i, "satisfied",
                                "t%d" % i, "f" if i % 4 else "m", dur))
    write_manifest(path, rows)
    return rows


def test_stats_two_class_report(tmp_path, rng):
    manifest = tmp_path / "stats.csv"
    make_stats_manifest(manifest, rng)
    out = tmp_path / "stats.txt"
    rc = main(["stats", "--manifest", str(manifest), "--out", str(out)])
    assert rc == 0
    text = out.read_text()
    assert "class dissatisfied:" in text
    assert "count: 40" in text
    assert "gender: " in text
    t_line = [l for l in text.splitlines() if l.startswith("welch_t")][0]
    p = float(t_line.split("p=")[1])
    assert p < 0.05
    assert any(l.startswith("chi_square") for l in text.splitlines())


def test_stats_identical_classes_p_near_one(tmp_path, rng):
    durs = [float(d) for d in rng.uniform(5.0, 50.0, 30)]
    rows = []
    for cls in ("a", "b"):
        for i, d in enumerate(durs):
            rows.append(ManifestRow("%s/%d.wav" % (cls, i), cls, "s%d" % i,
                                    "m" if i % 2 else "f", d))
    manifest = tmp_path / "same.csv"
    write_manifest(manifest, rows)
    out = tmp_path / "same.txt"
    assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
    text = out.read_text()
    t_line = [l for l in text.splitlines() if l.startswith("welch_t")][0]
    chi_line = [l for l in text.splitlines() if l.startswith("chi_square")][0]
    assert float(t_line.split("p=")[1]) == pytest.approx(1.0, abs=1e-9)
    assert float(chi_line.split("p=")[1]) == pytest.approx(1.0, abs=1e-9)


def test_stats_single_class_skips_tests(tmp_path):
    rows = [ManifestRow("x/%d.wav" % i, "only", "s%d" % i, "m", 10.0 + i)
            for i in range(5)]
    manifest = tmp_path / "one.csv"
    write_manifest(manifest, rows)
    out = tmp_path / "one.txt"
    assert main(["stats", "--manifest", str(manifest), "--out", str(out)]) == 0
    text = out.read_text()
    assert "tests skipped: only one class" in text
    assert "welch_t" not in text


def test_stats_counts_echo_manifest(tmp_path, rng):
    manifest = tmp_path / "stats.csv"
    rows = make_stats_manifest(manifest, rng)
    out = tmp_path / "echo.txt"
    main(["stats", "--manifest", str(manifest), "--out", str(out)])
    text = out.read_text()
    assert "rows: %d" % len(rows) in text
