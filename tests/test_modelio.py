"""Round-trip and corruption checks for the binary container format."""

import os
import tracemalloc

import numpy as np
import pytest

from emovox import modelio
from emovox.embeddings import (
    GmmUbm,
    baum_welch_stats,
    extract_ivector,
    random_xvector_weights,
    train_total_variability,
    train_ubm,
    xvector_forward,
)
from emovox.errors import ModelFormatError
from emovox.svm import train_multiclass, decision_scores


@pytest.fixture(scope="module")
def small_ubm():
    rng = np.random.default_rng(0)
    frames = np.concatenate([
        rng.standard_normal((400, 3)) - 2.0,
        rng.standard_normal((400, 3)) + 2.0,
    ])
    return train_ubm(frames, 2, n_iters=15, seed=1)


def test_container_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(3)
    arrays = {
        "a": rng.standard_normal((4, 5)),
        "b": rng.standard_normal(7),
        "scalar": np.float64(3.25),
    }
    path = tmp_path / "x.emvx"
    modelio.write_container(path, "test", arrays, meta={"k": "v", "n": 3})
    kind, back, meta = modelio.read_container(path)
    assert kind == "test"
    assert meta == {"k": "v", "n": 3}
    for name, arr in arrays.items():
        assert back[name].tobytes() == np.asarray(arr, dtype=np.float64).tobytes()


def test_read_container_copies_each_section_once(tmp_path):
    # The file's bytes plus one copy of the array; slicing the bytes before
    # the array copy made it three.
    values = np.random.default_rng(5).standard_normal(2 ** 18)
    path = tmp_path / "one.emvx"
    modelio.write_container(path, "test", {"a": values})
    size = path.stat().st_size
    tracemalloc.start()
    try:
        _, back, _ = modelio.read_container(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert back["a"].tobytes() == values.tobytes()
    assert peak <= 2.05 * size


def test_container_rejects_garbage(tmp_path):
    path = tmp_path / "bad.emvx"
    path.write_bytes(b"not a container at all")
    with pytest.raises(ModelFormatError, match="EMVX"):
        modelio.read_container(path)
    with pytest.raises(FileNotFoundError):
        modelio.read_container(tmp_path / "absent.emvx")


def test_container_truncation_detected(tmp_path):
    path = tmp_path / "t.emvx"
    modelio.write_container(path, "test", {"a": np.arange(6.0)})
    blob = path.read_bytes()
    path.write_bytes(blob[:-9])
    with pytest.raises(ModelFormatError, match="truncated"):
        modelio.read_container(path)
    path.write_bytes(blob + b"XX")
    with pytest.raises(ModelFormatError, match="trailing"):
        modelio.read_container(path)


def test_container_kind_check(tmp_path):
    path = tmp_path / "k.emvx"
    modelio.write_container(path, "ubm", {})
    with pytest.raises(ModelFormatError, match="expected"):
        modelio.read_container(path, "svm")


def test_no_temp_files_left_behind(tmp_path):
    for i in range(3):
        modelio.write_container(tmp_path / ("f%d.emvx" % i), "test",
                                {"a": np.zeros(4)})
    names = sorted(os.listdir(tmp_path))
    assert names == ["f0.emvx", "f1.emvx", "f2.emvx"]


def save_ubm(path, ubm):
    modelio.write_container(path, "ubm", {
        "weights": ubm.weights,
        "means": ubm.means,
        "variances": ubm.variances,
        "log_likelihoods": np.asarray(ubm.log_likelihoods, dtype=np.float64),
    })


def load_ubm(path):
    _, arrays, _ = modelio.read_container(path, "ubm")
    return GmmUbm(arrays["weights"], arrays["means"], arrays["variances"],
                  tuple(arrays["log_likelihoods"].tolist()))


def test_ubm_roundtrip(tmp_path, small_ubm):
    path = tmp_path / "m.ubm"
    save_ubm(path, small_ubm)
    back = load_ubm(path)
    assert back.weights.tobytes() == small_ubm.weights.tobytes()
    assert back.means.tobytes() == small_ubm.means.tobytes()
    assert back.variances.tobytes() == small_ubm.variances.tobytes()
    assert back.log_likelihoods == small_ubm.log_likelihoods


def test_tv_roundtrip_preserves_ivectors(tmp_path, small_ubm, rng):
    stats = [baum_welch_stats(small_ubm, rng.standard_normal((60, 3)))
             for _ in range(25)]
    tv = train_total_variability(stats, small_ubm, rank=2, n_iters=3, seed=0)
    path = tmp_path / "m.tv"
    modelio.save_tv(path, tv)
    back = modelio.load_tv(path)
    assert back.rank == 2
    assert back.t_matrix.tobytes() == tv.t_matrix.tobytes()
    w0 = extract_ivector(tv, stats[0])
    w1 = extract_ivector(back, stats[0])
    assert np.array_equal(w0, w1)


def test_xvector_roundtrip(tmp_path, rng):
    weights = random_xvector_weights(n_classes=5, seed=4)
    path = tmp_path / "m.xv"
    modelio.save_xvector(path, weights)
    back = modelio.load_xvector(path)
    assert sorted(back.layers) == sorted(weights.layers)
    for name, (w, b) in weights.layers.items():
        assert back.layers[name][0].tobytes() == w.tobytes()
        assert back.layers[name][1].tobytes() == b.tobytes()
    mfcc = rng.standard_normal((40, 24))
    assert np.array_equal(xvector_forward(weights, mfcc),
                          xvector_forward(back, mfcc))


def test_svm_roundtrip_identical_predictions(tmp_path, rng):
    x = np.concatenate([rng.standard_normal((15, 3)) + off
                        for off in (0.0, 6.0, -6.0)])
    labels = ["a"] * 15 + ["b"] * 15 + ["c"] * 15
    model = train_multiclass(x, labels, 10.0, 0.5)
    path = tmp_path / "m.svm"
    modelio.save_svm(path, model, scheme="phonation", feature_dim=3)
    back, meta = modelio.load_svm(path)
    assert meta["scheme"] == "phonation"
    assert meta["feature_dim"] == 3
    assert back.classes == model.classes
    probe = rng.standard_normal((10, 3)) * 4.0
    v0, m0 = decision_scores(model, probe)
    v1, m1 = decision_scores(back, probe)
    assert np.array_equal(v0, v1)
    assert np.array_equal(m0, m1)
    for key in model.machines:
        assert np.array_equal(model.machines[key].alphas,
                              back.machines[key].alphas)


def test_svm_missing_section_error(tmp_path, rng):
    x = np.concatenate([rng.standard_normal((8, 2)),
                        rng.standard_normal((8, 2)) + 5.0])
    model = train_multiclass(x, ["a"] * 8 + ["b"] * 8, 1.0, 0.5)
    path = tmp_path / "m.svm"
    modelio.save_svm(path, model)
    kind, arrays, meta = modelio.read_container(path)
    del arrays["machine0.support_vectors"]
    modelio.write_container(path, kind, arrays, meta)
    with pytest.raises(ModelFormatError, match="missing"):
        modelio.load_svm(path)


@pytest.mark.parametrize("rank", [[2], {"r": 2}, None, "two"])
def test_tv_rank_of_wrong_type_is_format_error(tmp_path, small_ubm, rank):
    path = tmp_path / "m.tv"
    modelio.write_container(path, "tv", {
        "t_matrix": np.zeros((6, 2)), "ubm.weights": small_ubm.weights,
        "ubm.means": small_ubm.means, "ubm.variances": small_ubm.variances},
        meta={"rank": rank})
    with pytest.raises(ModelFormatError):
        modelio.load_tv(path)
