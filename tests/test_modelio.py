"""Round-trip and corruption checks for the binary container format."""

import hashlib
import json
import math
import os
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from emovox import modelio
from emovox.embeddings import (
    GmmUbm,
    TotalVariabilityModel,
    XVectorWeights,
    baum_welch_stats,
    extract_ivector,
    random_xvector_weights,
    train_total_variability,
    train_ubm,
    xvector_forward,
)
from emovox.embeddings.xvector import _FRAME_LAYERS, _random_layers
from emovox.errors import ModelFormatError
from emovox.svm import STD_FLOOR, decision_scores, train_multiclass


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
    # Each section is read straight into its array: the file's bytes are held
    # once.  Reading the whole file and copying the arrays out of it made it
    # two copies, and slicing the bytes before the array copy made it three.
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
    assert not back["a"].flags.writeable
    assert peak <= 1.05 * size


def test_load_xvector_holds_the_file_once(tmp_path):
    # the read-only arrays read are kept, but for the frame layers, each
    # rounded to float32 as it is read: at most one frame section (0.18x the
    # file) is held in float64 at a time, so the load peaks at about 0.74x
    # the file and keeps 0.70x (1.34x and 0.70x when the whole file was read
    # in float64 first)
    path = tmp_path / "xv.emvx"
    modelio.save_xvector(path, random_xvector_weights(seed=2))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        weights = modelio.load_xvector(path)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.8 * size
    assert kept <= 0.72 * size
    for pair in weights.layers.values():
        assert all(not a.flags.writeable and a.flags.aligned for a in pair)


def test_load_xvector_digest_is_the_file_bytes(tmp_path):
    # the cache tag comes from this digest, so rounding the frame layers as
    # they are read must leave it the hash of the file as stored
    path = tmp_path / "xv.emvx"
    modelio.save_xvector(path, random_xvector_weights(n_classes=3, seed=4))
    digest = hashlib.sha256()
    modelio.load_xvector(path, digest)
    assert digest.hexdigest() == hashlib.sha256(path.read_bytes()).hexdigest()


def test_xvector_file_beyond_float32_is_a_format_error(tmp_path):
    # finite in the file's float64, but inf once the load rounds the frame layer
    layers = _random_layers(3, 1, 0.05)
    layers["frame3"][0][7, 9] = 1e39
    path = tmp_path / "big.emvx"
    modelio.write_container(path, "xvector", {
        name + part: a for name, pair in layers.items() for part, a in zip((".w", ".b"), pair)})
    with pytest.raises(ModelFormatError, match="float32"):
        modelio.load_xvector(path)


def test_load_tv_holds_the_file_once(tmp_path, rng):
    # the read-only arrays read are kept; the finiteness checks add a boolean
    # temporary of 0.125x the largest one
    ubm = GmmUbm(np.full(64, 1.0 / 64), rng.standard_normal((64, 24)), np.ones((64, 24)))
    path = tmp_path / "tv.emvx"
    modelio.save_tv(path, TotalVariabilityModel(0.1 * rng.standard_normal((64 * 24, 400)),
                                                ubm, 400))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        tv = modelio.load_tv(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.2 * size
    arrays = (tv.t_matrix, tv.ubm.weights, tv.ubm.means, tv.ubm.variances)
    assert all(not a.flags.writeable for a in arrays)


def test_xvector_weights_copy_writable_input(rng):
    layers = {name: (w.copy(), b.copy())
              for name, (w, b) in random_xvector_weights(seed=3).layers.items()}
    weights = XVectorWeights(layers)
    before = {name: (w.copy(), b.copy()) for name, (w, b) in weights.layers.items()}
    mfcc = rng.standard_normal((40, 24))
    embedding = xvector_forward(weights, mfcc)
    for w, b in layers.values():
        w[:] = 1.0
        b[:] = -1.0
    for name, (w, b) in weights.layers.items():
        assert np.array_equal(w, before[name][0]) and np.array_equal(b, before[name][1])
    assert np.array_equal(xvector_forward(weights, mfcc), embedding)


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


def test_container_shape_beyond_address_space(tmp_path):
    # zero elements, so no size check trips, but no array can have that shape
    path = tmp_path / "s.emvx"
    modelio.write_container(path, "test", {"a": np.zeros((0, 5))})
    blob = path.read_bytes()
    shape = struct.pack("<QQ", 0, 5)
    assert blob.count(shape) == 1
    path.write_bytes(blob.replace(shape, struct.pack("<QQ", 0, 2 ** 64 - 1)))
    with pytest.raises(ModelFormatError, match="shape"):
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


def joined_container(kind, arrays, meta=None):
    """The container as one joined blob: the reference for the streamed writer."""
    def pack_str(text):
        raw = text.encode("utf-8")
        return struct.pack("<I", len(raw)) + raw

    parts = [modelio.MAGIC, struct.pack("<I", modelio.FORMAT_VERSION), pack_str(kind),
             pack_str(json.dumps(meta or {}, sort_keys=True)), struct.pack("<I", len(arrays))]
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr, dtype="<f8")
        parts += [pack_str(name), struct.pack("<I", a.ndim),
                  b"".join(struct.pack("<Q", d) for d in a.shape), a.tobytes()]
    return b"".join(parts)


def test_write_container_writes_the_joined_bytes(tmp_path, monkeypatch, small_ubm, rng):
    from emovox import cache
    from emovox.features import FeatureVector

    written = []
    real = modelio.write_container

    def recording(path, kind, arrays, meta=None):
        real(path, kind, arrays, meta)
        written.append((path, kind, arrays, meta))

    monkeypatch.setattr(modelio, "write_container", recording)
    monkeypatch.setattr(cache, "write_container", recording)
    modelio.save_tv(tmp_path / "m.tv", TotalVariabilityModel(
        rng.standard_normal((small_ubm.means.size, 2)), small_ubm, 2))
    modelio.save_xvector(tmp_path / "m.xv", random_xvector_weights(n_classes=3, seed=5))
    x = np.concatenate([rng.standard_normal((8, 2)), rng.standard_normal((8, 2)) + 5.0])
    modelio.save_svm(tmp_path / "m.svm", train_multiclass(x, ["a"] * 8 + ["b"] * 8, 1.0, 0.5),
                     scheme="phonation")
    cache.FeatureCache(tmp_path / "cache").put("ab" + "0" * 62, FeatureVector(
        "phonation", np.linspace(-1.0, 1.0, 28), warning="w"))
    modelio.write_container(tmp_path / "odd.emvx", "test", {
        "scalar": np.float64(3.25), "empty": np.zeros((0, 3)),
        "strided": rng.standard_normal((6, 4))[::2, ::-1]}, meta={"k": [1, "é"]})
    assert sorted(kind for _, kind, _, _ in written) == ["feature", "svm", "test", "tv",
                                                         "xvector"]
    for path, kind, arrays, meta in written:
        with open(path, "rb") as fh:
            assert fh.read() == joined_container(kind, arrays, meta), kind


def test_save_xvector_converts_one_section_at_a_time(tmp_path):
    # the float32 frame layers are converted to float64 one by one, and the
    # file's bytes are never joined (that held 2.0x the file)
    weights = random_xvector_weights(seed=2)
    path = tmp_path / "xv.emvx"
    tracemalloc.start()
    try:
        modelio.save_xvector(path, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 0.25 * path.stat().st_size


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


def test_xvector_float64_layers_give_the_float32_embeddings(tmp_path, rng):
    # frame-layer values float32 cannot hold exactly are rounded once; the
    # model, built or loaded, gives the embeddings of its float32 cast, and a
    # re-saved file holds the rounded values
    layers64 = {}
    for name, (w, b) in random_xvector_weights(seed=8).layers.items():
        w, b = w.astype(np.float64), b.astype(np.float64)
        layers64[name] = (w + 1e-12 * np.sign(w), b + 1e-12)
    assert all(w.astype(np.float32).astype(np.float64).tobytes() != w.tobytes()
               for w, _ in layers64.values())
    cast = {name: tuple(a.astype(np.float32) if name in _FRAME_LAYERS else a
                        for a in pair) for name, pair in layers64.items()}
    path, resaved = tmp_path / "f64.xv", tmp_path / "resaved.xv"
    modelio.write_container(path, "xvector", {
        name + suffix: a for name, pair in layers64.items()
        for suffix, a in zip((".w", ".b"), pair)})
    loaded = modelio.load_xvector(path)
    modelio.save_xvector(resaved, loaded)
    assert resaved.read_bytes() != path.read_bytes()
    models = [XVectorWeights(layers64), loaded, modelio.load_xvector(resaved)]
    mfcc = rng.standard_normal((50, 24))
    expected = xvector_forward(XVectorWeights(cast), mfcc).tobytes()
    for model in models:
        assert xvector_forward(model, mfcc).tobytes() == expected


def test_svm_roundtrip_identical_predictions(tmp_path, rng):
    x = np.concatenate([rng.standard_normal((15, 3)) + off
                        for off in (0.0, 6.0, -6.0)])
    labels = ["a"] * 15 + ["b"] * 15 + ["c"] * 15
    model = train_multiclass(x, labels, 10.0, 0.5)
    path = tmp_path / "m.svm"
    modelio.save_svm(path, model, scheme="phonation")
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


def test_svm_file_keeps_a_floored_dimension(tmp_path, rng):
    # the file stores the floored std as before, and a loaded model scores a
    # dimension at the floor as one that adds no distance
    x = rng.standard_normal((20, 3))
    x[:, 1] = 2.5
    path = tmp_path / "m.svm"
    modelio.save_svm(path, train_multiclass(x, ["a"] * 10 + ["b"] * 10, 1.0, 0.5))
    back, _meta = modelio.load_svm(path)
    assert back.standardizer.std[1] == STD_FLOOR
    probe = rng.standard_normal((4, 3))
    probe[:, 1] = 2.5
    moved = probe.copy()
    moved[:, 1] += [-3.0, 1e-6, 1.0, 100.0]
    assert decision_scores(back, probe)[1].tobytes() == decision_scores(back, moved)[1].tobytes()


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


def _set(mapping, key, value):
    mapping[key] = value


# Edits of a 3-class, 3-dim "svm" file, each leaving a well-formed container
# whose model is inconsistent: (arrays, meta) -> None, in place.
INCONSISTENT_SVM = {
    "machine of an unknown class": lambda a, m: _set(m["machines"][0], "a", "zzz"),
    "missing machine": lambda a, m: m["machines"].pop(),
    "nan std": lambda a, m: _set(a, "standardizer.std", np.full(3, np.nan)),
    "infinite mean": lambda a, m: _set(a, "standardizer.mean", np.array([0.0, np.inf, 0.0])),
    "1-D support vectors": lambda a, m: _set(a, "machine0.support_vectors",
                                             a["machine0.support_vectors"].ravel()),
    "dual_coef one short": lambda a, m: _set(a, "machine0.dual_coef", a["machine0.dual_coef"][1:]),
    "2-D dual_coef": lambda a, m: _set(a, "machine0.dual_coef",
                                       a["machine0.dual_coef"].reshape(-1, 1)),
    "nan dual_coef": lambda a, m: _set(a, "machine1.dual_coef",
                                       a["machine1.dual_coef"] * np.nan),
    "infinite support vector": lambda a, m: _set(a, "machine2.support_vectors",
                                                 a["machine2.support_vectors"] + np.inf),
    "nan bias": lambda a, m: _set(m["machines"][1], "bias", float("nan")),
    "zero gamma": lambda a, m: _set(m, "gamma", 0.0),
    "negative gamma": lambda a, m: _set(m, "gamma", -0.5),
    "infinite c": lambda a, m: _set(m, "c", float("inf")),
    "nan c": lambda a, m: _set(m, "c", float("nan")),
    "one class": lambda a, m: (_set(m, "classes", ["a"]), _set(m, "machines", [])),
    "unsorted classes": lambda a, m: _set(m, "classes", ["b", "a", "c"]),
    "duplicate class": lambda a, m: _set(m, "classes", ["a", "b", "c", "c"]),
    "narrow machine": lambda a, m: _set(a, "machine1.support_vectors",
                                        a["machine1.support_vectors"][:, :2]),
    "feature_dim off": lambda a, m: _set(m, "feature_dim", 4),
}


@pytest.fixture(scope="module")
def three_class_svm(tmp_path_factory):
    rng = np.random.default_rng(3)
    x = np.concatenate([rng.standard_normal((10, 3)) + off for off in (0.0, 5.0, -5.0)])
    path = tmp_path_factory.mktemp("svm") / "m.svm"
    modelio.save_svm(path, train_multiclass(x, ["a"] * 10 + ["b"] * 10 + ["c"] * 10, 1.0, 0.5),
                     scheme="phonation")
    return path


@pytest.mark.parametrize("edit", INCONSISTENT_SVM.values(), ids=INCONSISTENT_SVM.keys())
def test_inconsistent_svm_is_a_format_error(tmp_path, three_class_svm, edit):
    modelio.load_svm(three_class_svm)  # the unedited file loads
    kind, arrays, meta = modelio.read_container(three_class_svm)
    edit(arrays, meta)
    path = tmp_path / "bad.svm"
    modelio.write_container(path, kind, arrays, meta)
    with pytest.raises(ModelFormatError):
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


# ---------------------------------------------------------------------------
# fault injection: truncated, bit-flipped and extended containers
# ---------------------------------------------------------------------------

FAULTS = settings(derandomize=True, database=None, deadline=None, max_examples=60,
                  suppress_health_check=[HealthCheck.too_slow])


def data_spans(blob):
    """(start, end) of each array's data bytes in a valid container."""
    def u32(pos):
        return struct.unpack_from("<I", blob, pos)[0]

    pos = 8
    pos += 4 + u32(pos)   # kind
    pos += 4 + u32(pos)   # meta
    count, pos = u32(pos), pos + 4
    spans = []
    for _ in range(count):
        pos += 4 + u32(pos)   # name
        ndim, pos = u32(pos), pos + 4
        n = 8 * math.prod(struct.unpack_from("<%dQ" % ndim, blob, pos))
        pos += 8 * ndim
        spans.append((pos, pos + n))
        pos += n
    assert pos == len(blob)
    return spans


def structure_offsets(blob):
    """Offsets of every byte outside array data: headers, names, ranks, shapes."""
    inside = np.zeros(len(blob), dtype=bool)
    for start, end in data_spans(blob):
        inside[start:end] = True
    return np.flatnonzero(~inside).tolist()


def flipped(blob, pos, mask):
    out = bytearray(blob)
    out[pos] ^= mask
    return bytes(out)


def corruptions(blob):
    """Corrupted copies of ``blob``, each with whether it must fail to parse.

    Positions come from the structure bytes half the time, since in a model
    file nearly every byte is array data.  A flipped data byte may still
    parse; a truncated or extended file never does.
    """
    where = st.one_of(st.sampled_from(structure_offsets(blob)),
                      st.integers(0, len(blob) - 1))
    return st.one_of(
        where.map(lambda n: (blob[:n], True)),
        st.binary(min_size=1, max_size=64).map(lambda tail: (blob + tail, True)),
        st.tuples(where, st.integers(1, 255)).map(lambda c: (flipped(blob, *c), False)))


@pytest.fixture(scope="module")
def fault_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("faults")


@pytest.fixture(scope="module")
def xvector_blob(fault_dir):
    path = fault_dir / "valid.xv"
    modelio.save_xvector(path, random_xvector_weights(n_classes=3, seed=6))
    return path.read_bytes()


def test_xvector_weights_beyond_float32_are_a_format_error():
    # finite in float64, but the frame layers run in float32 where it is inf
    layers = dict(random_xvector_weights(seed=1).layers)
    w, b = layers["frame3"]
    w = w.astype(np.float64)
    w[7, 9] = 1e39
    layers["frame3"] = (w, b)
    with pytest.raises(ModelFormatError, match="float32"):
        XVectorWeights(layers)


def test_corrupt_xvector_parses_or_is_a_format_error(fault_dir, xvector_blob):
    # each case writes and reads a 36 MB model, hence fewer of them
    path = fault_dir / "corrupt.xv"

    @settings(FAULTS, max_examples=25)
    @given(corruptions(xvector_blob))
    def check(case):
        blob, must_fail = case
        path.write_bytes(blob)
        try:
            weights = modelio.load_xvector(path)
        except ModelFormatError:
            return
        assert not must_fail
        for pair in weights.layers.values():
            assert all(np.all(np.isfinite(a)) for a in pair)

    check()


def test_corrupt_cache_entry_is_a_miss(fault_dir):
    from emovox.cache import FeatureCache
    from emovox.features import FeatureVector

    cache = FeatureCache(fault_dir / "cache")
    key = "ab" + "0" * 62
    cache.put(key, FeatureVector("phonation", np.linspace(-1.0, 1.0, 28),
                                 warning="no voiced frames"))
    entry = cache._path(key)
    with open(entry, "rb") as fh:
        valid = fh.read()

    @FAULTS
    @given(corruptions(valid))
    def check(case):
        blob, must_fail = case
        with open(entry, "wb") as fh:
            fh.write(blob)
        try:
            modelio.read_container(entry, "feature")
            parsed = True
        except ModelFormatError:
            parsed = False
        assert not (must_fail and parsed)
        vector = cache.get(key, "phonation")
        if vector is not None:
            assert parsed
            assert vector.dim == 28 and np.all(np.isfinite(vector.values))

    check()
