"""Feature cache keying/atomicity and batch extraction behavior."""

import os
import shutil
import struct

import numpy as np
import pytest

from emovox.cache import FeatureCache, feature_key
from emovox.config import parse_config
from emovox.errors import ConfigError
from emovox.features import SCHEME_DIMS, FeatureVector
from emovox.features.i2010pc import LLD_NAMES
from emovox.functionals import IS10_FUNCTIONALS
from emovox.manifest import ManifestRow
from emovox import pipeline
from emovox.modelio import write_container
from emovox.pipeline import (
    EXTRACTOR_VERSION,
    extract_for_manifest,
    feature_csv,
    load_embedding_models,
)

from conftest import make_corpus, voice_like, write_pcm16


def test_feature_key_sensitivity():
    base = feature_key(b"audio", "phonation", "1")
    assert feature_key(b"audio", "phonation", "1") == base
    assert feature_key(b"audiX", "phonation", "1") != base
    assert feature_key(b"audio", "prosody", "1") != base
    assert feature_key(b"audio", "phonation", "2") != base
    assert len(base) == 64


def test_cache_roundtrip_bit_identical(tmp_path, rng):
    cache = FeatureCache(tmp_path / "cache")
    vec = FeatureVector("prosody", rng.standard_normal(78), warning="w")
    cache.put("ab" + "0" * 62, vec)
    back = cache.get("ab" + "0" * 62, "prosody")
    assert back is not None
    assert back.values.tobytes() == vec.values.tobytes()
    assert (back.scheme, back.warning) == ("prosody", "w")


def test_cache_miss_and_corrupt_entry(tmp_path, rng):
    cache = FeatureCache(tmp_path / "cache")
    assert cache.get("cd" + "0" * 62, "prosody") is None
    vec = FeatureVector("prosody", rng.standard_normal(78))
    key = "ef" + "0" * 62
    cache.put(key, vec)
    path = cache._path(key)
    with open(path, "wb") as fh:
        fh.write(b"junk")
    assert cache.get(key, "prosody") is None


def test_cache_dir_has_no_temp_files(tmp_path, rng):
    cache = FeatureCache(tmp_path / "cache")
    for i in range(4):
        cache.put("%02x" % i + "0" * 62,
                  FeatureVector("prosody", rng.standard_normal(78)))
    leftovers = [name for _, _, files in os.walk(tmp_path) for name in files
                 if not name.endswith(".fv")]
    assert leftovers == []


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    directory = tmp_path_factory.mktemp("corpus")
    rows = make_corpus(directory, n_per_class=3, seed=1)
    return directory, rows


def test_extract_phonation_counts(tmp_path, corpus):
    _, rows = corpus
    config = parse_config("scheme = phonation\n")
    cache = FeatureCache(tmp_path / "c")
    result = extract_for_manifest(tuple(rows), config, cache)
    assert len(result.vectors) == 6
    assert result.failures == []
    assert (result.cache_hits, result.computed) == (0, 6)
    assert all(v.dim == 28 for v in result.vectors)
    assert result.rows == list(rows)

    again = extract_for_manifest(tuple(rows), config, cache)
    assert (again.cache_hits, again.computed) == (6, 0)
    for a, b in zip(result.vectors, again.vectors):
        assert a.values.tobytes() == b.values.tobytes()


def test_cache_makes_each_shard_directory_once(tmp_path, corpus, monkeypatch, rng):
    made = []
    mkdir = os.mkdir

    def counted_mkdir(path, *args, **kwargs):
        made.append(os.fspath(path))
        return mkdir(path, *args, **kwargs)

    monkeypatch.setattr(os, "mkdir", counted_mkdir)
    root = tmp_path / "c"
    cache = FeatureCache(root)
    for key in ("ab" + "0" * 62, "ab" + "1" * 62, "ab" + "2" * 62, "cd" + "0" * 62):
        cache.put(key, FeatureVector("prosody", rng.standard_normal(78)))
    assert made == [str(root), str(root / "ab"), str(root / "cd")]

    # a cold extract makes each new shard once; a shard removed between runs is remade
    _, rows = corpus
    config = parse_config("scheme = phonation+prosody\n")
    made.clear()
    cold = extract_for_manifest(tuple(rows), config, cache)
    shards = {str(root / name) for name in os.listdir(root)}
    assert cold.computed == 12 and len(made) == len(set(made)) and set(made) <= shards
    victim = sorted(shards - {str(root / "ab"), str(root / "cd")})[0]
    n_lost = len(os.listdir(victim))
    shutil.rmtree(victim)
    made.clear()
    again = extract_for_manifest(tuple(rows), config, cache)
    assert (again.computed, made) == (n_lost, [victim])
    assert len(os.listdir(victim)) == n_lost
    for a, b in zip(cold.vectors, again.vectors):
        assert a.values.tobytes() == b.values.tobytes()


def test_extract_fusion_caches_members(tmp_path, corpus):
    _, rows = corpus
    config = parse_config("scheme = phonation+prosody\n")
    cache = FeatureCache(tmp_path / "c")
    result = extract_for_manifest(tuple(rows), config, cache)
    assert all(v.dim == 28 + 78 for v in result.vectors)
    assert all(v.scheme == "fusion" for v in result.vectors)
    assert result.computed == 12
    # member scheme entries are reusable by a single-scheme run
    single = parse_config("scheme = prosody\n")
    reuse = extract_for_manifest(tuple(rows), single, cache)
    assert (reuse.cache_hits, reuse.computed) == (6, 0)


def emvx_blob(kind=b"feature", shape=(28,)):
    """A feature container assembled byte by byte, so any field can be hostile."""
    def pack(raw):
        return struct.pack("<I", len(raw)) + raw
    head = b"EMVX" + struct.pack("<I", 1) + pack(kind) + pack(b'{"scheme": "phonation"}')
    return (head + struct.pack("<I", 1) + pack(b"values") + struct.pack("<I", len(shape))
            + b"".join(struct.pack("<Q", d) for d in shape) + bytes(8 * 28))


@pytest.mark.parametrize("arrays, meta", [
    ({"values": np.zeros(28)}, {"source_id": "x"}),   # no scheme meta
    ({"other": np.zeros(28)}, {"scheme": "phonation"}),   # no values array
    ({"values": np.zeros(27)}, {"scheme": "phonation"}),  # wrong width
    ({"values": np.full(28, np.nan)}, {"scheme": "phonation"}),  # non-finite
    ({"values": np.zeros(28)}, {"scheme": "spectral"}),   # unknown scheme
    pytest.param({"values": np.zeros(28)}, ["phonation"], id="meta-not-object"),
    pytest.param({"values": np.zeros(28)}, {"scheme": "phonation", "warning": 5},
                 id="warning-not-string"),
    pytest.param(emvx_blob(kind=b"feat\xffure"), None, id="kind-not-utf8"),
    pytest.param(emvx_blob(shape=(2 ** 32, 2 ** 32)), None, id="shape-overflows"),
    pytest.param(emvx_blob(shape=(0, 2 ** 64 - 1)), None, id="shape-too-large"),
    # a valid entry of another scheme under this scheme's key
    pytest.param({"values": np.zeros(78)}, {"scheme": "prosody"}, id="other-scheme"),
])
def test_extract_recomputes_incomplete_entry(tmp_path, corpus, arrays, meta):
    _, rows = corpus
    config = parse_config("scheme = phonation\n")
    fresh = extract_for_manifest(tuple(rows), config, None)
    cache = FeatureCache(tmp_path / "c")
    with open(rows[0].path, "rb") as fh:
        key = feature_key(fh.read(), "phonation", EXTRACTOR_VERSION)
    os.makedirs(os.path.dirname(cache._path(key)))
    if isinstance(arrays, bytes):
        with open(cache._path(key), "wb") as fh:
            fh.write(arrays)
    else:
        write_container(cache._path(key), "feature", arrays, meta=meta)

    result = extract_for_manifest(tuple(rows), config, cache)
    assert result.failures == []
    assert (result.cache_hits, result.computed) == (0, 6)
    assert result.vectors[0].values.tobytes() == fresh.vectors[0].values.tobytes()
    # the entry was overwritten with a complete one
    stored = cache.get(key, "phonation")
    assert stored is not None
    assert stored.scheme == "phonation"
    assert stored.values.tobytes() == fresh.vectors[0].values.tobytes()


def test_entry_with_a_source_id_is_a_hit(tmp_path, corpus):
    # entries once also stored the row's path in their meta; such an entry
    # still reads as a hit, with the values and warning it holds
    _, rows = corpus
    config = parse_config("scheme = phonation\n")
    fresh = extract_for_manifest(tuple(rows[:1]), config, None).vectors[0]
    cache = FeatureCache(tmp_path / "c")
    with open(rows[0].path, "rb") as fh:
        key = feature_key(fh.read(), "phonation", EXTRACTOR_VERSION)
    os.makedirs(os.path.dirname(cache._path(key)))
    write_container(cache._path(key), "feature", {"values": fresh.values},
                    meta={"scheme": "phonation", "source_id": "wav/old.wav",
                          "warning": "stored"})
    result = extract_for_manifest(tuple(rows[:1]), config, cache)
    assert (result.cache_hits, result.computed) == (1, 0)
    assert result.rows == rows[:1]
    assert result.vectors[0].values.tobytes() == fresh.values.tobytes()
    assert result.vectors[0].warning == "stored"


def test_extract_decodes_the_bytes_it_hashed(tmp_path, corpus, monkeypatch):
    _, rows = corpus
    config = parse_config("scheme = phonation\n")
    target = tmp_path / "row.wav"
    with open(rows[0].path, "rb") as fh:
        original = fh.read()
    target.write_bytes(original)
    row = ManifestRow(str(target), rows[0].label, rows[0].speaker, rows[0].gender)
    fresh = extract_for_manifest((row,), config, None)

    def key_then_replace(raw, tag, version):
        # the file changes on disk right after its bytes were hashed
        with open(rows[1].path, "rb") as fh:
            target.write_bytes(fh.read())
        return feature_key(raw, tag, version)

    monkeypatch.setattr(pipeline, "feature_key", key_then_replace)
    cache = FeatureCache(tmp_path / "c")
    result = extract_for_manifest((row,), config, cache)
    assert result.failures == [] and result.computed == 1
    stored = cache.get(feature_key(original, "phonation", EXTRACTOR_VERSION), "phonation")
    assert stored.values.tobytes() == fresh.vectors[0].values.tobytes()
    assert result.vectors[0].values.tobytes() == fresh.vectors[0].values.tobytes()


def test_model_tag_names_the_bytes_that_were_parsed(tmp_path, monkeypatch):
    # each model file is opened once, and replacing it right after it was
    # read leaves the tag naming the weights that were loaded
    import builtins
    import hashlib

    from emovox import modelio
    from emovox.embeddings import GmmUbm, TotalVariabilityModel, random_xvector_weights

    rng = np.random.default_rng(8)
    ubm = GmmUbm(np.full(2, 0.5), rng.standard_normal((2, 24)), np.ones((2, 24)))
    tv_path, xv_path = str(tmp_path / "tv.emvx"), str(tmp_path / "xv.emvx")
    loaded, replacement = {}, {}
    for path, save, first, second in (
            (tv_path, modelio.save_tv,
             TotalVariabilityModel(0.1 * rng.standard_normal((48, 2)), ubm, 2),
             TotalVariabilityModel(0.2 * rng.standard_normal((48, 2)), ubm, 2)),
            (xv_path, modelio.save_xvector,
             random_xvector_weights(seed=0), random_xvector_weights(seed=1))):
        save(path, second)
        with open(path, "rb") as fh:
            replacement[path] = fh.read()
        save(path, first)
        loaded[path] = first
    with open(tv_path, "rb") as fh:
        tv_bytes = fh.read()
    with open(xv_path, "rb") as fh:
        xv_bytes = fh.read()

    real_open, real_read = builtins.open, modelio.read_container
    opened = []

    def counting_open(file, *args, **kwargs):
        opened.append(file)
        return real_open(file, *args, **kwargs)

    def read_then_replace(path, *args, **kwargs):
        out = real_read(path, *args, **kwargs)
        with real_open(path, "wb") as fh:
            fh.write(replacement[path])
        return out

    monkeypatch.setattr(modelio, "read_container", read_then_replace)
    monkeypatch.setattr(builtins, "open", counting_open)
    config = parse_config("scheme = ivector+xvector\ntv_model = %s\nxvector_model = %s\n"
                          % (tv_path, xv_path))
    models = load_embedding_models(config)
    monkeypatch.undo()
    assert opened.count(tv_path) == 1 and opened.count(xv_path) == 1
    assert models.tags == {"ivector": hashlib.sha256(tv_bytes).hexdigest()[:16],
                           "xvector": hashlib.sha256(xv_bytes).hexdigest()[:16]}
    assert np.array_equal(models.tv.t_matrix, loaded[tv_path].t_matrix)
    assert np.array_equal(models.xvector.layers["segment6"][0],
                          loaded[xv_path].layers["segment6"][0])
    with open(xv_path, "rb") as fh:
        assert fh.read() == replacement[xv_path]


def test_extract_collects_failures(tmp_path, corpus):
    directory, rows = corpus
    bad = rows + [ManifestRow(str(directory / "missing.wav"), "smooth", "s9", "m")]
    config = parse_config("scheme = phonation\n")
    result = extract_for_manifest(tuple(bad), config, None)
    assert len(result.vectors) == 6
    assert len(result.failures) == 1
    assert "missing.wav" in result.failures[0].path
    assert "FileNotFoundError" in result.failures[0].reason


def degenerate_rows(directory, rate):
    """All-zero, DC, full-scale square and clipped-voice rows, 1 sample to 1 s."""
    rows = []
    for n in (1, rate // 100, rate // 4, rate):
        t = np.arange(n) / rate
        kinds = {"zero": np.zeros(n), "dc_pos": np.full(n, 0.5), "dc_neg": np.full(n, -1.0),
                 "square": np.where(np.sin(2 * np.pi * 150 * t) >= 0, 1.0, -1.0),
                 "clipped": np.clip(6.0 * voice_like(130, n / rate, rate=rate), -1.0, 1.0)}
        for kind, x in kinds.items():
            path = write_pcm16(directory / ("%s_%d_%d.wav" % (kind, rate, n)), x, rate)
            rows.append(ManifestRow(str(path), "x", "s1", "m"))
    return rows


def test_degenerate_rows_end_finite_or_counted(tmp_path):
    # silence, DC, square waves and clipping reach every division by a mean
    # period, pulse height or energy in the four hand-built schemes
    rows = [row for rate in (8000, 16000, 44100) for row in degenerate_rows(tmp_path, rate)]
    config = parse_config("scheme = articulation+prosody+phonation+i2010pc\n")
    result = extract_for_manifest(tuple(rows), config, None)
    assert result.total == len(rows) == 60
    assert all(np.all(np.isfinite(v.values)) for v in result.vectors)
    # the square and clipped rows of 0.25 s and 1 s are voiced, so jitter and
    # shimmer run on them
    voiced = {os.path.basename(row.path) for row, v in zip(result.rows, result.vectors)
              if "no voiced frames" not in v.warning}
    assert {"%s_%d_%d.wav" % (kind, rate, n) for kind in ("square", "clipped")
            for rate in (8000, 16000, 44100) for n in (rate // 4, rate)} <= voiced
    # a constant signal has no period, so the DC rows are unvoiced throughout,
    # and i2010pc's voicing probability (and its delta) is 0 on every frame
    k = len(IS10_FUNCTIONALS)
    i2010pc = sum(SCHEME_DIMS[s] for s in ("articulation", "prosody", "phonation"))
    prob = [i2010pc + k * (d + LLD_NAMES.index("voicing_prob")) for d in (0, len(LLD_NAMES))]
    for row, v in zip(result.rows, result.vectors):
        if os.path.basename(row.path).startswith("dc_"):
            assert "no voiced frames" in v.warning and "no voiced speech" in v.warning, \
                row.path
            assert not np.any([v.values[c:c + k] for c in prob]), row.path


def test_extract_parallel_matches_serial(tmp_path, corpus):
    _, rows = corpus
    serial = extract_for_manifest(tuple(rows),
                                  parse_config("scheme = prosody\n"), None)
    parallel = extract_for_manifest(tuple(rows),
                                    parse_config("scheme = prosody\nworkers = 3\n"),
                                    None)
    for a, b in zip(serial.vectors, parallel.vectors):
        assert a.values.tobytes() == b.values.tobytes()


def test_embedding_scheme_requires_model_path():
    with pytest.raises(ConfigError, match="tv_model"):
        load_embedding_models(parse_config("scheme = ivector\n"))
    with pytest.raises(ConfigError, match="xvector_model"):
        load_embedding_models(parse_config("scheme = xvector\n"))


def test_feature_csv_full_precision(rng):
    vecs = [FeatureVector("prosody", rng.standard_normal(78)) for _ in range(3)]
    text = feature_csv(["row%d" % i for i in range(3)], vecs)
    lines = text.strip().split("\n")
    assert lines[0].split(",")[:2] == ["source_id", "f0"]
    assert len(lines) == 4
    for i, (line, vec) in enumerate(zip(lines[1:], vecs)):
        cells = line.split(",")
        assert cells[0] == "row%d" % i
        back = np.array([float(c) for c in cells[1:]])
        assert np.array_equal(back, vec.values)


def test_feature_csv_rejects_mixed_dims(rng):
    vecs = [FeatureVector("prosody", rng.standard_normal(78)),
            FeatureVector("phonation", rng.standard_normal(28))]
    with pytest.raises(ValueError, match="mixed"):
        feature_csv(["a", "b"], vecs)
    with pytest.raises(ValueError, match="no feature"):
        feature_csv([], [])


def six_scheme_models(rng):
    """In-memory i-vector (2 components, rank 2) and x-vector models."""
    from emovox.embeddings import GmmUbm, TotalVariabilityModel, random_xvector_weights
    from emovox.pipeline import EmbeddingModels

    ubm = GmmUbm(np.full(2, 0.5), rng.standard_normal((2, 24)), np.ones((2, 24)))
    tv = TotalVariabilityModel(0.1 * rng.standard_normal((48, 2)), ubm, 2)
    return EmbeddingModels(tv=tv, xvector=random_xvector_weights(seed=0))


SIX = "articulation+prosody+phonation+i2010pc+ivector+xvector"


def test_six_scheme_row_analyses_the_utterance_once(corpus, monkeypatch, rng):
    import sys

    from emovox import analysis, audio, dsp, functionals

    _, rows = corpus
    calls = {"estimate_f0": 0, "detect_speech": 0, "voiced_segments": 0, "embedding_mfcc": 0,
             "mfcc_frames": 0, "power_spectrum": 0, "apply_functionals": 0, "frame_signal": 0}

    # wrap every binding of each function in the package, as a tracer would
    for owner, name in ((dsp, "estimate_f0"), (audio, "detect_speech"),
                        (audio, "voiced_segments"), (analysis, "embedding_mfcc"),
                        (dsp, "mfcc_frames"),
                        (dsp, "power_spectrum"), (functionals, "apply_functionals"),
                        (audio, "frame_signal")):
        original = getattr(owner, name)

        def wrapper(*args, _name=name, _fn=original, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("emovox") and getattr(module, name, None) is original:
                monkeypatch.setattr(module, name, wrapper)
    models = six_scheme_models(rng)
    schemes = parse_config("scheme = %s\n" % SIX).fusion_schemes()
    fused, hits, computed = pipeline._extract_row(rows[0], schemes, models, None)
    assert (hits, computed) == (0, 6)
    # One 25/10 ms track shared by three schemes, plus i2010pc's 60 ms track;
    # one speech mask and one voicing segmentation (the counts perfbench
    # reports per row); one framing of the grid, shared by the VAD, the
    # voiced frames and (as Hann frames) i2010pc and the embeddings; one
    # power spectrum of the Hann frames, from which MFCCs come once for
    # i2010pc and once for both embeddings (this voice has no voicing
    # transitions); one summary per hand-built scheme.  The embedding MFCCs are an Analysis attribute, so
    # the module-level helper is not called.
    assert calls == {"estimate_f0": 2, "detect_speech": 1, "voiced_segments": 1,
                     "embedding_mfcc": 0, "mfcc_frames": 2, "power_spectrum": 1,
                     "apply_functionals": 4, "frame_signal": 1}

    monkeypatch.undo()
    w = pipeline.load_audio(rows[0].path)
    alone = np.concatenate([pipeline.extract_scheme(w, s, models).values
                            for s in SIX.split("+")])
    assert fused.values.tobytes() == alone.tobytes()


def test_warm_row_decodes_no_audio(tmp_path, corpus, monkeypatch, rng):
    from emovox import audio

    _, rows = corpus
    models = six_scheme_models(rng)
    config = parse_config("scheme = %s\n" % SIX)
    cache = FeatureCache(tmp_path / "c")
    cold = extract_for_manifest(tuple(rows[:2]), config, cache, models)

    def no_audio(*args, **kwargs):
        raise AssertionError("a warm row decoded or analysed audio")

    for name in ("parse_wav", "load_wav", "resample_to_8k"):
        monkeypatch.setattr(audio, name, no_audio)
    monkeypatch.setattr(pipeline, "Analysis", no_audio)
    warm = extract_for_manifest(tuple(rows[:2]), config, cache, models)
    assert warm.failures == [] and (warm.cache_hits, warm.computed) == (12, 0)
    for a, b in zip(cold.vectors, warm.vectors):
        assert a.values.tobytes() == b.values.tobytes()
