"""Manifest CSV contract and experiment-config parsing."""

import pytest

from emovox.config import load_config, parse_config
from emovox.errors import ConfigError, ManifestError
from emovox.manifest import (
    ManifestRow,
    parse_manifest,
    read_manifest,
    write_manifest,
)

GOOD = """path,label,speaker,gender
a.wav,happy,s1,m
b.wav,sad,s2,f
c.wav,happy,s1,
"""

GOOD_DUR = """path,label,speaker,gender,duration_s
a.wav,happy,s1,m,1.5
b.wav,sad,s2,f,
"""


def test_parse_basic():
    m = parse_manifest(GOOD)
    assert len(m) == 3
    assert m[0] == ManifestRow("a.wav", "happy", "s1", "m", None)
    assert m[2].gender == "unknown"


def test_parse_with_durations():
    m = parse_manifest(GOOD_DUR)
    assert m[0].duration_s == 1.5
    assert m[1].duration_s is None


def test_header_required():
    with pytest.raises(ManifestError, match="header"):
        parse_manifest("a.wav,happy,s1,m\n")
    with pytest.raises(ManifestError, match="header"):
        parse_manifest("path,label,speaker\nx,y,z\n")
    with pytest.raises(ManifestError, match="empty"):
        parse_manifest("")


def test_line_numbers_in_errors():
    bad = "path,label,speaker,gender\na.wav,happy,s1,m\nb.wav,,s2,f\n"
    with pytest.raises(ManifestError, match="line 3"):
        parse_manifest(bad)
    dup = "path,label,speaker,gender\na.wav,x,s,m\na.wav,y,s,m\n"
    with pytest.raises(ManifestError, match="line 3.*duplicate"):
        parse_manifest(dup)


def test_field_validation():
    with pytest.raises(ManifestError, match="gender"):
        parse_manifest("path,label,speaker,gender\na.wav,x,s,male\n")
    with pytest.raises(ManifestError, match="duration"):
        parse_manifest("path,label,speaker,gender,duration_s\na.wav,x,s,m,abc\n")
    for bad in ("-1", "nan", "inf", "1e999"):
        with pytest.raises(ManifestError, match="duration"):
            parse_manifest("path,label,speaker,gender,duration_s\na.wav,x,s,m,%s\n" % bad)
    with pytest.raises(ManifestError, match="columns"):
        parse_manifest("path,label,speaker,gender\na.wav,x,s\n")
    with pytest.raises(ManifestError, match="no data"):
        parse_manifest("path,label,speaker,gender\n")


def test_write_read_roundtrip(tmp_path):
    rows = [
        ManifestRow("x y.wav", "ha,ppy", "s1", "m", 2.25),
        ManifestRow("b.wav", "sad", "s2", "unknown", None),
    ]
    path = tmp_path / "m.csv"
    write_manifest(path, rows)
    back = read_manifest(path)
    assert back == tuple(rows)


def test_read_missing_manifest():
    with pytest.raises(ManifestError, match="not found"):
        read_manifest("/nonexistent/manifest.csv")


# ---------------------------------------------------------------------------
# config
# ---------------------------------------------------------------------------


def test_config_defaults():
    cfg = parse_config("")
    assert cfg.scheme == "phonation"
    assert cfg.mode == "speaker_independent"
    assert (cfg.k_outer, cfg.k_inner, cfg.seed) == (5, 5, 0)
    assert len(cfg.grid()) == 80


def test_config_full_file(tmp_path):
    text = """
    # experiment setup
    scheme = articulation+prosody+phonation
    mode = speaker_dependent
    k_outer = 3   # small corpus
    k_inner = 2
    c_exp_min = 0
    c_exp_max = 1
    gamma_exp_min = -2
    gamma_exp_max = -1
    seed = 17
    cache_dir = /tmp/cache
    workers = 4
    positive_label = sad
    """
    path = tmp_path / "c.cfg"
    path.write_text(text)
    cfg = load_config(path)
    assert cfg.fusion_schemes() == ("articulation", "prosody", "phonation")
    assert cfg.mode == "speaker_dependent"
    assert cfg.grid() == [(1.0, 0.01), (1.0, 0.1),
                          (10.0, 0.01), (10.0, 0.1)]
    assert cfg.seed == 17
    assert cfg.workers == 4
    assert cfg.positive_label == "sad"


def test_unknown_key_fatal():
    with pytest.raises(ConfigError, match="line 2.*unknown key 'shceme'"):
        parse_config("seed = 1\nshceme = phonation\n")
    # the TV model file embeds its UBM, so there is no separate UBM key
    with pytest.raises(ConfigError, match="line 2.*unknown key 'ubm_model'"):
        parse_config("scheme = ivector\nubm_model = ubm.emvx\ntv_model = tv.emvx\n")


def test_duplicate_key_fatal():
    with pytest.raises(ConfigError, match="duplicate key"):
        parse_config("seed = 1\nseed = 2\n")


def test_bad_values():
    with pytest.raises(ConfigError, match="integer"):
        parse_config("seed = abc\n")
    with pytest.raises(ConfigError, match="mode"):
        parse_config("mode = bogus\n")
    with pytest.raises(ConfigError, match="unknown scheme"):
        parse_config("scheme = phonation+spectral\n")
    with pytest.raises(ConfigError, match="duplicate scheme"):
        parse_config("scheme = phonation+phonation\n")
    with pytest.raises(ConfigError, match="k_outer"):
        parse_config("k_outer = 1\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config("just some words\n")
    with pytest.raises(ConfigError, match="c_exp_min"):
        parse_config("c_exp_min = 3\nc_exp_max = 1\n")
    with pytest.raises(ConfigError, match="workers"):
        parse_config("workers = 0\n")
    with pytest.raises(ConfigError, match="train_c"):
        parse_config("train_c = -2\n")
    # values that would otherwise fail only after a full extraction, or train
    # a degenerate model
    for key, value in (("seed", "-1"), ("c_exp_max", "309"), ("c_exp_max", "400"),
                       ("gamma_exp_min", "-324"), ("gamma_exp_min", "-400"),
                       ("train_c", "inf"), ("train_gamma", "inf"), ("train_gamma", "nan")):
        with pytest.raises(ConfigError, match=key):
            parse_config(f"{key} = {value}\n")


def test_grid_exponent_range_edges_accepted():
    cfg = parse_config("c_exp_min = 307\nc_exp_max = 308\n"
                       "gamma_exp_min = -323\ngamma_exp_max = -322\n")
    assert cfg.grid() == [(1e307, 1e-323), (1e307, 1e-322),
                          (1e308, 1e-323), (1e308, 1e-322)]


def test_config_not_found():
    with pytest.raises(ConfigError, match="not found"):
        load_config("/nonexistent/cfg")


def test_embedding_scheme_accepted():
    cfg = parse_config("scheme = ivector\ntv_model = /models/tv.emvx\n")
    assert cfg.fusion_schemes() == ("ivector",)
    assert cfg.tv_model == "/models/tv.emvx"
