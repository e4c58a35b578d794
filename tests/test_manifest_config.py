"""Manifest CSV contract and experiment-config parsing."""

import csv
import io
import re

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


@pytest.mark.parametrize("odd", ["\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
                                 "\x85", "\u2028", "\u2029", ",", '"', '",\n"'])
def test_write_read_roundtrip_odd_path_characters(tmp_path, odd):
    # str.splitlines would end a line at each of these but the comma and quote
    rows = [ManifestRow("a%sb.wav" % odd, "x", "s1"), ManifestRow("c.wav", "y", "s2")]
    path = tmp_path / "m.csv"
    write_manifest(path, rows)
    assert read_manifest(path) == tuple(rows)


def old_writer_text(rows, durations):
    """The text ``write_manifest`` wrote before it read rows back: one
    ``csv.writer`` over the header and every row."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["path", "label", "speaker", "gender"] + ["duration_s"] * durations)
    for r in rows:
        cells = [r.path, r.label, r.speaker, r.gender]
        writer.writerow(cells + ["" if r.duration_s is None else repr(float(r.duration_s))]
                        * durations)
    return out.getvalue()


def test_write_keeps_the_bytes_of_rows_that_read_back(tmp_path):
    rows = [ManifestRow("x y.wav", "ha,ppy", "s1", "m", 2.25),
            ManifestRow('q"\nb\u2028.wav', "sad", "s2", "unknown", None),
            ManifestRow("c.wav", "é", "s 3", "f", 0.0)]
    path = tmp_path / "m.csv"
    for durations in (None, True, False):
        write_manifest(path, rows, include_durations=durations)
        assert path.read_bytes() == old_writer_text(rows, durations is not False).encode()
        back = read_manifest(path)
        assert back == tuple(rows if durations is not False
                             else [ManifestRow(r.path, r.label, r.speaker, r.gender) for r in rows])


@pytest.mark.parametrize("row", [
    ManifestRow("a\rb.wav", "x", "s1"), ManifestRow(" a.wav ", "x", "s1"),
    ManifestRow("a.wav\u2028", "x", "s1"), ManifestRow("\x0ba.wav", "x", "s1"),
    ManifestRow("a.wav\x85", "x", "s1"), ManifestRow("a.wav", "x ", "s1"),
    ManifestRow("a.wav", "x", "\ts1"), ManifestRow("a.wav", "x", "s1", " m"),
    ManifestRow("", "x", "s1"), ManifestRow("a.wav", " ", "s1"),
    ManifestRow("a.wav", "x", "s1", "robot"), ManifestRow("a.wav", "x", "s1", "m", float("nan")),
    ManifestRow("a.wav", "x", "s1", "m", -1.0)])
def test_write_refuses_a_row_that_would_not_read_back(tmp_path, row):
    # the writer's text would read back as another row or not at all, so
    # nothing is written and the error names the row
    path = tmp_path / "m.csv"
    path.write_text("untouched")
    with pytest.raises(ManifestError) as exc:
        write_manifest(path, [ManifestRow("c.wav", "y", "s2"), row])
    assert str(exc.value) == "row 2 would not read back as written: %r" % (row,)
    assert path.read_text() == "untouched"


def test_write_refuses_a_repeated_path(tmp_path):
    path = tmp_path / "m.csv"
    rows = [ManifestRow("a.wav", "x", "s1"), ManifestRow("b.wav", "y", "s1"),
            ManifestRow("a.wav", "y", "s2")]
    with pytest.raises(ManifestError, match="^row 3: duplicate path 'a.wav'$"):
        write_manifest(path, rows)
    assert not path.exists()


def test_make_manifest_reports_a_path_that_would_not_read_back(tmp_path, monkeypatch, capsys):
    # a corpus directory named with a leading space gives relative paths
    # that the reader would strip: an error line and exit 2, no manifest
    import importlib.util
    import pathlib

    script = pathlib.Path(__file__).resolve().parent.parent / "scripts" / "make_manifest.py"
    spec = importlib.util.spec_from_file_location("make_manifest", script)
    make_manifest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(make_manifest)
    monkeypatch.chdir(tmp_path)
    (tmp_path / " emo").mkdir()
    (tmp_path / " emo" / "03a01Fa.wav").write_bytes(b"")
    assert make_manifest.main(["emodb", " emo", "-o", "m.csv"]) == 2
    row = ManifestRow(" emo/03a01Fa.wav", "happiness", "emodb03", "m")
    assert capsys.readouterr().err == "error: row 1 would not read back as written: %r\n" % (row,)
    assert not (tmp_path / "m.csv").exists()


def test_line_numbers_count_physical_lines():
    # a record whose quoted path holds a line break spans lines 2 and 3
    text = 'path,label,speaker,gender\n"a\nb.wav",x,s,m\nc.wav,,s,m\n'
    with pytest.raises(ManifestError, match="line 4: empty label"):
        parse_manifest(text)
    with pytest.raises(ManifestError, match="line 5: duplicate .*first seen on line 3"):
        parse_manifest(text.replace("c.wav,,s,m", '"a\nb.wav",x,s,m'))
    with pytest.raises(ManifestError, match="line 3: empty label"):
        parse_manifest(GOOD.replace("\n", "\r\n").replace("b.wav,sad", "b.wav,"))


def test_manifest_byte_order_mark(tmp_path):
    # Excel's "CSV UTF-8" and Notepad write one; it is not part of the header
    plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
    plain.write_text(GOOD_DUR, encoding="utf-8")
    marked.write_text(GOOD_DUR, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert read_manifest(marked) == read_manifest(plain) == parse_manifest(GOOD_DUR)
    # a second mark is not one
    marked.write_text("\ufeff" + GOOD_DUR, encoding="utf-8-sig")
    with pytest.raises(ManifestError, match="header"):
        read_manifest(marked)
    with pytest.raises(ManifestError, match="header"):
        parse_manifest("\ufeff" + GOOD_DUR)


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


def test_config_byte_order_mark(tmp_path):
    text = "scheme = prosody\nseed = 3\n"
    plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
    plain.write_text(text, encoding="utf-8")
    marked.write_text(text, encoding="utf-8-sig")
    assert marked.read_bytes()[:3] == b"\xef\xbb\xbf"
    assert load_config(marked) == load_config(plain) == parse_config(text)
    # anywhere else it is part of a key
    marked.write_text("scheme = prosody\n\ufeffseed = 3\n", encoding="utf-8-sig")
    with pytest.raises(ConfigError, match=re.escape("line 2: unknown key '\\ufeffseed'")):
        load_config(marked)


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
