"""Keep generated documentation in sync with the code it describes."""

import os
import re

from emovox.features.prosody import PROSODY_FEATURE_NAMES

DOCS = os.path.join(os.path.dirname(__file__), "..", "docs")


def test_prosody_doc_matches_feature_names():
    path = os.path.join(DOCS, "prosody_features.md")
    rows = []
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            m = re.match(r"\| (\d+) \| `([^`]+)` \|", line)
            if m:
                rows.append((int(m.group(1)), m.group(2)))
    assert [i for i, _ in rows] == list(range(len(PROSODY_FEATURE_NAMES)))
    assert tuple(n for _, n in rows) == PROSODY_FEATURE_NAMES


def test_file_formats_doc_mentions_every_scheme():
    from emovox.features import KNOWN_SCHEMES

    with open(os.path.join(DOCS, "file_formats.md"), encoding="utf-8") as fh:
        text = fh.read()
    for scheme in KNOWN_SCHEMES:
        if scheme == "fusion":
            continue
        assert f"`{scheme}`" in text, scheme


def test_file_formats_config_table_names_every_config_key():
    from dataclasses import fields

    from emovox.config import ExperimentConfig

    with open(os.path.join(DOCS, "file_formats.md"), encoding="utf-8") as fh:
        section = fh.read().split("## Experiment config", 1)[1].split("\n## ", 1)[0]
    keys = [key for line in section.splitlines() if line.startswith("| `")
            for key in re.findall(r"`([^`]+)`", line.split("|")[1])]
    assert sorted(keys) == sorted(f.name for f in fields(ExperimentConfig))
