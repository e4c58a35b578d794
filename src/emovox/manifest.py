"""Corpus manifest: the CSV contract by which audio collections enter the tool.

Header must be exactly ``path,label,speaker,gender`` with an optional trailing
``duration_s`` column.  Paths are unique, labels non-empty, gender one of
m / f / unknown (empty cell reads as unknown).  Files are UTF-8, with an
optional leading byte-order mark; a cell holding commas, quotes or line
breaks round-trips through ``write_manifest``'s CSV quoting.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass
from typing import Optional

from .errors import ManifestError

REQUIRED_COLUMNS = ("path", "label", "speaker", "gender")
OPTIONAL_COLUMNS = ("duration_s",)
GENDERS = ("m", "f", "unknown")


@dataclass(frozen=True)
class ManifestRow:
    path: str
    label: str
    speaker: str
    gender: str = "unknown"
    duration_s: Optional[float] = None


def _parse_row(cells, n_cols, lineno) -> ManifestRow:
    if len(cells) != n_cols:
        raise ManifestError(
            f"line {lineno}: expected {n_cols} columns, got {len(cells)}")
    path, label, speaker, gender = (c.strip() for c in cells[:4])
    if not path:
        raise ManifestError(f"line {lineno}: empty path")
    if not label:
        raise ManifestError(f"line {lineno}: empty label")
    if not speaker:
        raise ManifestError(f"line {lineno}: empty speaker")
    gender = gender or "unknown"
    if gender not in GENDERS:
        raise ManifestError(
            f"line {lineno}: gender must be one of {'/'.join(GENDERS)}, "
            f"got {gender!r}")
    duration = None
    if n_cols == 5:
        raw = cells[4].strip()
        if raw:
            try:
                duration = float(raw)
            except ValueError:
                raise ManifestError(f"line {lineno}: bad duration_s {raw!r}")
            if not 0.0 <= duration < math.inf:
                raise ManifestError(
                    f"line {lineno}: duration_s must be finite and >= 0, got {raw}")
    return ManifestRow(path, label, speaker, gender, duration)


def parse_manifest(text: str, origin: str = "manifest") -> tuple[ManifestRow, ...]:
    # csv splits the records itself, so a quoted line break stays in its cell
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader)
    except StopIteration:
        raise ManifestError(f"{origin}: empty file (header row required)")
    header = [h.strip() for h in header]
    if tuple(header) == REQUIRED_COLUMNS:
        n_cols = 4
    elif tuple(header) == REQUIRED_COLUMNS + OPTIONAL_COLUMNS:
        n_cols = 5
    else:
        raise ManifestError(
            f"{origin}: line 1: header must be "
            f"'{','.join(REQUIRED_COLUMNS)}' optionally followed by "
            f"',duration_s'; got '{','.join(header)}'")
    rows = []
    seen = {}
    for cells in reader:
        lineno = reader.line_num  # a record's last line
        if not cells or (len(cells) == 1 and not cells[0].strip()):
            continue
        row = _parse_row(cells, n_cols, lineno)
        if row.path in seen:
            raise ManifestError(
                f"line {lineno}: duplicate path {row.path!r} "
                f"(first seen on line {seen[row.path]})")
        seen[row.path] = lineno
        rows.append(row)
    if not rows:
        raise ManifestError(f"{origin}: no data rows")
    return tuple(rows)


def read_manifest(path) -> tuple[ManifestRow, ...]:
    try:
        with open(path, "r", encoding="utf-8-sig", newline="") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ManifestError(f"manifest not found: {path}")
    except OSError as exc:
        raise ManifestError(f"cannot read manifest {path}: {exc}")
    return parse_manifest(text, origin=os.fspath(path))


def write_manifest(path, rows, include_durations: bool | None = None) -> None:
    rows = list(rows)
    if include_durations is None:
        include_durations = any(r.duration_s is not None for r in rows)
    header = list(REQUIRED_COLUMNS) + (["duration_s"] if include_durations else [])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for r in rows:
            cells = [r.path, r.label, r.speaker, r.gender]
            if include_durations:
                cells.append("" if r.duration_s is None else repr(float(r.duration_s)))
            writer.writerow(cells)
