#!/usr/bin/env python3
"""Build a manifest CSV from a corpus directory whose filenames encode labels.

Supported naming conventions:

emodb    Berlin EMODB: files like ``03a01Fa.wav``.
         chars 0-1  speaker id (03 08 09 10 11 12 13 14 15 16)
         chars 2-4  text code
         char  5    emotion letter: W anger, L boredom, E disgust, A fear,
                    F happiness, T sadness, N neutral
         char  6    version letter (optional)
         Speakers 03, 10, 11, 12, 15 are male; 08, 09, 13, 14, 16 female.

ravdess  RAVDESS: files like ``03-01-06-01-02-01-12.wav``
         (modality-channel-emotion-intensity-statement-repetition-actor).
         emotion: 01 neutral, 02 calm, 03 happy, 04 sad, 05 angry,
         06 fearful, 07 disgust, 08 surprised.
         Odd actor numbers are male, even female.

Usage:
    python3 scripts/make_manifest.py emodb /path/to/emodb/wav -o emodb.csv
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from emovox.errors import ManifestError  # noqa: E402
from emovox.manifest import ManifestRow, write_manifest  # noqa: E402

EMODB_EMOTIONS = {
    "W": "anger", "L": "boredom", "E": "disgust", "A": "fear",
    "F": "happiness", "T": "sadness", "N": "neutral",
}
EMODB_MALE = {"03", "10", "11", "12", "15"}
EMODB_FEMALE = {"08", "09", "13", "14", "16"}

RAVDESS_EMOTIONS = {
    "01": "neutral", "02": "calm", "03": "happy", "04": "sad",
    "05": "angry", "06": "fearful", "07": "disgust", "08": "surprised",
}


def parse_emodb(name: str):
    stem = os.path.splitext(name)[0]
    if len(stem) < 6:
        return None
    speaker, letter = stem[:2], stem[5]
    if letter not in EMODB_EMOTIONS:
        return None
    if speaker in EMODB_MALE:
        gender = "m"
    elif speaker in EMODB_FEMALE:
        gender = "f"
    else:
        gender = "unknown"
    return EMODB_EMOTIONS[letter], "emodb" + speaker, gender


def parse_ravdess(name: str):
    stem = os.path.splitext(name)[0]
    parts = stem.split("-")
    if len(parts) != 7 or parts[2] not in RAVDESS_EMOTIONS:
        return None
    actor = parts[6]
    try:
        gender = "m" if int(actor) % 2 == 1 else "f"
    except ValueError:
        return None
    return RAVDESS_EMOTIONS[parts[2]], "ravdess" + actor, gender


PARSERS = {"emodb": parse_emodb, "ravdess": parse_ravdess}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("convention", choices=sorted(PARSERS))
    ap.add_argument("directory", help="directory scanned recursively for .wav")
    ap.add_argument("-o", "--output", required=True, help="manifest CSV path")
    args = ap.parse_args(argv)

    parse = PARSERS[args.convention]
    rows, skipped = [], []
    for dirpath, _, files in sorted(os.walk(args.directory)):
        for name in sorted(files):
            if not name.lower().endswith(".wav"):
                continue
            parsed = parse(name)
            if parsed is None:
                skipped.append(name)
                continue
            label, speaker, gender = parsed
            rows.append(ManifestRow(os.path.join(dirpath, name), label,
                                    speaker, gender))
    if not rows:
        print("error: no parseable .wav files under %s" % args.directory,
              file=sys.stderr)
        return 2
    try:
        write_manifest(args.output, rows)
    except ManifestError as exc:  # a path that would not read back as written
        print("error: %s" % exc, file=sys.stderr)
        return 2
    print("wrote %s (%d rows, %d files skipped)"
          % (args.output, len(rows), len(skipped)))
    for name in skipped[:20]:
        print("  skipped: %s" % name, file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
