"""Content-addressed feature cache.

Keys are sha256 digests over (audio bytes, scheme tag, extractor version), so
a hit returns the stored vector bit-identically and any version bump or model
change produces a different key.  Entries are EMVX containers written
temp-then-rename, so concurrent writers are safe.
"""

from __future__ import annotations

import hashlib
import os

from .errors import FeatureSchemeError, ModelFormatError
from .features import FeatureVector
from .modelio import read_container, write_container


def feature_key(audio_bytes: bytes, scheme_tag: str, version: str) -> str:
    h = hashlib.sha256()
    h.update(b"emovox-feature\0")
    h.update(version.encode("utf-8") + b"\0")
    h.update(scheme_tag.encode("utf-8") + b"\0")
    h.update(audio_bytes)
    return h.hexdigest()


class FeatureCache:
    """Filesystem store under ``root`` with two-character shard directories."""

    def __init__(self, root):
        self.root = os.fspath(root)
        self.hits = 0
        self.misses = 0

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".fv")

    def get(self, key: str, scheme: str):
        """The stored vector of ``scheme``, or None: a counted miss.

        Absent and corrupt entries miss, and so does a well-formed container
        that is not a valid entry of ``scheme``: no scheme or values, another
        or an unknown scheme, the wrong width, non-finite values, a source id
        or warning that is not a string.  Each is recomputed and overwritten.
        """
        try:
            _, arrays, meta = read_container(self._path(key), "feature")
            vector = FeatureVector(meta["scheme"], arrays["values"],
                                   source_id=meta.get("source_id", ""),
                                   warning=meta.get("warning", ""))
        except (FileNotFoundError, ModelFormatError, KeyError, FeatureSchemeError):
            vector = None
        if vector is None or vector.scheme != scheme:
            self.misses += 1
            return None
        self.hits += 1
        return vector

    def put(self, key: str, vector: FeatureVector) -> None:
        path = self._path(key)
        arrays = {"values": vector.values}
        meta = {"scheme": vector.scheme, "source_id": vector.source_id,
                "warning": vector.warning}
        try:
            write_container(path, "feature", arrays, meta)
        except FileNotFoundError:
            # the shard directory is made by the first write that misses it
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_container(path, "feature", arrays, meta)
