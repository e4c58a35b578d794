"""Content-addressed feature cache.

Keys are sha256 digests over (extractor version, scheme tag, sha256 digest
of the audio bytes), so a hit returns the stored vector bit-identically and
any version bump or model change produces a different key; a row's bytes are
hashed once (``audio_digest``), whatever number of schemes it is keyed for.
Keys were once taken over the audio bytes themselves: entries written under
that rule are never read again, and miss and are recomputed once, as on a
version bump.  An entry holds a vector's scheme, values and
warning, not the manifest row it came from, so byte-identical files share one.
Entries are EMVX containers written temp-then-rename, so concurrent writers
are safe.
"""

from __future__ import annotations

import hashlib
import os

from .errors import FeatureSchemeError, ModelFormatError
from .features import FeatureVector
from .modelio import read_container, write_container


def audio_digest(audio_bytes: bytes) -> bytes:
    """The sha256 digest of a file's bytes, which ``feature_key`` takes."""
    return hashlib.sha256(audio_bytes).digest()


def feature_key(audio_sha256: bytes, scheme_tag: str, version: str) -> str:
    """The cache key of a file's vector of one scheme, from its ``audio_digest``."""
    if len(audio_sha256) != 32:
        raise ValueError("feature_key takes the 32-byte sha256 digest of the audio bytes")
    h = hashlib.sha256()
    h.update(b"emovox-feature\0")
    h.update(version.encode("utf-8") + b"\0")
    h.update(scheme_tag.encode("utf-8") + b"\0")
    h.update(audio_sha256)
    return h.hexdigest()


class FeatureCache:
    """Filesystem store under ``root`` with two-character shard directories."""

    def __init__(self, root):
        self.root = os.fspath(root)

    def _path(self, key: str) -> str:
        return os.path.join(self.root, key[:2], key + ".fv")

    def get(self, key: str, scheme: str):
        """The stored vector of ``scheme``, or None.

        Absent and corrupt entries miss, and so does a well-formed container
        that is not a valid entry of ``scheme``: no scheme or values, another
        or an unknown scheme, the wrong width, non-finite values, a warning
        that is not a string.  Each is recomputed and overwritten.  Other
        meta keys are ignored, so an entry that also names a row reads as a hit.
        """
        try:
            _, arrays, meta = read_container(self._path(key), "feature")
            vector = FeatureVector(meta["scheme"], arrays["values"],
                                   warning=meta.get("warning", ""))
        except (FileNotFoundError, ModelFormatError, KeyError, FeatureSchemeError):
            return None
        return vector if vector.scheme == scheme else None

    def put(self, key: str, vector: FeatureVector) -> None:
        path = self._path(key)
        arrays = {"values": vector.values}
        meta = {"scheme": vector.scheme, "warning": vector.warning}
        try:
            write_container(path, "feature", arrays, meta)
        except FileNotFoundError:
            # the shard directory is made by the first write that misses it
            os.makedirs(os.path.dirname(path), exist_ok=True)
            write_container(path, "feature", arrays, meta)
