"""Per-utterance feature families and fusion.

Each extractor in ``EXTRACTORS`` takes a ``Waveform`` or the row's shared
``emovox.analysis.Analysis``; given a bare waveform it builds its own.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arrays import frozen
from ..errors import FeatureSchemeError

# Fixed output dimensionality per scheme; i-vectors vary with the model rank
# and fusion with its member list.
SCHEME_DIMS = {
    "phonation": 28,
    "articulation": 488,
    "prosody": 78,
    "i2010pc": 1596,
    "xvector": 512,
}
KNOWN_SCHEMES = ("phonation", "articulation", "prosody", "i2010pc",
                 "ivector", "xvector", "fusion")


@dataclass(frozen=True)
class FeatureVector:
    scheme: str
    values: np.ndarray
    source_id: str = ""
    warning: str = ""

    def __post_init__(self):
        if self.scheme not in KNOWN_SCHEMES:
            raise FeatureSchemeError(f"unknown scheme {self.scheme!r}")
        if not isinstance(self.source_id, str) or not isinstance(self.warning, str):
            raise FeatureSchemeError(f"{self.scheme}: source_id and warning must be strings")
        values = frozen(self.values)
        if values.ndim != 1:
            raise FeatureSchemeError("feature values must be one-dimensional")
        if not np.all(np.isfinite(values)):
            raise FeatureSchemeError(f"{self.scheme}: non-finite feature values")
        want = SCHEME_DIMS.get(self.scheme)
        if want is not None and values.size != want:
            raise FeatureSchemeError(
                f"{self.scheme}: expected {want} values, got {values.size}")
        object.__setattr__(self, "values", values)

    @property
    def dim(self) -> int:
        return self.values.size


def fuse(vectors: list) -> FeatureVector:
    """One row's vectors concatenated in scheme order (a lone vector is itself)."""
    if len(vectors) == 1:
        return vectors[0]
    return FeatureVector(
        "fusion", np.concatenate([v.values for v in vectors]),
        source_id=vectors[0].source_id,
        warning="; ".join(v.warning for v in vectors if v.warning))


from .phonation import phonation_features  # noqa: E402
from .articulation import articulation_features  # noqa: E402
from .prosody import prosody_features  # noqa: E402
from .i2010pc import i2010pc_features  # noqa: E402

EXTRACTORS = {
    "phonation": phonation_features,
    "articulation": articulation_features,
    "prosody": prosody_features,
    "i2010pc": i2010pc_features,
}
