"""Per-utterance intermediates shared by every feature scheme of a manifest row.

An ``Analysis`` wraps one 8 kHz ``Waveform`` and computes each intermediate
the first time a scheme asks for it: the 25/10 ms F0 track, the voiced /
unvoiced segmentation of that track, the rectangular-frame log energy and the
MFCC matrix both embeddings read.  The pipeline builds one per row on its
first cache miss; an extractor given a bare ``Waveform`` builds its own.
"""

from __future__ import annotations

import numpy as np

from .audio import Waveform, frame_signal, voiced_segments
from .dsp import estimate_f0, log_frame_energy, mfcc_frames

EMBEDDING_N_CEPS = 24


def embedding_mfcc(w: Waveform) -> np.ndarray:
    """24-dim MFCC matrix used as input to both embedding extractors."""
    frames = frame_signal(w)
    return mfcc_frames(frames.frames, w.sample_rate,
                       n_mels=EMBEDDING_N_CEPS, n_ceps=EMBEDDING_N_CEPS)


class Analysis:
    """Lazily computed, memoised intermediates of one utterance."""

    def __init__(self, waveform: Waveform):
        self.waveform = waveform
        self._memo = {}

    @classmethod
    def of(cls, source: "Waveform | Analysis") -> "Analysis":
        """``source`` itself if it is an Analysis, else a new one over it."""
        return source if isinstance(source, Analysis) else cls(source)

    def _once(self, key, make):
        if key not in self._memo:
            self._memo[key] = make()
        return self._memo[key]

    @property
    def f0(self):
        """``estimate_f0`` with its defaults: 25 ms frames every 10 ms."""
        return self._once("f0", lambda: estimate_f0(self.waveform))

    @property
    def segments(self):
        """(spans, transitions) of ``voiced_segments`` on the F0 track."""
        return self._once("segments", lambda: voiced_segments(self.waveform, self.f0))

    @property
    def log_energy(self) -> np.ndarray:
        """Natural-log energy of the rectangular 25/10 ms frames."""
        return self._once("log_energy", lambda: log_frame_energy(
            frame_signal(self.waveform, window_kind="rectangular").frames))

    @property
    def embedding_mfcc(self) -> np.ndarray:
        return self._once("embedding_mfcc", lambda: embedding_mfcc(self.waveform))
