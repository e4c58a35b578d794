"""Per-utterance intermediates shared by every feature scheme of a manifest row.

An ``Analysis`` wraps one 8 kHz ``Waveform`` and frames it once on the
25/10 ms grid that ``emovox.audio.grid`` defines: the rectangular frames (a
view of the samples, which the VAD ``detect_speech`` reads too), the power
spectrum of the Hann frames made from them (i2010pc's MFCCs and mel bands
and the embedding MFCCs read it), the F0 track, the speech and voiced masks
of the grid frames, the voicing transitions (an onset flag and an 80 ms
chunk per run boundary of the voiced mask), the rectangular-frame log
energy and the MFCC matrix both embeddings read.  Each is computed the
first time a scheme asks for it.  The Hann frames themselves are made on
each call and not kept: besides the power spectrum only i2010pc reads
them, and they hold twice the spectrum's bytes.  The pipeline builds one
per row on its first cache miss; an extractor given a bare ``Waveform``
builds its own.
"""

from __future__ import annotations

import numpy as np

from .audio import Waveform, detect_speech, frame_signal, voiced_segments
from .dsp import estimate_f0, log_frame_energy, mfcc_frames, power_spectrum

EMBEDDING_N_CEPS = 24


def embedding_mfcc(w: Waveform) -> np.ndarray:
    """24-dim MFCC matrix used as input to both embedding extractors."""
    return Analysis(w).embedding_mfcc


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
            value = make()
            for part in value if isinstance(value, tuple) else (value,):
                if isinstance(part, np.ndarray):
                    part.flags.writeable = False  # shared by every scheme of the row
            self._memo[key] = value
        return self._memo[key]

    @property
    def rect_frames(self) -> np.ndarray:
        """Rectangular grid frames, one per row: a view of the samples."""
        return self._once("rect_frames", lambda: frame_signal(self.waveform))

    @property
    def hann_frames(self) -> np.ndarray:
        """Hann-windowed grid frames, one per row: made on each call, not kept."""
        return self.rect_frames * np.hanning(self.rect_frames.shape[1])

    @property
    def hann_power(self) -> np.ndarray:
        """Power spectrum of the Hann frames, one row per frame."""
        return self._once("hann_power", lambda: power_spectrum(self.hann_frames))

    @property
    def f0(self):
        """``estimate_f0`` with its defaults: one value per grid frame."""
        return self._once("f0", lambda: estimate_f0(self.waveform))

    @property
    def _segments(self):
        """``voiced_segments`` on the F0 track: (voiced mask, onset flags, chunks)."""
        return self._once("segments", lambda: voiced_segments(self.waveform, self.f0))

    @property
    def voiced(self) -> np.ndarray:
        """Mask of the voiced grid frames, short voicing runs merged away."""
        return self._segments[0]

    @property
    def transitions(self):
        """(onset flags, chunk matrix): one flag and one 80 ms chunk per run
        boundary of the voiced mask, True where voicing starts."""
        return self._segments[1:]

    @property
    def speech(self) -> np.ndarray:
        """Mask of the grid frames the VAD ``detect_speech`` calls speech."""
        return self._once("speech", lambda: detect_speech(self))

    @property
    def log_energy(self) -> np.ndarray:
        """Natural-log energy of the rectangular frames."""
        return self._once("log_energy", lambda: log_frame_energy(self.rect_frames))

    @property
    def embedding_mfcc(self) -> np.ndarray:
        return self._once("embedding_mfcc", lambda: mfcc_frames(
            self.hann_power, self.waveform.sample_rate,
            n_mels=EMBEDDING_N_CEPS, n_ceps=EMBEDDING_N_CEPS))
