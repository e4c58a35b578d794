"""Articulation features: spectra of voicing transitions plus formant dynamics.

58 descriptors per transition direction (22 Bark-band energies, 12 MFCC and
their first/second deltas) and 6 formant tracks, each summarized by
{mean, std, skewness, kurtosis}: 122 x 4 = 488 values.
"""

from __future__ import annotations

import numpy as np

from ..audio import ONSET, VOICED, Waveform, frame_count, frame_signal, voiced_segments
from ..dsp import bark_band_energies, delta, estimate_f0, formants_f1_f2, mfcc_frames
from ..functionals import FOUR_MOMENTS, FeatureTrack, FunctionalSet, apply_functionals

from . import FeatureVector

N_MFCC = 12


def transition_descriptors(chunk: np.ndarray, rate: int) -> np.ndarray:
    """58 values for one 80 ms transition chunk.

    Bark-band energies of the whole chunk plus MFCC/delta/delta-delta
    averaged over 25/10 ms sub-frames.
    """
    bbe = bark_band_energies(chunk, rate)
    n = frame_count(chunk.size, round(0.025 * rate), round(0.010 * rate))
    if n == 0:
        mf = dmf = ddmf = np.zeros(N_MFCC)
    else:
        frames = frame_signal(Waveform(chunk, rate, "chunk")).frames
        ceps = mfcc_frames(frames, rate, n_mels=24, n_ceps=N_MFCC, first=1)
        mf = ceps.mean(axis=0)
        dmf = delta(ceps).mean(axis=0)
        ddmf = delta(delta(ceps)).mean(axis=0)
    return np.concatenate([bbe, mf, dmf, ddmf])


def voiced_frames(w: Waveform, f0, spans) -> np.ndarray:
    """Rectangular frames of the pitch grid (one per row) that start in a voiced span."""
    frames = frame_signal(w, f0.frame_len_ms, f0.step_ms, "rectangular").frames
    starts = np.arange(frames.shape[0]) * round(f0.step_ms * w.sample_rate / 1000.0)
    voiced = np.zeros(starts.size, dtype=bool)
    for s in spans:
        if s.kind == VOICED:
            voiced |= (s.start_sample <= starts) & (starts < s.end_sample)
    return frames[voiced]


def articulation_features(w: Waveform) -> FeatureVector:
    f0 = estimate_f0(w)
    spans, transitions = voiced_segments(w, f0)

    warnings = []
    onset_rows, offset_rows = [], []
    for tr in transitions:
        row = transition_descriptors(tr.chunk, w.sample_rate)
        (onset_rows if tr.direction == ONSET else offset_rows).append(row)
    if not transitions:
        warnings.append("no transitions")

    f1s, f2s = formants_f1_f2(voiced_frames(w, f0, spans), w.sample_rate)
    if not f1s.size:
        warnings.append("no voiced frames")

    def contour_and_deltas(arr):
        arr = arr[np.isfinite(arr)]
        if arr.size == 0:
            absent = np.full(1, np.nan)
            return absent, absent, absent
        return arr, delta(arr), delta(delta(arr))

    # One track: 58 onset and 58 offset descriptors, then the six formant
    # contours, each column NaN-padded (absent) to the longest.
    blocks = [np.asarray(rows) if rows else np.full((1, 58), np.nan)
              for rows in (onset_rows, offset_rows)]
    blocks += [c[:, None] for c in contour_and_deltas(f1s) + contour_and_deltas(f2s)]
    n = max(b.shape[0] for b in blocks)
    track = np.hstack([np.pad(b, ((0, n - b.shape[0]), (0, 0)), constant_values=np.nan)
                       for b in blocks])
    names = tuple(f"{d}{j}" for d in ("onset", "offset") for j in range(58)) + (
        "f1", "df1", "ddf1", "f2", "df2", "ddf2")
    vec = apply_functionals(FeatureTrack(track, names), FunctionalSet(FOUR_MOMENTS))
    return FeatureVector("articulation", vec, w.source_id,
                         warning="; ".join(warnings))
