"""Articulation features: spectra of voicing transitions plus formant dynamics.

58 descriptors per transition direction (22 Bark-band energies, 12 MFCC and
their first/second deltas) and 6 formant tracks, each summarized by
{mean, std, skewness, kurtosis}: 122 x 4 = 488 values.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Analysis
from ..audio import Waveform, frames, grid
from ..dsp import bark_band_energies, delta, formants_f1_f2, mfcc_frames, power_spectrum
from ..functionals import FOUR_MOMENTS, apply_functionals

from . import FeatureVector

N_MFCC = 12


def transition_descriptors(chunks: np.ndarray, rate: int) -> np.ndarray:
    """58 values for each 80 ms transition chunk (one chunk per row).

    Bark-band energies of the whole chunk plus MFCC/delta/delta-delta
    averaged over its 25/10 ms Hann sub-frames; all chunks go through one
    ``bark_band_energies`` and one ``mfcc_frames`` call.
    """
    n_chunks = chunks.shape[0]
    bbe = bark_band_energies(chunks, rate)
    sub = frames(chunks, *grid(rate))
    n, frame_len = sub.shape[1:]
    if n == 0:
        return np.hstack([bbe, np.zeros((n_chunks, 3 * N_MFCC))])
    hann = (sub * np.hanning(frame_len)).reshape(-1, frame_len)
    ceps = mfcc_frames(power_spectrum(hann), rate, n_mels=24,
                       n_ceps=N_MFCC, first=1).reshape(n_chunks, n, N_MFCC)
    # deltas run along each chunk's frames: frames down, (chunk, coefficient) across
    by_frame = ceps.transpose(1, 0, 2).reshape(n, -1)
    d1 = delta(by_frame)
    d2 = delta(d1)
    return np.hstack([bbe, ceps.mean(axis=1)] + [
        d.reshape(n, n_chunks, N_MFCC).mean(axis=0) for d in (d1, d2)])


def articulation_features(source: Waveform | Analysis) -> FeatureVector:
    a = Analysis.of(source)
    w = a.waveform
    onset, chunks = a.transitions

    warnings = []
    onset_rows = offset_rows = np.zeros((0, 58))
    if onset.size:
        rows = transition_descriptors(chunks, w.sample_rate)
        onset_rows, offset_rows = rows[onset], rows[~onset]
    else:
        warnings.append("no transitions")

    f1s, f2s = formants_f1_f2(a.rect_frames, w.sample_rate, a.voiced)
    if not f1s.size:
        warnings.append("no voiced frames")

    def contour_and_deltas(arr):
        arr = arr[np.isfinite(arr)]
        return arr, delta(arr), delta(delta(arr))

    # 58 onset and 58 offset descriptors, then the six formant contours
    blocks = [onset_rows, offset_rows, *contour_and_deltas(f1s), *contour_and_deltas(f2s)]
    vec = apply_functionals(blocks, FOUR_MOMENTS)
    return FeatureVector("articulation", vec, warning="; ".join(warnings))
