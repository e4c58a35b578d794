"""Phonation features: F0 dynamics, jitter/shimmer perturbation, log-energy.

Seven descriptor tracks over the voiced portion of the utterance, each
summarized by {mean, std, skewness, kurtosis}: 28 values.
"""

from __future__ import annotations

import math

import numpy as np

from ..audio import VOICED, Waveform, frame_signal, voiced_segments
from ..dsp import delta, estimate_f0, log_frame_energy
from ..functionals import FOUR_MOMENTS, FeatureTrack, FunctionalSet, apply_functionals
from . import FeatureVector

PHONATION_TRACKS = ("delta_f0", "delta2_f0", "jitter", "shimmer",
                    "apq", "ppq", "log_energy")

# Periods further than 40% from the local median are treated as pulse
# detection slips, not phonation, and dropped before perturbation measures.
MAX_PERIOD_DEVIATION = 0.40


def _parabolic_peak(x: np.ndarray, k: int):
    """Sub-sample position/height of a local maximum at integer index k."""
    if k <= 0 or k >= x.size - 1:
        return float(k), float(x[k])
    a, b, c = x[k - 1], x[k], x[k + 1]
    denom = a - 2.0 * b + c
    if abs(denom) < 1e-30:
        return float(k), float(b)
    shift = 0.5 * (a - c) / denom
    shift = float(np.clip(shift, -0.5, 0.5))
    height = b - 0.25 * (a - c) * shift
    return k + shift, float(height)


def detect_pulses(x: np.ndarray, rate: int, f0_hz: float):
    """Glottal pulse positions (fractional samples) and amplitudes.

    Peak-picks the waveform at roughly one peak per period of the given
    fundamental, then refines each mark by parabolic interpolation.
    """
    if f0_hz <= 0 or x.size < 3:
        return np.zeros(0), np.zeros(0)
    from scipy.signal import find_peaks  # imported on use: it slows the CLI start by ~1 s

    period = rate / f0_hz
    height = 0.3 * float(np.max(x)) if np.max(x) > 0 else None
    peaks, _ = find_peaks(x, distance=max(int(0.6 * period), 1), height=height)
    marks, amps = [], []
    for k in peaks:
        pos, amp = _parabolic_peak(x, int(k))
        marks.append(pos)
        amps.append(amp)
    return np.asarray(marks), np.asarray(amps)


def _clean_periods(marks: np.ndarray):
    periods = np.diff(marks)
    if periods.size == 0:
        return periods
    med = np.median(periods)
    keep = np.abs(periods - med) <= MAX_PERIOD_DEVIATION * med
    return periods[keep]


def jitter_local(periods: np.ndarray) -> float:
    """Mean absolute consecutive period difference over mean period, in %."""
    if periods.size < 2:
        return math.nan
    return 100.0 * np.mean(np.abs(np.diff(periods))) / np.mean(periods)


def jitter_ppq5(periods: np.ndarray) -> float:
    """Five-point pitch perturbation quotient, in %."""
    if periods.size < 5:
        return math.nan
    devs = [abs(periods[i] - np.mean(periods[i - 2:i + 3]))
            for i in range(2, periods.size - 2)]
    return 100.0 * np.mean(devs) / np.mean(periods)


def jitter_ddp(periods: np.ndarray) -> float:
    """Mean absolute difference of consecutive period differences, in %."""
    if periods.size < 3:
        return math.nan
    return 100.0 * np.mean(np.abs(np.diff(periods, 2))) / np.mean(periods)


def shimmer_local(amps: np.ndarray) -> float:
    """Mean absolute consecutive amplitude difference over mean amplitude, %."""
    amps = amps[amps > 0]
    if amps.size < 2:
        return math.nan
    return 100.0 * np.mean(np.abs(np.diff(amps))) / np.mean(amps)


def shimmer_apq11(amps: np.ndarray) -> float:
    """Eleven-point amplitude perturbation quotient, in %."""
    amps = amps[amps > 0]
    if amps.size < 11:
        return math.nan
    devs = [abs(amps[i] - np.mean(amps[i - 5:i + 6]))
            for i in range(5, amps.size - 5)]
    return 100.0 * np.mean(devs) / np.mean(amps)


def phonation_features(w: Waveform) -> FeatureVector:
    f0 = estimate_f0(w)
    spans, _ = voiced_segments(w, f0)
    voiced_spans = [s for s in spans if s.kind == VOICED]
    step = round(f0.step_ms * w.sample_rate / 1000.0)

    if not voiced_spans or not np.any(f0.values > 0):
        return FeatureVector("phonation", np.zeros(28), w.source_id,
                             warning="no voiced frames")

    energy = log_frame_energy(frame_signal(w, window_kind="rectangular").frames)

    contour, log_e = [], []
    jit, shim, apq, ppq = [], [], [], []
    for span in voiced_spans:
        frames = [t for t in range(f0.values.size)
                  if span.start_sample <= t * step < span.end_sample]
        seg_f0 = np.array([f0.values[t] for t in frames if f0.values[t] > 0])
        contour.extend(seg_f0)
        log_e.extend(energy[t] for t in frames)
        if seg_f0.size == 0:
            continue
        marks, amps = detect_pulses(
            w.samples[span.start_sample:span.end_sample],
            w.sample_rate, float(np.median(seg_f0)))
        periods = _clean_periods(marks) / w.sample_rate
        jit.append(jitter_local(periods))
        ppq.append(jitter_ppq5(periods))
        shim.append(shimmer_local(amps))
        apq.append(shimmer_apq11(amps))

    contour = np.asarray(contour)
    tracks = {
        "delta_f0": delta(contour) if contour.size else contour,
        "delta2_f0": delta(delta(contour)) if contour.size else contour,
        "jitter": np.asarray(jit),
        "shimmer": np.asarray(shim),
        "apq": np.asarray(apq),
        "ppq": np.asarray(ppq),
        "log_energy": np.asarray(log_e),
    }
    parts = []
    four = FunctionalSet(FOUR_MOMENTS)
    for name in PHONATION_TRACKS:
        col = tracks[name].reshape(-1, 1)
        if col.size == 0:
            col = np.full((1, 1), np.nan)
        parts.append(apply_functionals(FeatureTrack(col, (name,)), four))
    return FeatureVector("phonation", np.concatenate(parts), w.source_id)
