"""Prosody features: duration, F0 and energy statistics over 78 dimensions.

The exact descriptor-by-functional layout is enumerated in
docs/prosody_features.md; PROSODY_FEATURE_NAMES below is the same list and
the docs table is generated from it.
"""

from __future__ import annotations

import numpy as np

from ..analysis import Analysis
from ..audio import STEP_MS, Waveform, _runs
from ..functionals import SIX_BASIC, apply_functionals

from . import FeatureVector

STEP_S = STEP_MS / 1000.0

_CONTOUR_TRACKS = ("f0_contour", "energy_contour", "voiced_duration",
                   "unvoiced_duration", "pause_duration")
_SLOPE_TRACKS = ("f0_slope_per_segment", "energy_slope_per_segment")
_RANGE_TRACKS = ("f0_range_per_segment", "energy_range_per_segment")
_FIT_TRACKS = ("f0_fit_error_per_segment", "energy_fit_error_per_segment")
_RATE_SCALARS = ("voiced_segments_per_second", "pauses_per_second")
_RATIO_SCALARS = ("voiced_time_ratio", "unvoiced_time_ratio", "pause_time_ratio")
_COUNT_SCALARS = ("n_voiced_segments", "n_pauses", "total_duration_s",
                  "total_voiced_s", "total_pause_s")
_GLOBAL_SCALARS = ("global_f0_slope", "global_energy_slope")

PROSODY_FEATURE_NAMES = tuple(
    [f"{t}.{f}" for t in _CONTOUR_TRACKS for f in SIX_BASIC]
    + list(_RATE_SCALARS) + list(_RATIO_SCALARS)
    + [f"{t}.{f}" for t in _SLOPE_TRACKS for f in SIX_BASIC]
    + [f"{t}.{f}" for t in _RANGE_TRACKS for f in SIX_BASIC]
    + list(_COUNT_SCALARS)
    + [f"{t}.{f}" for t in _FIT_TRACKS for f in SIX_BASIC]
    + list(_GLOBAL_SCALARS))

assert len(PROSODY_FEATURE_NAMES) == 78


def _slope_and_mse(y: np.ndarray):
    """Least-squares slope (per second) and mean squared residual over time."""
    if y.size < 2:
        return np.nan, np.nan
    t = np.arange(y.size) * STEP_S
    slope, offset = np.polyfit(t, y, 1)
    resid = y - (slope * t + offset)
    return float(slope), float(np.mean(resid ** 2))


def prosody_features(source: Waveform | Analysis) -> FeatureVector:
    a = Analysis.of(source)
    w, f0 = a.waveform, a.f0.values
    voiced, speech = a.voiced, a.speech

    if f0.size == 0 or not np.any(voiced):
        return FeatureVector("prosody", np.zeros(78), warning="no voiced speech")

    energy = a.log_energy
    unvoiced = speech & ~voiced
    pause = ~speech

    voiced_runs, unvoiced_runs, pause_runs = (
        [(lo, hi) for lo, hi, on in _runs(mask) if on] for mask in (voiced, unvoiced, pause))

    f0_contour = f0[voiced & (f0 > 0)]
    energy_contour = energy[voiced]

    f0_slopes, f0_errs, f0_ranges = [], [], []
    e_slopes, e_errs, e_ranges = [], [], []
    for lo, hi in voiced_runs:
        seg_f0 = f0[lo:hi]
        seg_f0 = seg_f0[seg_f0 > 0]
        seg_e = energy[lo:hi]
        s, q = _slope_and_mse(seg_f0)
        f0_slopes.append(s)
        f0_errs.append(q)
        f0_ranges.append(seg_f0.max() - seg_f0.min() if seg_f0.size else np.nan)
        s, q = _slope_and_mse(seg_e)
        e_slopes.append(s)
        e_errs.append(q)
        e_ranges.append(seg_e.max() - seg_e.min() if seg_e.size else np.nan)

    def durations(runs):
        return np.array([(hi - lo) * STEP_S for lo, hi in runs])

    tracks = {
        "f0_contour": f0_contour, "energy_contour": energy_contour,
        "voiced_duration": durations(voiced_runs),
        "unvoiced_duration": durations(unvoiced_runs),
        "pause_duration": durations(pause_runs),
        "f0_slope_per_segment": f0_slopes, "energy_slope_per_segment": e_slopes,
        "f0_range_per_segment": f0_ranges, "energy_range_per_segment": e_ranges,
        "f0_fit_error_per_segment": f0_errs, "energy_fit_error_per_segment": e_errs,
    }
    stats = apply_functionals(tracks.values(), SIX_BASIC)
    values = dict(zip((f"{t}.{f}" for t in tracks for f in SIX_BASIC), stats))

    total_s = w.duration_s
    g_f0_slope, _ = _slope_and_mse(f0_contour)
    g_e_slope, _ = _slope_and_mse(energy_contour)
    values.update({
        "voiced_segments_per_second": len(voiced_runs) / total_s,
        "pauses_per_second": len(pause_runs) / total_s,
        "voiced_time_ratio": float(np.mean(voiced)),
        "unvoiced_time_ratio": float(np.mean(unvoiced)),
        "pause_time_ratio": float(np.mean(pause)),
        "n_voiced_segments": float(len(voiced_runs)),
        "n_pauses": float(len(pause_runs)),
        "total_duration_s": total_s,
        "total_voiced_s": float(np.sum(voiced)) * STEP_S,
        "total_pause_s": float(np.sum(pause)) * STEP_S,
        "global_f0_slope": 0.0 if np.isnan(g_f0_slope) else g_f0_slope,
        "global_energy_slope": 0.0 if np.isnan(g_e_slope) else g_e_slope,
    })
    return FeatureVector("prosody", np.array([values[name] for name in PROSODY_FEATURE_NAMES]))
