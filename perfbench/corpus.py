"""Deterministic inputs for the benchmark: voice-like WAV corpora and models.

Everything here is a pure function of the workload seed.  The program under
test only ever sees what this module writes: WAV files, a manifest CSV, a
config file and EMVX model files.  The generator uses its own synthesis
(harmonic source, two formant resonators, syllable envelope) so that it does
not depend on the test suite's helpers.
"""

from __future__ import annotations

import csv
import os
import wave
from dataclasses import dataclass

import numpy as np
from scipy import signal as sps
from scipy.special import ndtri

SOURCE_MAX_HZ = 3600.0   # every harmonic stays below the 4 kHz working Nyquist
NOISE_FLOOR = 0.002      # background hiss in pauses, so no frame is all zeros
XVECTOR_SEED = 0         # x-vector weights are the same for every workload seed

# (label, F0 factor, roughness, syllables/s, F1 Hz, F2 Hz).  Neighbouring
# classes differ by less than the per-row spread, so the classes overlap.
FOUR_CLASS = (
    ("angry", 1.32, 0.52, 5.4, 765.0, 1510.0),
    ("happy", 1.16, 0.17, 4.6, 675.0, 1740.0),
    ("neutral", 1.00, 0.08, 3.8, 560.0, 1450.0),
    ("sad", 0.88, 0.31, 2.9, 470.0, 1215.0),
)
BINARY = (
    ("dissatisfied", 1.11, 0.30, 4.6, 656.0, 1518.0),
    ("satisfied", 1.00, 0.12, 3.9, 570.0, 1450.0),
)


@dataclass(frozen=True)
class Row:
    """One generated utterance and the parameters it was synthesised from."""

    path: str
    label: str
    speaker: str
    gender: str
    f0_hz: float
    roughness: float
    syllable_rate: float
    duration_s: float
    sample_rate: int


def voice(f0_hz, dur_s, rate, rough, syllable_rate, f1_hz, f2_hz, rng):
    """Voiced syllables separated by short pauses, peak-normalised to 0.7.

    ``rough`` adds phase jitter, amplitude shimmer and breath noise; at 0
    the pitch follows f0_hz * (1 + 0.03 sin(2 pi 2.5 t)) exactly.
    """
    n = int(round(dur_s * rate))
    t = np.arange(n) / rate
    inst_f0 = f0_hz * (1.0 + 0.03 * np.sin(2 * np.pi * 2.5 * t))
    phase = 2 * np.pi * np.cumsum(inst_f0) / rate
    if rough > 0.0:
        phase += 0.6 * rough * np.cumsum(rng.standard_normal(n)) / np.sqrt(rate)
    n_harm = max(1, int(min(SOURCE_MAX_HZ, 0.45 * rate) // (f0_hz * 1.04)))
    source = sum(np.sin(k * phase) / k for k in range(1, n_harm + 1))
    shimmer = 1.0 + 0.4 * rough * sps.lfilter([0.02], [1.0, -0.98], rng.standard_normal(n))
    x = source * shimmer
    for fc, bw in ((f1_hz, 90.0), (f2_hz, 140.0)):
        r = np.exp(-np.pi * bw / rate)
        theta = 2 * np.pi * fc / rate
        x = sps.lfilter([1.0 - r], [1.0, -2 * r * np.cos(theta), r * r], x)
    x = x / np.max(np.abs(x))
    x = x + 0.15 * rough * rng.standard_normal(n)

    # syllable envelope: 70 % voiced, raised-cosine edges, pause in between
    period = 1.0 / syllable_rate
    pos = (t + 0.25 * period) % period / period
    env = np.clip(np.minimum(pos, 0.7 - pos) / 0.08, 0.0, 1.0) * (pos < 0.7)
    env = 0.5 - 0.5 * np.cos(np.pi * env)
    y = x * env
    y = 0.7 * y / np.max(np.abs(y))
    return y + NOISE_FLOOR * rng.standard_normal(n)


def write_pcm16(path, x, rate):
    pcm = np.clip(np.round(np.asarray(x) * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(os.fspath(path), "wb") as fh:
        fh.setnchannels(1)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())


def _spread(rng, n, sd):
    """n offsets at the normal quantiles (i + 0.5) / n, scaled by sd, shuffled.

    Every seed draws the same multiset of offsets, so the corpus make-up
    (and with it the cost of processing it) does not drift with the seed;
    only which row gets which offset, and the noise, change.
    """
    return sd * rng.permutation(ndtri((np.arange(n) + 0.5) / n))


def make_corpus(root, classes, n_speakers, per_class, seed, rates, dur_range):
    """Write one WAV per (speaker, class, take) under root/wav; return Rows.

    Every speaker records every class, so speaker-independent folds keep all
    classes.  Row parameters mix a speaker offset, the class effect and a
    per-row offset whose spread is wider than the gap between neighbouring
    classes.  Every class gets the same multiset of per-row offsets,
    durations (evenly spaced over dur_range) and sample rates (dealt from
    rates in turn); the seed only decides which speaker and take get which,
    so the total audio and the class overlap stay nearly the same from seed
    to seed.
    """
    rng = np.random.default_rng(seed)
    os.makedirs(os.path.join(root, "wav"), exist_ok=True)
    m = n_speakers * per_class          # rows per class

    def each_class(draw):
        return np.array([draw() for _ in classes])

    spk_f0 = _spread(rng, n_speakers, 1.0)
    spk_rough = _spread(rng, n_speakers, 0.05)
    spk_rate = _spread(rng, n_speakers, 0.3)
    row_f0 = 1.0 + each_class(lambda: _spread(rng, m, 0.06))
    row_rough = each_class(lambda: _spread(rng, m, 0.12))
    row_rate = each_class(lambda: _spread(rng, m, 0.6))
    row_formant = 1.0 + each_class(lambda: _spread(rng, m, 0.06))
    durs = each_class(lambda: rng.permutation(np.linspace(dur_range[0], dur_range[1], m)))
    row_rates = each_class(lambda: rng.permutation([rates[j % len(rates)] for j in range(m)]))
    rows = []
    for s in range(n_speakers):
        gender = "mf"[s % 2]
        lo, hi = (95.0, 125.0) if gender == "m" else (175.0, 225.0)
        base_f0 = lo + (hi - lo) * (0.5 + float(np.clip(spk_f0[s], -2, 2)) / 4)
        formant = 1.0 if gender == "m" else 1.12
        for c, (label, f0_fac, rough, syl, f1, f2) in enumerate(classes):
            for take in range(per_class):
                i = (c, s * per_class + take)
                f0 = base_f0 * f0_fac * row_f0[i]
                r = float(np.clip(rough + spk_rough[s] + row_rough[i], 0.0, 0.8))
                sr = float(np.clip(syl + spk_rate[s] + row_rate[i], 2.0, 7.0))
                rate = int(row_rates[i])
                fm = formant * row_formant[i]
                x = voice(f0, float(durs[i]), rate, r, sr, f1 * fm, f2 * fm, rng)
                rel = "wav/%s_s%02d_%d.wav" % (label, s, take)
                write_pcm16(os.path.join(root, rel), x, rate)
                rows.append(Row(rel, label, "spk%02d" % s, gender, float(f0), r, sr,
                                len(x) / rate, rate))
    return rows


def write_manifest(path, rows):
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["path", "label", "speaker", "gender"])
        for r in rows:
            w.writerow([r.path, r.label, r.speaker, r.gender])


def write_truth(path, rows):
    """The generator's per-row parameters, for the output checks."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(["path", "label", "speaker", "gender", "f0_hz", "roughness",
                    "syllable_rate", "duration_s", "sample_rate"])
        for r in rows:
            w.writerow([r.path, r.label, r.speaker, r.gender, repr(r.f0_hz),
                        repr(r.roughness), repr(r.syllable_rate),
                        repr(r.duration_s), r.sample_rate])


def read_truth(path):
    """The Rows that write_truth wrote."""
    with open(path, encoding="utf-8", newline="") as fh:
        return [Row(r["path"], r["label"], r["speaker"], r["gender"], float(r["f0_hz"]),
                    float(r["roughness"]), float(r["syllable_rate"]),
                    float(r["duration_s"]), int(r["sample_rate"]))
                for r in csv.DictReader(fh)]


def write_config(path, **keys):
    with open(path, "w", encoding="utf-8") as fh:
        for k, v in keys.items():
            fh.write("%s = %s\n" % (k, v))


def background_mfccs(n_utts, seed):
    """24-dim MFCC matrices of short 8 kHz voices for UBM/TV training."""
    from emovox.audio import Waveform
    from emovox.pipeline import embedding_mfcc

    rng = np.random.default_rng(seed)
    out = []
    for _ in range(n_utts):
        f0 = rng.uniform(90.0, 260.0)
        x = voice(f0, 0.6, 8000, rng.uniform(0.0, 0.6), rng.uniform(2.5, 6.0),
                  rng.uniform(450.0, 800.0), rng.uniform(1100.0, 2000.0), rng)
        pcm = np.clip(np.round(x * 32767.0), -32768, 32767) / 32768.0
        out.append(embedding_mfcc(Waveform(pcm, 8000, "bg")))
    return out


def train_models(root, seed, n_components, rank):
    """Train GMM-UBM + TV on a background set and draw x-vector weights.

    Writes tv.emvx and xvector.emvx under root.  The background set has the
    10 utterances per TV rank that train_total_variability requires.
    """
    from emovox import modelio
    from emovox.embeddings import (baum_welch_stats, random_xvector_weights,
                                   train_total_variability, train_ubm)

    mfccs = background_mfccs(10 * rank, seed)
    ubm = train_ubm(np.vstack(mfccs), n_components, seed=seed)
    stats = [baum_welch_stats(ubm, m) for m in mfccs]
    tv = train_total_variability(stats, ubm, rank, seed=seed)
    modelio.save_tv(os.path.join(root, "tv.emvx"), tv)
    modelio.save_xvector(os.path.join(root, "xvector.emvx"),
                         random_xvector_weights(seed=XVECTOR_SEED))
