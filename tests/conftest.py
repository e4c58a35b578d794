"""Shared synthesis helpers for the test suite."""

import struct
import wave

import numpy as np
import pytest

from emovox.audio import Waveform
from emovox.svm import BinarySvm, _kernel_matrix


def dual_objective(svm: BinarySvm) -> float:
    """Value of the SVM dual sum(alpha) - 0.5 * sum alpha_i alpha_j y_i y_j K_ij."""
    coef = svm.dual_coef
    if coef.size == 0:
        return 0.0
    k = _kernel_matrix(svm.support_vectors, svm.support_vectors, svm.gamma)
    return float(np.sum(np.abs(coef)) - 0.5 * coef @ k @ coef)


def tone(freq, dur_s=1.0, rate=8000, amp=0.5, phase=0.0):
    t = np.arange(int(round(dur_s * rate))) / rate
    return amp * np.sin(2 * np.pi * freq * t + phase)


def wf(x, rate=8000, source="test"):
    return Waveform(np.asarray(x, dtype=float), rate, source)


def write_pcm16(path, samples, rate, channels=1):
    """Write 16-bit PCM via the stdlib wave module (independent of our writer)."""
    x = np.asarray(samples)
    if channels > 1:
        x = x.reshape(-1, channels)
    pcm = np.clip(np.round(x * 32767.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as fh:
        fh.setnchannels(channels)
        fh.setsampwidth(2)
        fh.setframerate(rate)
        fh.writeframes(pcm.tobytes())
    return path


def craft_wav(path, fmt_tag=1, bits=16, rate=8000, channels=1, payload=b"\x00\x00"):
    """Hand-assemble a WAV container with arbitrary fmt fields."""
    block = channels * bits // 8
    fmt = struct.pack("<HHIIHH", fmt_tag, channels, rate, rate * block, block, bits)
    body = b"fmt " + struct.pack("<I", len(fmt)) + fmt
    body += b"data" + struct.pack("<I", len(payload)) + payload
    blob = b"RIFF" + struct.pack("<I", 4 + len(body)) + b"WAVE" + body
    path.write_bytes(blob)
    return path


def voice_like(f0, dur_s=0.5, rate=8000, rough=0.0, seed=0):
    """Synthetic phonation-like signal; rough > 0 adds jitter/shimmer noise."""
    g = np.random.default_rng(seed)
    n = int(round(dur_s * rate))
    t = np.arange(n) / rate
    phase = 2 * np.pi * f0 * t + 0.3 * np.sin(2 * np.pi * 3.0 * t)
    if rough > 0.0:
        phase = phase + rough * np.cumsum(g.standard_normal(n)) / np.sqrt(rate)
    x = 0.45 * np.sin(phase) * (1.0 + 0.08 * np.sin(2 * np.pi * 2.0 * t))
    x = x + (0.25 * rough) * g.standard_normal(n)
    return np.clip(x, -0.95, 0.95)


def make_corpus(directory, n_per_class=6, rate=8000, seed=0, dur_s=0.5):
    """Write a 2-class WAV corpus (smooth vs rough voices); returns rows.

    Speakers straddle both classes so speaker-independent folds stay valid.
    """
    from emovox.manifest import ManifestRow

    rows = []
    for cls, rough in (("smooth", 0.0), ("rough", 1.0)):
        for i in range(n_per_class):
            # a speaker's later takes sit a little higher, so no two rows
            # (smooth voices ignore the seed) write the same file
            f0 = 110.0 + 17.0 * (i % 4) + 5.0 * (i // 4)
            x = voice_like(f0, dur_s, rate, rough=rough, seed=seed * 997 + i)
            path = directory / ("%s_%02d.wav" % (cls, i))
            write_pcm16(path, x, rate)
            rows.append(ManifestRow(str(path), cls, "spk%d" % (i % 4),
                                    ("m", "f")[i % 2]))
    return rows


@pytest.fixture
def rng():
    return np.random.default_rng(12345)
