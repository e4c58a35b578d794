"""Experiment configuration: flat key=value UTF-8 text (a leading byte-order
mark is allowed), unknown keys fatal.

Example file::

    scheme = articulation+prosody+phonation
    mode = speaker_independent
    k_outer = 5
    k_inner = 5
    seed = 17
    cache_dir = .emovox_cache

Grid bounds are decimal exponents; the grid enumerates whole decades, so the
defaults give the 8 x 10 grid of C in 10^-3..10^4 and gamma in 10^-6..10^3.
Every value is checked when the config is made, so a bad one fails before
any extraction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, get_type_hints

from .errors import ConfigError
from .evaluation import MODES, SPEAKER_INDEPENDENT
from .features import KNOWN_SCHEMES

_BASE_SCHEMES = tuple(s for s in KNOWN_SCHEMES if s != "fusion")

# the whole exponents e for which 10.0 ** e is a finite positive float
_GRID_EXPONENTS = range(-323, 309)


@dataclass(frozen=True)
class ExperimentConfig:
    scheme: str = "phonation"
    mode: str = SPEAKER_INDEPENDENT
    k_outer: int = 5
    k_inner: int = 5
    c_exp_min: int = -3
    c_exp_max: int = 4
    gamma_exp_min: int = -6
    gamma_exp_max: int = 3
    seed: int = 0
    cache_dir: str = ".emovox_cache"
    workers: int = 1
    positive_label: Optional[str] = None
    tv_model: Optional[str] = None
    xvector_model: Optional[str] = None
    train_c: float = 1.0
    train_gamma: float = 0.1

    def __post_init__(self):
        self.fusion_schemes()  # validates the scheme string
        if self.mode not in MODES:
            raise ConfigError(
                f"mode must be one of {'/'.join(MODES)}, got {self.mode!r}")
        for name in ("k_outer", "k_inner"):
            if getattr(self, name) < 2:
                raise ConfigError(f"{name} must be >= 2")
        for lo, hi in (("c_exp_min", "c_exp_max"), ("gamma_exp_min", "gamma_exp_max")):
            for name in (lo, hi):
                if getattr(self, name) not in _GRID_EXPONENTS:
                    raise ConfigError(
                        f"{name} must be in -323..308, got {getattr(self, name)}")
            if getattr(self, lo) > getattr(self, hi):
                raise ConfigError(f"{lo} must not exceed {hi}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        for name in ("train_c", "train_gamma"):
            if not 0.0 < getattr(self, name) < math.inf:
                raise ConfigError(
                    f"{name} must be finite and positive, got {getattr(self, name)}")

    def fusion_schemes(self) -> tuple:
        """Member schemes, in order ('a+b+c' syntax; single scheme is itself)."""
        parts = tuple(p.strip() for p in self.scheme.split("+"))
        for p in parts:
            if p not in _BASE_SCHEMES:
                raise ConfigError(
                    f"unknown scheme {p!r}; known: {', '.join(_BASE_SCHEMES)}")
        if len(parts) != len(set(parts)):
            raise ConfigError(f"duplicate scheme in {self.scheme!r}")
        return parts

    def grid(self) -> list:
        """All (C, gamma) cells, C-major ascending: the tie-break order."""
        return [(10.0 ** c, 10.0 ** g)
                for c in range(self.c_exp_min, self.c_exp_max + 1)
                for g in range(self.gamma_exp_min, self.gamma_exp_max + 1)]


# each key's type, from the field annotations: int and float values are parsed
_KEY_TYPES = get_type_hints(ExperimentConfig)


def parse_config(text: str, origin: str = "config") -> ExperimentConfig:
    values = {}
    seen_lines = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{origin}: line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if key not in _KEY_TYPES:
            raise ConfigError(f"{origin}: line {lineno}: unknown key {key!r}")
        if key in seen_lines:
            raise ConfigError(
                f"{origin}: line {lineno}: duplicate key {key!r} "
                f"(first set on line {seen_lines[key]})")
        seen_lines[key] = lineno
        kind = _KEY_TYPES[key]
        if kind not in (int, float):
            values[key] = value
            continue
        try:
            values[key] = kind(value)
        except ValueError:
            raise ConfigError(
                f"{origin}: line {lineno}: {key} must be "
                f"{'an integer' if kind is int else 'a number'}, got {value!r}")
    try:
        return ExperimentConfig(**values)
    except ConfigError as exc:
        raise ConfigError(f"{origin}: {exc}")


def load_config(path) -> ExperimentConfig:
    try:
        with open(path, "r", encoding="utf-8-sig") as fh:
            text = fh.read()
    except FileNotFoundError:
        raise ConfigError(f"config not found: {path}")
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}")
    return parse_config(text, origin=str(path))
