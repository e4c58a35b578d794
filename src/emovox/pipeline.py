"""Batch feature extraction: manifest rows -> FeatureVectors, with caching.

A vector is a function of its row's audio alone; the extraction result pairs
each one with its manifest row.

The cache key folds in the extractor version and, for embedding schemes, a
digest of the model file bytes, so stale entries can never be returned after
either changes.  A row's first cache miss decodes its audio into one
``Analysis`` that every scheme of the row shares; a fully cached row decodes
nothing.  Per-file failures are collected, not raised; callers decide
how to report them.  A failed cache write fails no row: it is counted.

The extraction stack (``audio``, ``analysis``, ``dsp``, ``functionals``,
``features.<scheme>`` and ``embeddings``) is imported on first use: on a
row's first cache miss, in ``load_audio`` and in ``extract_scheme``.  So
importing this module, or running on a fully cached manifest, loads none of
it.  Every extractor is looked up on its module when it is called, never
held here, so a function replaced on its module is the one that runs.
"""

from __future__ import annotations

import hashlib
import importlib
from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from .cache import FeatureCache, audio_digest, feature_key
from .config import ExperimentConfig
from .errors import ConfigError, EmovoxError
from .features import FeatureVector, fuse
from .manifest import ManifestRow
from . import modelio

if TYPE_CHECKING:
    from .analysis import Analysis
    from .audio import Waveform

EXTRACTOR_VERSION = "9"

# Schemes with a module of their own under emovox.features.
HAND_BUILT = ("phonation", "articulation", "prosody", "i2010pc")


def __getattr__(name):
    # embedding_mfcc is re-exported from emovox.analysis without loading it
    # at import time
    if name == "embedding_mfcc":
        from .analysis import embedding_mfcc
        return embedding_mfcc
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class EmbeddingModels:
    tv: Optional[object] = None
    xvector: Optional[object] = None
    tags: dict = None  # scheme -> short digest of the model file bytes

    def tag(self, scheme: str) -> str:
        if self.tags and scheme in self.tags:
            return f"{scheme}@{self.tags[scheme]}"
        return scheme


def _load_tagged(load, path):
    """A model and the short digest of the very bytes it was parsed from.

    The file is read once, so replacing it during the run cannot give the
    cache tag of one set of weights to vectors computed with another.
    """
    digest = hashlib.sha256()
    model = load(path, digest)
    return model, digest.hexdigest()[:16]


def load_embedding_models(config: ExperimentConfig) -> EmbeddingModels:
    """Load whichever model files the configured scheme needs."""
    schemes = config.fusion_schemes()
    tv = xvec = None
    tags = {}
    if "ivector" in schemes:
        if not config.tv_model:
            raise ConfigError("scheme 'ivector' requires tv_model in the config")
        tv, tags["ivector"] = _load_tagged(modelio.load_tv, config.tv_model)
    if "xvector" in schemes:
        if not config.xvector_model:
            raise ConfigError(
                "scheme 'xvector' requires xvector_model in the config")
        xvec, tags["xvector"] = _load_tagged(modelio.load_xvector, config.xvector_model)
    return EmbeddingModels(tv=tv, xvector=xvec, tags=tags)


def load_audio(path) -> Waveform:
    """Read a WAV file and bring it to the 8 kHz processing rate."""
    from . import audio

    return audio.resample_to_8k(audio.load_wav(path))


def extract_scheme(source: Waveform | Analysis, scheme: str,
                   models: EmbeddingModels | None = None) -> FeatureVector:
    """One feature vector for one base scheme, from a waveform or its shared analysis."""
    if scheme in HAND_BUILT:
        module = importlib.import_module(f"{__package__}.features.{scheme}")
        return getattr(module, f"{scheme}_features")(source)
    if scheme == "ivector":
        if models is None or models.tv is None:
            raise ConfigError("i-vector extraction needs a loaded TV model")
        from .analysis import Analysis
        from .embeddings.gmm import baum_welch_stats
        from .embeddings.ivector import extract_ivector

        stats = baum_welch_stats(models.tv.ubm, Analysis.of(source).embedding_mfcc)
        return FeatureVector("ivector", extract_ivector(models.tv, stats))
    if scheme == "xvector":
        if models is None or models.xvector is None:
            raise ConfigError("x-vector extraction needs loaded weights")
        from .analysis import Analysis
        from .embeddings.xvector import xvector_forward

        return FeatureVector("xvector", xvector_forward(models.xvector,
                                                        Analysis.of(source).embedding_mfcc))
    raise ConfigError(f"unknown scheme {scheme!r}")


@dataclass(frozen=True)
class ExtractionFailure:
    path: str
    reason: str


@dataclass
class ExtractionResult:
    rows: list      # the manifest row of each vector
    vectors: list
    failures: list
    cache_hits: int
    computed: int
    unwritten: int  # computed vectors the cache could not store

    @property
    def total(self) -> int:
        return len(self.vectors) + len(self.failures)


def _extract_row(row, schemes: tuple, models, cache: FeatureCache | None):
    with open(row.path, "rb") as fh:
        raw = fh.read()
    digest = audio_digest(raw) if cache else None  # the bytes are hashed once per row
    analysis = None   # built on the first cache miss and shared by every scheme
    parts = []
    hits = computed = unwritten = 0
    for scheme in schemes:
        key = feature_key(digest, models.tag(scheme), EXTRACTOR_VERSION) if cache else None
        vec = cache.get(key, scheme) if cache else None
        if vec is not None:
            hits += 1
        else:
            if analysis is None:
                from . import audio
                from .analysis import Analysis

                # decoded from the bytes that were hashed, not a second read
                analysis = Analysis(audio.resample_to_8k(audio.parse_wav(raw, row.path)))
            vec = extract_scheme(analysis, scheme, models)
            computed += 1
            if cache:
                try:
                    cache.put(key, vec)
                except OSError:  # the row keeps its vector
                    unwritten += 1
        parts.append(vec)
    return fuse(parts), hits, computed, unwritten


def extract_for_manifest(manifest: tuple[ManifestRow, ...], config: ExperimentConfig,
                         cache: FeatureCache | None = None,
                         models: EmbeddingModels | None = None) -> ExtractionResult:
    """Extract the configured scheme for every manifest row.

    Rows whose audio cannot be read or processed become ExtractionFailures;
    the returned rows and their vectors keep manifest order.  A vector the
    cache cannot store is still returned, and counted as unwritten.
    """
    schemes = config.fusion_schemes()
    if models is None:
        models = load_embedding_models(config)

    def work(row):
        try:
            return _extract_row(row, schemes, models, cache)
        except (EmovoxError, OSError, ValueError) as exc:
            reason = f"{type(exc).__name__}: {exc}"
            return ExtractionFailure(row.path, reason)

    if config.workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=config.workers) as pool:
            outcomes = list(pool.map(work, manifest))
    else:
        outcomes = [work(row) for row in manifest]

    rows, vectors, failures = [], [], []
    tallies = (0, 0, 0)  # cache hits, computed vectors, unwritten ones
    for row, out in zip(manifest, outcomes):
        if isinstance(out, ExtractionFailure):
            failures.append(out)
        else:
            rows.append(row)
            vectors.append(out[0])
            tallies = tuple(t + count for t, count in zip(tallies, out[1:]))
    return ExtractionResult(rows, vectors, failures, *tallies)


def feature_csv(source_ids, vectors) -> str:
    """Full-precision CSV: a source_id column (one id per vector) plus f0..f{d-1}."""
    import csv as _csv
    import io

    if not vectors:
        raise ValueError("no feature vectors to serialize")
    dim = vectors[0].dim
    for v in vectors:
        if v.dim != dim:
            raise ValueError("feature vectors have mixed dimensionality")
    buf = io.StringIO()
    writer = _csv.writer(buf, lineterminator="\n")
    writer.writerow(["source_id"] + ["f%d" % i for i in range(dim)])
    values = ",%.17g" * dim + "\n"  # one % per row, not one per value
    for source_id, v in zip(source_ids, vectors, strict=True):
        # csv quotes the id as it would in the whole row; the values then
        # replace the empty cell after it and the line end
        writer.writerow((source_id, ""))
        buf.seek(buf.tell() - 2)
        buf.truncate()
        buf.write(values % tuple(v.values.tolist()))
    return buf.getvalue()
