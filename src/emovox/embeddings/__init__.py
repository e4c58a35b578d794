"""Utterance-level embedding models: GMM background models, total-variability
i-vectors, and a stats-pooling TDNN x-vector forward pass."""

from .gmm import GmmUbm, baum_welch_stats, train_ubm
from .ivector import TotalVariabilityModel, extract_ivector, train_total_variability
from .xvector import (
    XVectorWeights,
    frame_representations,
    random_xvector_weights,
    stats_pool,
    xvector_forward,
)

__all__ = [
    "GmmUbm",
    "TotalVariabilityModel",
    "XVectorWeights",
    "baum_welch_stats",
    "extract_ivector",
    "frame_representations",
    "random_xvector_weights",
    "stats_pool",
    "train_total_variability",
    "train_ubm",
    "xvector_forward",
]
