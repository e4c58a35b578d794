"""Total-variability subspace over GMM sufficient statistics (i-vectors).

The generative model for an utterance supervector is M = m + Tw with
w ~ N(0, I).  Given Baum-Welch statistics (N, F) computed against the
background model, the i-vector is the posterior mean

    w = (I + T' Σ⁻¹ N T)⁻¹ T' Σ⁻¹ F

and T itself is learned by EM over a collection of utterance statistics.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..arrays import frozen
from ..errors import TrainingError
from .gmm import GmmUbm

POSTERIOR_RIDGE = 1e-6
MIN_UTTERANCES_PER_RANK = 10


@dataclass(frozen=True)
class TotalVariabilityModel:
    """Low-rank subspace (n_components * dim, rank) tied to its background model.

    ``objectives`` holds the per-iteration evidence objective of the training
    run (the T-dependent part of the marginal log-likelihood).
    """

    t_matrix: np.ndarray
    ubm: GmmUbm
    rank: int
    objectives: tuple = ()

    def __post_init__(self):
        t = frozen(self.t_matrix)
        expected = (self.ubm.n_components * self.ubm.dim, self.rank)
        if t.shape != expected:
            raise ValueError("subspace shape %s, expected %s" % (t.shape, expected))
        if t.size and not np.all(np.isfinite(t)):
            raise ValueError("subspace matrix must be finite")
        object.__setattr__(self, "t_matrix", t)


def _check_stats(ubm: GmmUbm, stats):
    occupancy = np.asarray(stats[0], dtype=np.float64)
    first = np.atleast_2d(np.asarray(stats[1], dtype=np.float64))
    if occupancy.shape != (ubm.n_components,) or first.shape != (ubm.n_components, ubm.dim):
        raise ValueError("statistics do not match the background model shape")
    return occupancy, first


def _posterior_moments(t3, inv_var, occupancy, first):
    """Posterior precision L = I + T'Σ⁻¹NT and linear term b = T'Σ⁻¹F."""
    rank = t3.shape[2]
    tsig = t3 * inv_var[:, :, None]
    prec = np.eye(rank) + np.einsum("c,cdr,cds->rs", occupancy, tsig, t3)
    lin = np.einsum("cdr,cd->r", tsig, first)
    return prec, lin


def extract_ivector(tv: TotalVariabilityModel, stats) -> np.ndarray:
    """Posterior-mean i-vector of one utterance's (N, F) statistics."""
    occupancy, first = _check_stats(tv.ubm, stats)
    if tv.rank == 0:
        return np.zeros(0)
    t3 = tv.t_matrix.reshape(tv.ubm.n_components, tv.ubm.dim, tv.rank)
    prec, lin = _posterior_moments(t3, 1.0 / tv.ubm.variances, occupancy, first)
    return np.linalg.solve(prec, lin)


def train_total_variability(
    stats, ubm: GmmUbm, rank: int, n_iters: int = 10, seed: int = 0
) -> TotalVariabilityModel:
    """Learn the total-variability matrix by EM over utterance statistics.

    Each iteration records the evidence objective before updating T, so the
    stored sequence is non-decreasing.  Requires at least ``10 * rank``
    utterances; a singular M-step system falls back to a small ridge.
    """
    if rank < 0:
        raise TrainingError("rank must be >= 0")
    n_comp, dim = ubm.n_components, ubm.dim
    if rank == 0:
        return TotalVariabilityModel(np.zeros((n_comp * dim, 0)), ubm, 0, ())
    if len(stats) < MIN_UTTERANCES_PER_RANK * rank:
        raise TrainingError(
            "need at least %d utterances for rank %d, got %d"
            % (MIN_UTTERANCES_PER_RANK * rank, rank, len(stats))
        )
    checked = [_check_stats(ubm, s) for s in stats]
    occ_all = np.stack([c[0] for c in checked])
    first_all = np.stack([c[1] for c in checked])

    rng = np.random.default_rng(seed)
    t = rng.standard_normal((n_comp * dim, rank)) * 0.1
    inv_var = 1.0 / ubm.variances
    eye = np.eye(rank)

    history = []
    for _ in range(max(int(n_iters), 0)):
        t3 = t.reshape(n_comp, dim, rank)
        acc_ww = np.zeros((n_comp, rank, rank))
        acc_fw = np.zeros((n_comp, dim, rank))
        objective = 0.0
        for occupancy, first in zip(occ_all, first_all):
            prec, lin = _posterior_moments(t3, inv_var, occupancy, first)
            w = np.linalg.solve(prec, lin)
            _sign, logdet = np.linalg.slogdet(prec)
            objective += 0.5 * (float(lin @ w) - logdet)
            second = np.linalg.inv(prec) + np.outer(w, w)
            acc_ww += occupancy[:, None, None] * second[None]
            acc_fw += first[:, :, None] * w[None, None, :]
        history.append(objective)
        for c in range(n_comp):
            try:
                sol = np.linalg.solve(acc_ww[c], acc_fw[c].T).T
                if not np.all(np.isfinite(sol)):
                    raise np.linalg.LinAlgError("non-finite update")
            except np.linalg.LinAlgError:
                sol = np.linalg.solve(acc_ww[c] + POSTERIOR_RIDGE * eye, acc_fw[c].T).T
            t3[c] = sol

    return TotalVariabilityModel(t, ubm, rank, tuple(history))
