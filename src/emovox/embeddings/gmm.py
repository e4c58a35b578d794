"""Diagonal-covariance Gaussian mixture background models.

Training is classic EM with k-means++ seeding, a variance floor so components
cannot collapse onto single frames, and re-seeding of components that lose all
posterior mass.  A fitted model also serves as the reference distribution for
the zeroth/first-order sufficient statistics of an utterance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

import numpy as np

from ..arrays import frozen
from ..errors import TrainingError

VARIANCE_FLOOR = 1e-4
MIN_FRAMES_PER_COMPONENT = 50
EM_REL_TOL = 1e-5

# occupancy below this fraction of the total mass counts as an empty component
_EMPTY_FRACTION = 1e-10


@dataclass(frozen=True)
class GmmUbm:
    """Gaussian mixture with diagonal covariances.

    ``log_likelihoods`` records the total data log-likelihood at the start of
    each EM iteration of the training run that produced the model.
    """

    weights: np.ndarray
    means: np.ndarray
    variances: np.ndarray
    log_likelihoods: tuple = ()

    def __post_init__(self):
        w = frozen(self.weights)
        m = np.atleast_2d(frozen(self.means))
        v = np.atleast_2d(frozen(self.variances))
        if m.shape != v.shape or w.shape != (m.shape[0],):
            raise ValueError("inconsistent mixture parameter shapes")
        if not (np.all(np.isfinite(w)) and np.all(np.isfinite(m)) and np.all(np.isfinite(v))):
            raise ValueError("mixture parameters must be finite")
        if np.any(w < 0.0) or abs(float(w.sum()) - 1.0) > 1e-9:
            raise ValueError("component weights must sum to 1")
        if np.any(v < VARIANCE_FLOOR * (1.0 - 1e-9)):
            raise ValueError("variances below the %g floor" % VARIANCE_FLOOR)
        for name, arr in (("weights", w), ("means", m), ("variances", v)):
            object.__setattr__(self, name, arr)

    @property
    def n_components(self) -> int:
        return self.means.shape[0]

    @property
    def dim(self) -> int:
        return self.means.shape[1]


def _log_densities(means, variances, x):
    """Per-frame, per-component diagonal Gaussian log-densities, shape (n, c)."""
    inv = 1.0 / variances
    const = -0.5 * (means.shape[1] * np.log(2.0 * np.pi) + np.sum(np.log(variances), axis=1))
    quad = (x ** 2) @ inv.T - 2.0 * (x @ (means * inv).T) + np.sum(means ** 2 * inv, axis=1)
    return const - 0.5 * quad


def _posteriors(weights, means, variances, x):
    """Responsibilities (n, c) and the total log-likelihood of the frames."""
    joint = np.log(np.maximum(weights, 1e-300)) + _log_densities(means, variances, x)
    peak = joint.max(axis=1)
    peak[~np.isfinite(peak)] = 0.0   # an all -inf row sums to log(0), not nan
    total = np.log(np.exp(joint - peak[:, None]).sum(axis=1)) + peak
    return np.exp(joint - total[:, None]), float(np.sum(total))


def _kmeans_pp(x, k, rng):
    """k-means++ seeding: centers drawn with probability ∝ squared distance."""
    n = x.shape[0]
    centers = np.empty((k, x.shape[1]))
    centers[0] = x[rng.integers(n)]
    d2 = np.sum((x - centers[0]) ** 2, axis=1)
    for i in range(1, k):
        total = float(d2.sum())
        if total <= 0.0:
            centers[i] = x[rng.integers(n)]
        else:
            centers[i] = x[rng.choice(n, p=d2 / total)]
        d2 = np.minimum(d2, np.sum((x - centers[i]) ** 2, axis=1))
    return centers


def _reseed_empty(occupancy, weights, means, variances, rng):
    """Re-seed empty components by splitting the widest surviving component."""
    occ = np.asarray(occupancy, dtype=np.float64)
    w = weights.copy()
    m = means.copy()
    v = variances.copy()
    dead = np.flatnonzero(occ <= _EMPTY_FRACTION * occ.sum())
    for c in dead:
        spread = v.sum(axis=1).copy()
        spread[dead] = -np.inf
        donor = int(np.argmax(spread))
        m[c] = m[donor] + rng.standard_normal(m.shape[1]) * np.sqrt(v[donor])
        v[c] = v[donor]
        w[donor] = 0.5 * w[donor]
        w[c] = w[donor]
    w = w / w.sum()
    return w, m, v, dead.size


def train_ubm(frames, n_components: int, n_iters: int = 50, seed: int = 0) -> GmmUbm:
    """Fit a diagonal-covariance GMM to pooled frames by EM.

    Stops early once the relative log-likelihood improvement drops below
    ``EM_REL_TOL``.  Requires at least ``50 * n_components`` frames.
    """
    x = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    if x.ndim != 2 or x.size == 0:
        raise TrainingError("training frames must form a non-empty 2-D matrix")
    if not np.all(np.isfinite(x)):
        raise TrainingError("training frames contain non-finite values")
    n, _d = x.shape
    if n_components < 1:
        raise TrainingError("n_components must be >= 1")
    needed = MIN_FRAMES_PER_COMPONENT * n_components
    if n < needed:
        raise TrainingError(
            "need at least %d frames for %d components, got %d" % (needed, n_components, n)
        )

    rng = np.random.default_rng(seed)
    means = _kmeans_pp(x, n_components, rng)
    variances = np.tile(np.maximum(x.var(axis=0), VARIANCE_FLOOR), (n_components, 1))
    weights = np.full(n_components, 1.0 / n_components)

    history = []
    just_reseeded = False
    for _ in range(max(int(n_iters), 0)):
        resp, ll = _posteriors(weights, means, variances, x)
        history.append(ll)
        if len(history) > 1 and not just_reseeded:
            prev = history[-2]
            if ll - prev < EM_REL_TOL * abs(prev):
                break
        just_reseeded = False

        occ = resp.sum(axis=0)
        if np.any(occ <= _EMPTY_FRACTION * n):
            weights, means, variances, _ = _reseed_empty(occ, weights, means, variances, rng)
            just_reseeded = True
            continue
        means = (resp.T @ x) / occ[:, None]
        variances = np.maximum((resp.T @ (x ** 2)) / occ[:, None] - means ** 2, VARIANCE_FLOOR)
        weights = occ / occ.sum()

    return GmmUbm(weights, means, variances, tuple(history))


def baum_welch_stats(ubm: GmmUbm, utterance) -> Tuple[np.ndarray, np.ndarray]:
    """Occupancies N_c = Σ_t γ_t(c) and centered first-order stats F_c = Σ_t γ_t(c)(x_t − m_c)."""
    x = np.atleast_2d(np.asarray(utterance, dtype=np.float64))
    if x.size == 0:
        raise ValueError("utterance has no frames")
    if x.shape[1] != ubm.dim:
        raise ValueError("utterance dim %d does not match model dim %d" % (x.shape[1], ubm.dim))
    resp, _ = _posteriors(ubm.weights, ubm.means, ubm.variances, x)
    occupancy = resp.sum(axis=0)
    first = resp.T @ x - occupancy[:, None] * ubm.means
    return occupancy, first
