"""GMM background model, i-vector, and x-vector forward-pass tests."""

import tracemalloc

import numpy as np
import pytest
from scipy.linalg import subspace_angles

from emovox.embeddings import (
    GmmUbm,
    TotalVariabilityModel,
    XVectorWeights,
    baum_welch_stats,
    extract_ivector,
    frame_representations,
    random_xvector_weights,
    stats_pool,
    train_total_variability,
    train_ubm,
    xvector_forward,
)
from emovox.analysis import embedding_mfcc
from emovox.embeddings import xvector
from emovox.embeddings.gmm import VARIANCE_FLOOR, _reseed_empty
from emovox.embeddings.xvector import (LAYER_SHAPES, SPLICE_OFFSETS, _FRAME_LAYERS,
                                       _random_layers, _splice, sliding_mean_normalize)
from emovox.errors import ModelFormatError, TrainingError

from conftest import voice_like, wf


def random_ubm(n_comp, dim, rng):
    means = rng.standard_normal((n_comp, dim)) * 2.0
    variances = rng.uniform(0.5, 2.0, (n_comp, dim))
    weights = rng.uniform(0.5, 1.5, n_comp)
    return GmmUbm(weights / weights.sum(), means, variances)


def sample_from_ubm(ubm, n, rng):
    comps = rng.choice(ubm.n_components, size=n, p=ubm.weights)
    return ubm.means[comps] + rng.standard_normal((n, ubm.dim)) * np.sqrt(ubm.variances[comps])


# ---------------------------------------------------------------------------
# GMM training
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def two_gaussian_model():
    rng = np.random.default_rng(42)
    n = 10_000
    signs = np.where(rng.random(n) < 0.5, -3.0, 3.0)
    x = signs[:, None] + rng.standard_normal((n, 2))
    return train_ubm(x, 2, n_iters=200, seed=0)


def test_ubm_recovers_two_gaussian_mixture(two_gaussian_model):
    model = two_gaussian_model
    order = np.argsort(model.means[:, 0])
    means = model.means[order]
    assert np.all(np.abs(means[0] - (-3.0)) < 0.2)
    assert np.all(np.abs(means[1] - 3.0) < 0.2)
    assert np.all(np.abs(model.weights - 0.5) < 0.05)
    assert np.all(np.abs(model.variances - 1.0) < 0.3)


def test_ubm_log_likelihood_monotone(two_gaussian_model):
    ll = np.asarray(two_gaussian_model.log_likelihoods)
    assert ll.size >= 2
    assert np.all(np.diff(ll) >= -1e-8 * np.abs(ll[:-1]))


def test_ubm_stops_before_iteration_budget(two_gaussian_model):
    assert len(two_gaussian_model.log_likelihoods) < 200


def test_ubm_weights_simplex(two_gaussian_model):
    assert abs(float(two_gaussian_model.weights.sum()) - 1.0) < 1e-12
    assert np.all(two_gaussian_model.weights > 0)


def test_ubm_single_component_closed_form(rng):
    x = rng.standard_normal((500, 3)) * 1.7 + 0.4
    model = train_ubm(x, 1, n_iters=5, seed=3)
    assert np.allclose(model.means[0], x.mean(axis=0), atol=1e-9)
    assert np.allclose(model.variances[0], x.var(axis=0), atol=1e-9)
    assert model.weights[0] == pytest.approx(1.0, abs=1e-12)


def test_ubm_variance_floor_on_constant_column(rng):
    x = rng.standard_normal((300, 2))
    x[:, 1] = 7.0
    model = train_ubm(x, 2, n_iters=10, seed=1)
    assert np.all(model.variances[:, 1] == VARIANCE_FLOOR)


def test_ubm_too_few_frames():
    x = np.zeros((99, 2))
    with pytest.raises(TrainingError):
        train_ubm(x, 2, n_iters=5)


def test_ubm_rejects_bad_input(rng):
    x = rng.standard_normal((120, 2))
    x[3, 1] = np.nan
    with pytest.raises(TrainingError):
        train_ubm(x, 2)
    with pytest.raises(TrainingError):
        train_ubm(rng.standard_normal((120, 2)), 0)


def test_reseed_moves_empty_component_to_widest():
    rng = np.random.default_rng(0)
    weights = np.array([0.5, 0.5])
    means = np.array([[0.0], [5.0]])
    variances = np.array([[1.0], [2.0]])
    occupancy = np.array([0.0, 100.0])
    w, m, v, n_dead = _reseed_empty(occupancy, weights, means, variances, rng)
    assert n_dead == 1
    assert abs(m[0, 0] - 5.0) < 10.0
    assert v[0, 0] == 2.0
    assert w.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.all(w > 0)


def test_gmm_parameter_validation():
    with pytest.raises(ValueError):
        GmmUbm([0.5, 1.5], [[0.0], [1.0]], [[1.0], [1.0]])
    with pytest.raises(ValueError):
        GmmUbm([0.5, 0.5], [[0.0], [1.0]], [[1e-7], [1.0]])


# ---------------------------------------------------------------------------
# Baum-Welch statistics
# ---------------------------------------------------------------------------


def test_posteriors_match_scipy_logsumexp_oracle(rng):
    # the max-shifted sum in NumPy against scipy's logsumexp, also with
    # empty components whose weight is floored at 1e-300
    from scipy.special import logsumexp

    from emovox.embeddings.gmm import _log_densities, _posteriors

    x = 3.0 * rng.standard_normal((2000, 3))
    means = rng.standard_normal((4, 3))
    variances = rng.uniform(0.2, 2.0, (4, 3))
    for weights in (np.array([0.1, 0.2, 0.3, 0.4]), np.array([0.0, 0.7, 0.3, 0.0])):
        joint = np.log(np.maximum(weights, 1e-300)) + _log_densities(means, variances, x)
        total = logsumexp(joint, axis=1)
        post, loglik = _posteriors(weights, means, variances, x)
        np.testing.assert_allclose(post, np.exp(joint - total[:, None]), rtol=1e-12, atol=0)
        assert loglik == pytest.approx(float(np.sum(total)), rel=1e-13)


def test_bw_occupancy_sums_to_frame_count(rng):
    ubm = random_ubm(4, 3, rng)
    x = rng.standard_normal((200, 3))
    occupancy, first = baum_welch_stats(ubm, x)
    assert occupancy.shape == (4,)
    assert first.shape == (4, 3)
    assert occupancy.sum() == pytest.approx(200.0, abs=1e-8)


def test_bw_single_component_closed_form(rng):
    ubm = GmmUbm([1.0], [[0.3, -0.2]], [[1.0, 1.0]])
    x = rng.standard_normal((150, 2)) + 1.0
    occupancy, first = baum_welch_stats(ubm, x)
    assert occupancy[0] == pytest.approx(150.0, abs=1e-9)
    expected = 150.0 * (x.mean(axis=0) - ubm.means[0])
    assert np.allclose(first[0], expected, atol=1e-8)


def test_bw_matched_data_centers_near_zero(rng):
    ubm = random_ubm(2, 2, rng)
    x = sample_from_ubm(ubm, 10_000, rng)
    occupancy, first = baum_welch_stats(ubm, x)
    per_dim = np.abs(first) / occupancy[:, None]
    assert np.all(per_dim < 0.1)


def test_bw_input_validation(rng):
    ubm = random_ubm(2, 3, rng)
    with pytest.raises(ValueError):
        baum_welch_stats(ubm, np.zeros((0, 3)))
    with pytest.raises(ValueError):
        baum_welch_stats(ubm, np.zeros((5, 2)))


# ---------------------------------------------------------------------------
# i-vector extraction and total-variability training
# ---------------------------------------------------------------------------


def test_ivector_matches_dense_solve_oracle():
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n_comp = int(rng.integers(1, 5))
        dim = int(rng.integers(1, 4))
        rank = int(rng.integers(1, 5))
        ubm = random_ubm(n_comp, dim, rng)
        t = rng.standard_normal((n_comp * dim, rank))
        tv = TotalVariabilityModel(t, ubm, rank)
        occupancy = rng.uniform(0.5, 20.0, n_comp)
        first = rng.standard_normal((n_comp, dim)) * 3.0

        w = extract_ivector(tv, (occupancy, first))

        sigma_inv = np.diag(1.0 / ubm.variances.reshape(-1))
        n_big = np.diag(np.repeat(occupancy, dim))
        lhs = np.eye(rank) + t.T @ sigma_inv @ n_big @ t
        rhs = t.T @ sigma_inv @ first.reshape(-1)
        expected = np.linalg.solve(lhs, rhs)
        assert np.allclose(w, expected, atol=1e-9)


def test_ivector_zero_stats_gives_zero():
    rng = np.random.default_rng(5)
    ubm = random_ubm(3, 2, rng)
    tv = TotalVariabilityModel(rng.standard_normal((6, 4)), ubm, 4)
    w = extract_ivector(tv, (np.full(3, 10.0), np.zeros((3, 2))))
    assert np.all(w == 0.0)


def test_ivector_scalar_hand_case():
    ubm = GmmUbm([1.0], [[0.0]], [[1.0]])
    tv = TotalVariabilityModel([[0.5]], ubm, 1)
    w = extract_ivector(tv, (np.array([2.0]), np.array([[3.0]])))
    # precision 1 + 0.5*2*0.5 = 1.5, linear term 0.5*3 = 1.5
    assert w[0] == pytest.approx(1.0, abs=1e-12)


def test_ivector_rank_zero_empty():
    rng = np.random.default_rng(6)
    ubm = random_ubm(2, 2, rng)
    tv = train_total_variability([], ubm, 0)
    assert tv.rank == 0
    w = extract_ivector(tv, (np.ones(2), np.ones((2, 2))))
    assert w.shape == (0,)


@pytest.fixture(scope="module")
def tv_recovery():
    rng = np.random.default_rng(77)
    n_comp, dim, rank = 4, 3, 2
    ubm = random_ubm(n_comp, dim, rng)
    q, _ = np.linalg.qr(rng.standard_normal((n_comp * dim, rank)))
    t_true = 2.0 * q
    stats = []
    for _ in range(80):
        w = rng.standard_normal(rank)
        occupancy = rng.uniform(50.0, 150.0, n_comp)
        clean = (np.repeat(occupancy, dim) * (t_true @ w)).reshape(n_comp, dim)
        noise_std = np.sqrt(np.repeat(occupancy, dim) * ubm.variances.reshape(-1))
        noisy = clean + (rng.standard_normal(n_comp * dim) * noise_std).reshape(n_comp, dim)
        stats.append((occupancy, noisy))
    model = train_total_variability(stats, ubm, rank, n_iters=20, seed=11)
    return model, t_true


def test_tv_recovers_generating_subspace(tv_recovery):
    model, t_true = tv_recovery
    angles = subspace_angles(model.t_matrix, t_true)
    assert np.max(angles) < np.radians(10.0)


def test_tv_objective_monotone(tv_recovery):
    model, _ = tv_recovery
    obj = np.asarray(model.objectives)
    assert obj.size == 20
    assert np.all(np.diff(obj) >= -1e-8 * np.abs(obj[:-1]))


def test_tv_requires_enough_utterances():
    rng = np.random.default_rng(8)
    ubm = random_ubm(2, 2, rng)
    stats = [(np.ones(2), np.zeros((2, 2)))] * 19
    with pytest.raises(TrainingError):
        train_total_variability(stats, ubm, 2)


def test_tv_stats_shape_validation():
    rng = np.random.default_rng(9)
    ubm = random_ubm(2, 2, rng)
    tv = TotalVariabilityModel(rng.standard_normal((4, 1)), ubm, 1)
    with pytest.raises(ValueError):
        extract_ivector(tv, (np.ones(3), np.zeros((3, 2))))


# ---------------------------------------------------------------------------
# x-vector forward pass
# ---------------------------------------------------------------------------


@pytest.fixture(scope="module")
def xw():
    return random_xvector_weights(n_classes=4, seed=7)


def test_xvector_output_dim(xw, rng):
    emb = xvector_forward(xw, rng.standard_normal((50, 24)))
    assert emb.shape == (512,)
    assert np.all(np.isfinite(emb))


def test_xvector_context_trimming(xw, rng):
    reps = frame_representations(xw, rng.standard_normal((50, 24)))
    assert reps.shape == (36, 1500)
    reps = frame_representations(xw, rng.standard_normal((15, 24)))
    assert reps.shape == (1, 1500)


def test_xvector_too_few_frames(xw, rng):
    with pytest.raises(ValueError):
        xvector_forward(xw, rng.standard_normal((14, 24)))


def test_xvector_wrong_input_dim(xw, rng):
    with pytest.raises(ValueError):
        xvector_forward(xw, rng.standard_normal((30, 23)))


def zero_xvector_weights(n_classes: int = 8) -> XVectorWeights:
    layers = {
        name: (np.zeros((n_in, n_out)), np.zeros(n_out))
        for name, (n_in, n_out) in LAYER_SHAPES.items()
    }
    layers["softmax"] = (np.zeros((512, n_classes)), np.zeros(n_classes))
    return XVectorWeights(layers)


def test_xvector_zero_weights_zero_embedding(rng):
    emb = xvector_forward(zero_xvector_weights(), rng.standard_normal((40, 24)))
    assert np.all(emb == 0.0)


def test_xvector_constant_input_zero_std_block(xw, rng):
    frames = np.tile(rng.standard_normal(24), (40, 1))
    reps = frame_representations(xw, frames)
    assert np.all(reps == reps[0])
    pooled = stats_pool(reps)
    assert np.all(pooled[1500:] == 0.0)
    w6, b6 = xw.layers["segment6"]
    expected = np.concatenate([reps[0], np.zeros(1500)]) @ w6 + b6
    assert np.array_equal(xvector_forward(xw, frames), expected)


def test_xvector_frame_permutation_exact(xw, rng):
    reps = frame_representations(xw, rng.standard_normal((80, 24)))
    shuffled = reps[rng.permutation(reps.shape[0])]
    assert np.array_equal(stats_pool(reps), stats_pool(shuffled))


def float64_frame_representations(layers, mfcc):
    """The frame layers in double precision, on float64 (unrounded) weights."""
    h = sliding_mean_normalize(mfcc)
    for name in _FRAME_LAYERS:
        w, b = layers[name]
        if name in SPLICE_OFFSETS:
            h = _splice(h, SPLICE_OFFSETS[name])
        h = np.maximum(h @ w + b, 0.0)
    return h


def float64_xvector(layers, mfcc):
    w, b = layers["segment6"]
    return stats_pool(float64_frame_representations(layers, mfcc)) @ w + b


def test_xvector_float32_matches_float64_oracle(rng):
    inputs = [rng.standard_normal((n, 24)) for n in (15, 16, 120, 400)]
    inputs += [embedding_mfcc(wf(voice_like(f0, dur, rough=rough, seed=seed)))
               for f0, dur, rough, seed in ((110, 1.0, 0.0, 1), (220, 2.5, 0.4, 2),
                                            (150, 4.0, 0.1, 3))]
    for seed in (0, 7):
        # the oracle runs on the float64 draws, so the model's rounding of its
        # frame layers to float32 is part of what is measured
        layers = _random_layers(4, seed, 0.05)
        weights = random_xvector_weights(n_classes=4, seed=seed)
        assert not np.array_equal(weights.layers["frame1"][0], layers["frame1"][0])
        for mfcc in inputs:
            emb = xvector_forward(weights, mfcc)
            ref = float64_xvector(layers, mfcc)
            assert emb.dtype == np.float64
            assert np.max(np.abs(emb - ref)) <= 1e-5 * np.max(np.abs(ref))


def test_xvector_float32_layers_built_once_read_only(xw, rng):
    # the frame layers are held once, in the float32 the forward pass runs on
    assert not hasattr(xw, "frame32")
    before = {name: tuple(id(a) for a in pair) for name, pair in xw.layers.items()}
    for name, pair in xw.layers.items():
        dtype = np.float32 if name in _FRAME_LAYERS else np.float64
        for a in pair:
            assert a.dtype == dtype and not a.flags.writeable and a.flags.owndata
    mfcc = rng.standard_normal((60, 24))
    assert np.array_equal(xvector_forward(xw, mfcc), xvector_forward(xw, mfcc))
    assert frame_representations(xw, mfcc).dtype == np.float32
    after = {name: tuple(id(a) for a in pair) for name, pair in xw.layers.items()}
    assert after == before


def test_stats_pool_float32_equals_float64_cast(rng):
    reps = np.maximum(rng.standard_normal((90, 40)), 0.0).astype(np.float32)
    reps[:, 3] = 0.25
    pooled = stats_pool(reps)
    assert pooled.dtype == np.float64
    assert pooled.tobytes() == stats_pool(reps.astype(np.float64)).tobytes()


def test_stats_pool_hand_case():
    pooled = stats_pool(np.array([[1.0, 2.0], [3.0, 4.0]]))
    assert np.array_equal(pooled, [2.0, 3.0, 1.0, 1.0])


def test_stats_pool_matches_numpy(rng):
    reps = rng.standard_normal((30, 6))
    pooled = stats_pool(reps)
    assert np.allclose(pooled[:6], reps.mean(axis=0), atol=1e-12)
    assert np.allclose(pooled[6:], reps.std(axis=0), atol=1e-12)


def whole_matrix_pool(h):
    """``stats_pool`` as one block: every column sorted and summed at once."""
    h = np.atleast_2d(np.asarray(h))
    if h.dtype != np.float32:
        h = h.astype(np.float64, copy=False)
    n = h.shape[0]
    ordered = np.sort(h, axis=0)
    constant = ordered[0] == ordered[-1]
    mean = np.where(constant, ordered[0], ordered.sum(axis=0, dtype=np.float64) / n)
    var = ((ordered - mean) ** 2).sum(axis=0) / n
    return np.concatenate([mean, np.sqrt(np.where(constant, 0.0, var))])


def test_stats_pool_blocks_match_one_block(rng, monkeypatch):
    # column counts one before, on and one after each block edge; b * k + 1
    # would leave a lone last column, which a pairwise sum would change
    for frames in (100, 400):
        for block in (2, 7, 64):
            monkeypatch.setattr(xvector, "POOL_BLOCK_VALUES", block * frames)
            for cols in sorted({block * k + d for k in (1, 2) for d in (-1, 0, 1)} | {1}):
                reps = np.maximum(rng.standard_normal((frames, cols)), 0.0).astype(np.float32)
                reps[:, ::3] = 0.25                       # constant columns
                tiled = np.tile(reps[:1], (frames, 1))    # identical rows
                for h in (reps, reps.astype(np.float64), tiled):
                    assert stats_pool(h).tobytes() == whole_matrix_pool(h).tobytes(), (
                        block, frames, cols, h.dtype)
    # a 300 s row's frame count at the shipped block size
    monkeypatch.undo()
    block = xvector.POOL_BLOCK_VALUES // 29984
    assert block >= 2
    for cols in (2 * block - 1, 2 * block, 2 * block + 1):
        reps = np.maximum(rng.standard_normal((29984, cols)), 0.0).astype(np.float32)
        assert stats_pool(reps).tobytes() == whole_matrix_pool(reps).tobytes(), cols


def test_stats_pool_memory_is_bounded(rng):
    # a 300 s row's frame-5 output: the whole-matrix pooling held a sorted
    # copy and float64 deviations of all of it, 540 MB; a block holds
    # POOL_BLOCK_VALUES values of each, 1.6 MB
    reps = rng.standard_normal((29984, 1500), dtype=np.float32)
    tracemalloc.start()
    try:
        pooled = stats_pool(reps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert pooled.shape == (3000,)
    assert peak <= 4e6, peak


def test_sliding_mean_norm_short_input_is_global(rng):
    x = rng.standard_normal((40, 3))
    out = sliding_mean_normalize(x)
    assert np.allclose(out, x - x.mean(axis=0), atol=1e-12)


def test_sliding_mean_norm_matches_brute_force(rng):
    x = rng.standard_normal((400, 2))
    out = sliding_mean_normalize(x)
    for t in (0, 50, 200, 399):
        start = int(np.clip(t - 150, 0, 400 - 300))
        assert np.allclose(out[t], x[t] - x[start : start + 300].mean(axis=0), atol=1e-9)


def test_xvector_weight_shape_validation():
    good = random_xvector_weights(n_classes=3, seed=1)
    layers = dict(good.layers)
    layers["frame1"] = (np.zeros((119, 512)), np.zeros(512))
    with pytest.raises(ModelFormatError):
        XVectorWeights(layers)
    layers = dict(good.layers)
    del layers["segment7"]
    with pytest.raises(ModelFormatError):
        XVectorWeights(layers)
    layers = dict(good.layers)
    w, _ = layers["frame4"]
    layers["frame4"] = (w, np.zeros(511))
    with pytest.raises(ModelFormatError):
        XVectorWeights(layers)


def xvector_logits(weights, mfcc):
    """Class logits through segment7 and the softmax affine layer."""
    h = np.maximum(xvector_forward(weights, mfcc), 0.0)
    w, b = weights.layers["segment7"]
    h = np.maximum(h @ w + b, 0.0)
    w, b = weights.layers["softmax"]
    return h @ w + b


def test_xvector_logits_shape(rng):
    weights = random_xvector_weights(n_classes=7, seed=2)
    logits = xvector_logits(weights, rng.standard_normal((30, 24)))
    assert logits.shape == (7,)
