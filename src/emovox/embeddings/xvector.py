"""Stats-pooling TDNN forward pass for utterance embeddings.

Five frame-level layers with spliced/dilated context windows map 24-dim MFCC
frames to 1500-dim representations; mean and population standard deviation are
pooled over time and a final affine layer (before its nonlinearity) yields the
512-dim embedding.  Only the forward pass lives here — weights are loaded from
a model file or randomly initialized.

The frame layers run in single precision, as Kaldi computes this network, and
their weights are held only in float32: a model file stores float64, and
building or loading a model rounds the frame layers once.  The mean normalization, the pooled
statistics, ``segment6``, ``segment7``, ``softmax`` and the embedding stay in
double precision.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from ..arrays import column_blocks, frozen
from ..errors import ModelFormatError

N_INPUT_CEPS = 24
EMBEDDING_DIM = 512
MIN_FRAMES = 15
MEAN_NORM_FRAMES = 300  # 3 s at the 10 ms frame step
# Values per column block of stats_pool, at least two columns a block: a
# block's sorted float32 copy and float64 deviations take 1.5 MiB (up to
# 65,536 frames, 11 minutes) and stay in cache.
POOL_BLOCK_VALUES = 2 ** 17

LAYER_SHAPES = {
    "frame1": (N_INPUT_CEPS * 5, 512),
    "frame2": (512 * 3, 512),
    "frame3": (512 * 3, 512),
    "frame4": (512, 512),
    "frame5": (512, 1500),
    "segment6": (2 * 1500, EMBEDDING_DIM),
    "segment7": (EMBEDDING_DIM, 512),
}
SPLICE_OFFSETS = {
    "frame1": (-2, -1, 0, 1, 2),
    "frame2": (-2, 0, 2),
    "frame3": (-3, 0, 3),
}
_FRAME_LAYERS = ("frame1", "frame2", "frame3", "frame4", "frame5")


@dataclass(frozen=True)
class XVectorWeights:
    """Per-layer (weight, bias) pairs, shape-checked on construction.

    Weight matrices are stored input-major: layer output = h @ W + b.  The
    ``softmax`` layer may have any output width (the class count).
    The five frame layers are held as read-only float32 arrays, the ones the
    forward pass runs on; the input is rounded to float32 once, and a value
    beyond the float32 range is a ``ModelFormatError``.  The other layers are
    read-only float64: arrays that own their data, as
    ``modelio.load_xvector`` gives, are kept as they are.  Any other input is
    copied, so later writes to it leave the weights unchanged.
    """

    layers: Dict[str, Tuple[np.ndarray, np.ndarray]]

    def __post_init__(self):
        checked = {}
        for name in list(LAYER_SHAPES) + ["softmax"]:
            if name not in self.layers:
                raise ModelFormatError("missing x-vector layer %r" % name)
            dtype = np.float32 if name in _FRAME_LAYERS else np.float64
            with np.errstate(over="ignore"):
                w, b = (frozen(a, dtype) for a in self.layers[name])
            if name == "softmax":
                expected = (512, b.shape[0] if b.ndim == 1 else -1)
                ok = w.ndim == 2 and w.shape[0] == 512 and w.shape[1] >= 1
            else:
                expected = LAYER_SHAPES[name]
                ok = w.shape == expected
            if not ok:
                raise ModelFormatError(
                    "layer %r weight shape %s, expected %s" % (name, w.shape, expected)
                )
            if b.shape != (w.shape[1],):
                raise ModelFormatError(
                    "layer %r bias shape %s, expected (%d,)" % (name, b.shape, w.shape[1])
                )
            if not (np.all(np.isfinite(w)) and np.all(np.isfinite(b))):
                if all(np.all(np.isfinite(a)) for a in self.layers[name]):
                    raise ModelFormatError(
                        "layer %r has parameters beyond the float32 range" % name)
                raise ModelFormatError("layer %r has non-finite parameters" % name)
            checked[name] = (w, b)
        extra = set(self.layers) - set(checked)
        if extra:
            raise ModelFormatError("unknown x-vector layers: %s" % sorted(extra))
        object.__setattr__(self, "layers", checked)

    @property
    def n_classes(self) -> int:
        return self.layers["softmax"][0].shape[1]


def random_xvector_weights(n_classes: int = 8, seed: int = 0, scale: float = 0.05) -> XVectorWeights:
    """Random small-Gaussian weights, e.g. for tests or a toy training start."""
    return XVectorWeights(_random_layers(n_classes, seed, scale))


def _random_layers(n_classes, seed, scale):
    """The float64 draws behind ``random_xvector_weights``, before rounding."""
    rng = np.random.default_rng(seed)
    layers = {}
    for name, (n_in, n_out) in LAYER_SHAPES.items():
        layers[name] = (
            rng.standard_normal((n_in, n_out)) * scale,
            rng.standard_normal(n_out) * scale,
        )
    layers["softmax"] = (
        rng.standard_normal((512, n_classes)) * scale,
        rng.standard_normal(n_classes) * scale,
    )
    return layers


def sliding_mean_normalize(frames, max_window: int = MEAN_NORM_FRAMES) -> np.ndarray:
    """Subtract a per-frame mean over a centered window of min(max_window, n) frames.

    The window keeps its full length near the edges by sliding inward, so
    utterances no longer than the window get exact global mean subtraction.
    """
    x = np.atleast_2d(np.asarray(frames, dtype=np.float64))
    n = x.shape[0]
    win = min(int(max_window), n)
    half = win // 2
    start = np.clip(np.arange(n) - half, 0, n - win)
    csum = np.vstack([np.zeros((1, x.shape[1])), np.cumsum(x, axis=0)])
    means = (csum[start + win] - csum[start]) / win
    return x - means


def _splice(h, offsets):
    """Stack context rows h[t+o] for each offset; only full-context rows survive."""
    lo = -min(offsets)
    hi = max(offsets)
    n = h.shape[0] - lo - hi
    return np.concatenate([h[lo + off : lo + off + n] for off in offsets], axis=1)


def _run_frame_layers(weights, h):
    for name in _FRAME_LAYERS:
        w, b = weights.layers[name]
        if name in SPLICE_OFFSETS:
            h = _splice(h, SPLICE_OFFSETS[name])
        h = h @ w
        h += b
        np.maximum(h, 0.0, out=h)
    return h


def frame_representations(weights: XVectorWeights, mfcc) -> np.ndarray:
    """Run the frame-level layers in float32; 14 fewer rows than the input."""
    x = np.atleast_2d(np.asarray(mfcc, dtype=np.float64))
    if x.shape[1] != N_INPUT_CEPS:
        raise ValueError("expected %d-dim input frames, got %d" % (N_INPUT_CEPS, x.shape[1]))
    if not np.all(np.isfinite(x)):
        raise ValueError("input frames contain non-finite values")
    if x.shape[0] < MIN_FRAMES:
        raise ValueError(
            "need at least %d frames for the full context window, got %d"
            % (MIN_FRAMES, x.shape[0])
        )
    h = sliding_mean_normalize(x).astype(np.float32)
    if np.all(h == h[0]):
        # Identical frames must give identical representations, but BLAS matmul
        # rounding depends on row position; evaluate one row and tile instead.
        row = _run_frame_layers(weights, h[:MIN_FRAMES])
        return np.tile(row, (x.shape[0] - (MIN_FRAMES - 1), 1))
    return _run_frame_layers(weights, h)


def stats_pool(representations) -> np.ndarray:
    """Concatenated per-dimension mean and population std over frames, float64.

    Both column sums run in float64 over the values sorted once per column,
    which makes the pooled vector exactly invariant to the order of the frame
    representations; constant columns give an exact zero std.  Columns go
    through in blocks of about ``POOL_BLOCK_VALUES`` values, so the sorted
    copy and the squared deviations stay bounded.  A block of two or more
    columns sums each column down its rows, as the whole matrix does; a lone
    column would be summed pairwise, so a last block of one column joins the
    one before (``arrays.column_blocks``).
    """
    h = np.atleast_2d(np.asarray(representations))
    if h.dtype != np.float32:
        h = h.astype(np.float64, copy=False)
    size = max(2, POOL_BLOCK_VALUES // max(h.shape[0], 1))
    pooled = [_pool_columns(h[:, lo:hi]) for lo, hi in column_blocks(h.shape[1], size)]
    return np.concatenate([mean for mean, _ in pooled] + [std for _, std in pooled])


def _pool_columns(h):
    """``stats_pool``'s mean and std of each column of one block."""
    n = h.shape[0]
    ordered = np.sort(h, axis=0)
    constant = ordered[0] == ordered[-1]
    mean = np.where(constant, ordered[0], ordered.sum(axis=0, dtype=np.float64) / n)
    dev = ordered - mean
    np.square(dev, out=dev)
    return mean, np.sqrt(np.where(constant, 0.0, dev.sum(axis=0) / n))


def xvector_forward(weights: XVectorWeights, mfcc) -> np.ndarray:
    """512-dim embedding: the segment6 affine output before its nonlinearity."""
    pooled = stats_pool(frame_representations(weights, mfcc))
    w, b = weights.layers["segment6"]
    return pooled @ w + b
