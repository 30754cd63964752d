"""Pairwise affinity head: compression net over feature pairs, softmax matrices.

Feature rows from a previous frame (cp objects) and a current frame (cc
objects) are paired, and each eligible pair runs through a shared
pointwise compression stack that ends in one scalar, giving the cp x cc
raw score matrix M.  By default every pair is eligible; the tracker
passes a motion gate that keeps only the pairs within reach, and every
other pair scores -inf, so both softmaxes give it exactly zero.  The
stack's first layer acts on the concatenated pair [a; b], but it is
linear, so W1 [a; b] + b1 = W1[:, :D] a + (W1[:, D:] b + b1): each
frame's features are projected once, the 2D-wide concatenated cell is
never built, and the eligible pairs run through the stack as one batch
in a canonical previous-row order (see compression_forward).  M is
augmented with a learned dummy score (an extra column for objects
that leave, an extra row for objects that enter) and normalized: row
softmax of the cp x (cc+1) matrix M1 gives the forward association A1,
column softmax of the (cp+1) x cc matrix M2 gives the backward
association A2.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import Layers, layer_widths, mlp_forward, relu, validate_layers
from .pointnet import FeatureSet

DEFAULT_COMPRESSION_WIDTHS = (1024, 512, 256, 128, 64, 1)
COMPRESSION_LAYER_COUNT = 5


@dataclass(frozen=True)
class CompressionNet:
    """Five pointwise layers mapping a feature pair to one raw affinity score."""

    layers: Layers

    def __post_init__(self):
        layers = validate_layers(self.layers)
        if len(layers) != COMPRESSION_LAYER_COUNT:
            raise ValueError(
                f"compression net needs {COMPRESSION_LAYER_COUNT} layers, "
                f"got {len(layers)}"
            )
        if layers[-1][0].shape[0] != 1:
            raise ValueError("compression net must end in a single score")
        object.__setattr__(self, "layers", layers)

    @property
    def widths(self) -> tuple[int, ...]:
        return layer_widths(self.layers)

    @property
    def in_dim(self) -> int:
        return self.widths[0]

    def split_first_layer(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(w_prev, w_cur, b1) with first-layer output a @ w_prev + b @ w_cur + b1.

        a and b are the previous and current feature of one pair.
        """
        W, b = self.layers[0]
        d = W.shape[1] // 2
        return W[:, :d].T, W[:, d:].T, b


@dataclass(frozen=True)
class AffinityMatrices:
    """Raw and normalized association matrices for one frame pair.

    m is cp x cc; m1 and a1 are cp x (cc+1) with the dummy column last,
    every a1 row sums to one; m2 and a2 are (cp+1) x cc with the dummy
    row last, every a2 column sums to one.  a1_trim drops the dummy
    column, a2_trim drops the dummy row.
    """

    m: np.ndarray
    m1: np.ndarray
    m2: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    a1_trim: np.ndarray
    a2_trim: np.ndarray


def compression_forward(
    prev: np.ndarray,
    cur: np.ndarray,
    net: CompressionNet,
    eligible: np.ndarray | None = None,
) -> np.ndarray:
    """Score the (previous row, current row) feature pairs; cp x cc.

    eligible is a cp x cc boolean mask (default: every pair).  Only
    eligible cells run through the net, all in one batch; the others
    score -inf.  As the featurizer orders points, the batch orders the
    previous rows canonically: by the bytes of the feature row, then of
    its mask row, one entry per distinct key.  Any permutation of the
    previous rows and their mask rows thus gives the matrix products the
    same inputs and permutes M's rows bitwise.  The mask is in the key
    because equal features can carry different masks (every empty crop
    has the zero feature); keyed on features alone, those rows' input
    order would move their cells within the batch.
    """
    prev = np.ascontiguousarray(prev, dtype=np.float64)
    cur = np.asarray(cur, dtype=np.float64)
    if prev.ndim != 2 or cur.ndim != 2:
        raise ValueError(f"features must be 2-D, got {prev.shape} and {cur.shape}")
    d = prev.shape[1]
    if cur.shape[1] != d:
        raise ValueError(f"feature widths differ: {d} vs {cur.shape[1]}")
    if net.in_dim != 2 * d:
        raise ValueError(f"net input width {net.in_dim} != pair width {2 * d}")
    cp, cc = len(prev), len(cur)
    if eligible is None:
        eligible = np.ones((cp, cc), dtype=bool)
    eligible = np.ascontiguousarray(eligible, dtype=bool)
    if eligible.shape != (cp, cc):
        raise ValueError(f"eligible mask is {eligible.shape}, scores are {(cp, cc)}")
    if not eligible.any():
        return np.full((cp, cc), -np.inf)
    key = np.concatenate([prev.view(np.uint8), eligible.view(np.uint8)], axis=1)
    key = key.view(np.dtype((np.void, key.shape[1])))[:, 0]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    rows, cols = np.nonzero(eligible[first])
    w_prev, w_cur, b1 = net.split_first_layer()
    hidden = relu((prev[first] @ w_prev)[rows] + (cur @ w_cur + b1)[cols])
    m = np.full((len(first), cc), -np.inf)
    m[rows, cols] = mlp_forward(hidden, net.layers[1:])[:, 0]
    return m[inverse]


def _row_softmax(block: np.ndarray) -> np.ndarray:
    shifted = block - block.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=1, keepdims=True)


def normalize_pair(m1: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row softmax of m1 and column softmax of m2.

    m1 is cp x (cc+1) with the dummy column last; m2 is (cp+1) x cc
    with the dummy row last.
    """
    if m1.ndim != 2 or m1.shape[1] < 1 or m2.shape != (
        m1.shape[0] + 1, m1.shape[1] - 1
    ):
        raise ValueError(f"augmented shapes mismatched: {m1.shape}, {m2.shape}")
    return _row_softmax(m1), _row_softmax(m2.T).T


def augment_and_softmax(m: np.ndarray, dummy_score: float) -> AffinityMatrices:
    """Append the dummy column/row to the cp x cc scores and normalize.

    A -inf score marks a pair that may not link: it gets exactly zero
    in A1 and A2.  The finite dummy keeps every row and column of the
    softmax well defined.  NaN, +inf and a non-finite dummy are errors.
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise ValueError(f"m must be 2-D, got {m.shape}")
    if np.isnan(m).any() or np.isposinf(m).any() or not np.isfinite(dummy_score):
        raise ValueError("NaN or +inf affinity score, or non-finite dummy")
    cp, cc = m.shape

    m1 = np.empty((cp, cc + 1))
    m1[:, :cc] = m
    m1[:, cc] = dummy_score
    m2 = np.empty((cp + 1, cc))
    m2[:cp, :] = m
    m2[cp, :] = dummy_score

    a1, a2 = normalize_pair(m1, m2)

    return AffinityMatrices(
        m=m,
        m1=m1,
        m2=m2,
        a1=a1,
        a2=a2,
        a1_trim=a1[:, :cc],
        a2_trim=a2[:cp, :],
    )


def affinity_from_features(
    prev: FeatureSet,
    cur: FeatureSet,
    net: CompressionNet,
    dummy_score: float,
    eligible: np.ndarray | None = None,
) -> AffinityMatrices:
    """Full affinity head for one frame pair, over the eligible pairs."""
    return augment_and_softmax(
        compression_forward(prev.features, cur.features, net, eligible), dummy_score
    )
