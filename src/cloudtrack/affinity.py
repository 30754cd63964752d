"""Pairwise affinity head: compression net over feature pairs, then (A1, A2).

Feature rows from a previous frame (cp objects) and a current frame (cc
objects) are paired, and each eligible pair runs through a shared
pointwise compression stack that ends in one scalar, giving the cp x cc
raw score matrix M.  By default every pair is eligible; the tracker
passes a motion gate that keeps only the pairs within reach, and every
other pair scores -inf, so both softmaxes give it exactly zero.  The
stack's first layer acts on the concatenated pair [a; b], but it is
linear, so W1 [a; b] + b1 = W1[:, :D] a + (W1[:, D:] b + b1), and the
head splits there.  project takes feature rows, of any number of
frames, through both halves of the first layer in one canonical batch;
score_projected adds each eligible pair's previous and current halves
and runs ReLU and layers 2-5 on those cells as one batch, again in a
canonical order.  compression_forward is the two in turn over one frame
pair.  The tracker projects a window of frames in one call and keeps
each live row's previous half, so no row is projected twice, and the
2D-wide concatenated cell is never built.  A projection's last bits
depend on the other rows of its batch.  The stack runs in float32, the
type of its weights and of the feature rows; M is float64, and so is
everything after it.  M is augmented with a learned dummy score (an
extra column for objects that leave, an extra row for objects that
enter) and normalized: row softmax of the cp x (cc+1) matrix M1 gives
the forward association A1, column softmax of the (cp+1) x cc matrix M2
gives the backward association A2.  The pair (A1, A2) is the head's only
output: the tracker fuses it into assignment scores and the loss reads
it as is.
Both softmaxes add their sums in index order (row_sums, column_sums),
where numpy's sum picks pairwise or in-order adds by the array's shape.
The trainer normalizes a whole batch of frame pairs at once, as one
stack padded at the top and the left to its largest pair, so the
padding's zeros come first in each sum and each pair's (A1, A2) is its
own call's (see normalize_pair).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .nets import (
    Layers,
    distinct_rows,
    layer_widths,
    mlp_forward,
    relu,
    validate_layers,
)

DEFAULT_COMPRESSION_WIDTHS = (1024, 512, 256, 128, 64, 1)
COMPRESSION_LAYER_COUNT = 5


@dataclass(frozen=True, eq=False)
class CompressionNet:
    """Five pointwise layers mapping a feature pair to one raw affinity score.

    layers is cast once to float32, the type the head runs in, and
    validated after the cast: a weight that overflows float32 is refused
    here, not when a pair is scored.
    """

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


def first_layer_halves(w1: np.ndarray) -> tuple[slice, slice]:
    """W1's columns acting on previous-frame and on current-frame features.

    With (p, c) these slices, one pair (a, b) gives the first-layer output
    a @ W1[:, p].T + b @ W1[:, c].T + b1.
    """
    d = w1.shape[1] // 2
    return slice(None, d), slice(d, None)


def project(features: np.ndarray, net: CompressionNet) -> tuple[np.ndarray, np.ndarray]:
    """Each feature row through both halves of the first layer; (prev, cur).

    prev[i] is row i's first-layer part as a previous-frame object,
    row @ W1[:, p].T, and cur[i] its part as a current-frame object,
    row @ W1[:, c].T + b1 (see first_layer_halves); both float32, one row
    per input row.  The rows run as one batch in a canonical order, the
    distinct rows by their bytes, so any permutation of the input rows
    permutes both outputs bitwise and equal rows project alike.  A row's
    last bits still depend on the other rows of its batch: BLAS rounds a
    row differently in products of other sizes.  Finite weights can still
    overflow float32: a non-finite projection raises ValueError.
    """
    features = np.asarray(features, dtype=np.float32)
    if features.ndim != 2:
        raise ValueError(f"features must be 2-D, got {features.shape}")
    if net.in_dim != 2 * features.shape[1]:
        raise ValueError(
            f"net input width {net.in_dim} != pair width {2 * features.shape[1]}"
        )
    first, inverse = distinct_rows(features)
    rows = features[first]
    w1, b1 = net.layers[0]
    p, c = first_layer_halves(w1)
    with np.errstate(over="ignore", invalid="ignore"):
        prev, cur = rows @ w1[:, p].T, rows @ w1[:, c].T + b1
    if not (np.isfinite(prev).all() and np.isfinite(cur).all()):
        raise ValueError("non-finite first-layer projection")
    return prev[inverse], cur[inverse]


def score_projected(
    prev: np.ndarray,
    cur: np.ndarray,
    net: CompressionNet,
    eligible: np.ndarray | None = None,
) -> np.ndarray:
    """Raw scores M, cp x cc, from projected rows: the net after its first layer.

    prev holds the previous objects' prev rows from project and cur the
    current objects' cur rows, float32 as project returns them.  eligible
    is a cp x cc boolean mask (default: every pair).  Only eligible cells
    run through ReLU and layers 2-5, all in one batch; the others score
    -inf.  As the featurizer orders points, the batch orders both sides
    canonically: the previous rows by the bytes of the projected row,
    then of its mask row, and the current rows by the bytes of the
    projected row, then of its mask column in that previous order, one
    entry per distinct key.  Any permutation of the previous rows and of
    the current rows, with the mask's rows and columns, thus gives the
    matrix products the same inputs and permutes M's rows and columns
    bitwise, whatever kernels BLAS picks for a product of a few rows.
    The mask is in the key because equal rows can carry different masks
    (every empty crop has the zero feature); keyed on the rows alone,
    those rows' input order would move their cells within the batch.  A
    cell's score does depend on the batch it runs in, as BLAS rounds a
    row differently in products of other sizes: measured at the default
    widths over batches of 1 to 9 cells, a cell's own one-cell call
    differed from its batched score in the last bits for 1260 of 1350
    cells.  The two agree to float32 rounding.  Finite weights can still
    overflow float32: an eligible cell that does not score a finite
    value raises ValueError, as -inf would silently bar its pair.
    """
    prev = np.asarray(prev, dtype=np.float32)
    cur = np.asarray(cur, dtype=np.float32)
    hidden_dim = net.widths[1]
    if prev.ndim != 2 or cur.ndim != 2:
        raise ValueError(f"projections must be 2-D, got {prev.shape} and {cur.shape}")
    if prev.shape[1] != hidden_dim or cur.shape[1] != hidden_dim:
        raise ValueError(
            f"projection widths {prev.shape[1]} and {cur.shape[1]} "
            f"!= first layer width {hidden_dim}"
        )
    cp, cc = len(prev), len(cur)
    if eligible is None:
        eligible = np.ones((cp, cc), dtype=bool)
    eligible = np.asarray(eligible, dtype=bool)
    if eligible.shape != (cp, cc):
        raise ValueError(f"eligible mask is {eligible.shape}, scores are {(cp, cc)}")
    first_p, inverse_p = distinct_rows(prev, eligible)
    first_c, inverse_c = distinct_rows(cur, eligible[first_p].T)
    rows, cols = np.nonzero(eligible[np.ix_(first_p, first_c)])
    with np.errstate(over="ignore", invalid="ignore"):
        hidden = relu(prev[first_p[rows]] + cur[first_c[cols]])
        scores = mlp_forward(hidden, net.layers[1:])[:, 0]
    if not np.isfinite(scores).all():
        raise ValueError("non-finite affinity score on an eligible pair")
    m = np.full((len(first_p), len(first_c)), -np.inf)
    m[rows, cols] = scores
    return m[np.ix_(inverse_p, inverse_c)]


def compression_forward(
    prev: np.ndarray,
    cur: np.ndarray,
    net: CompressionNet,
    eligible: np.ndarray | None = None,
) -> np.ndarray:
    """Score the (previous row, current row) feature pairs; cp x cc.

    prev and cur are float32 rows, as featurize_frame returns them (other
    types are rounded to float32), and the net runs in float32; M is
    float64.
    Both frames' rows are projected as one batch (project), then the
    eligible cells are scored (score_projected): M's rows and columns
    permute bitwise with the previous and current rows and the mask.
    """
    prev = np.asarray(prev, dtype=np.float32)
    cur = np.asarray(cur, dtype=np.float32)
    if prev.ndim != 2 or cur.ndim != 2:
        raise ValueError(f"features must be 2-D, got {prev.shape} and {cur.shape}")
    if cur.shape[1] != prev.shape[1]:
        raise ValueError(f"feature widths differ: {prev.shape[1]} vs {cur.shape[1]}")
    as_prev, as_cur = project(np.concatenate([prev, cur]), net)
    cp = len(prev)
    return score_projected(as_prev[:cp], as_cur[cp:], net, eligible)


def row_sums(x: np.ndarray) -> np.ndarray:
    """The row sums of x, or of each array in a stack, added in column order."""
    return np.add.accumulate(x, axis=-1)[..., -1:]


def column_sums(x: np.ndarray) -> np.ndarray:
    """The column sums of x, or of each array in a stack, added in row order."""
    return np.add.accumulate(x, axis=-2)[..., -1:, :]


def normalize_pair(m1: np.ndarray, m2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(A1, A2): row softmax of m1 and column softmax of m2.

    m1 is cp x (cc+1) with the dummy column last; m2 is (cp+1) x cc
    with the dummy row last.  A stack of samples adds a leading batch
    axis: each sample padded at the top and the left to the stack's
    largest cp and cc, with the dummy column and row still last and
    -inf at every padded score.  A padded score's exponential is exactly
    zero and comes before the sample's own in every in-order sum, so
    each sample's (A1, A2) is its own call's bit for bit, with zero at
    every padded score.
    """
    m1 = np.asarray(m1, dtype=np.float64)
    m2 = np.asarray(m2, dtype=np.float64)
    if m1.ndim not in (2, 3) or m1.shape[-1] < 1 or m2.shape != (
        *m1.shape[:-2], m1.shape[-2] + 1, m1.shape[-1] - 1
    ):
        raise ValueError(f"augmented shapes mismatched: {m1.shape}, {m2.shape}")
    e1 = np.exp(m1 - m1.max(axis=-1, keepdims=True))
    e2 = np.exp(m2 - m2.max(axis=-2, keepdims=True))
    return e1 / row_sums(e1), e2 / column_sums(e2)


def augment_and_softmax(
    m: np.ndarray, dummy_score: float
) -> tuple[np.ndarray, np.ndarray]:
    """(A1, A2) of the cp x cc scores, augmented with the dummy score.

    A1 is cp x (cc+1), each row summing to one, its last column the
    leave probability; A2 is (cp+1) x cc, each column summing to one,
    its last row the enter probability.  A -inf score marks a pair that
    may not link: it gets exactly zero in A1 and A2.  The finite dummy
    keeps every row and column of the softmax well defined.  NaN, +inf
    and a non-finite dummy are errors.  A stack of samples, padded with
    -inf, adds a leading batch axis (see normalize_pair).
    """
    m = np.asarray(m, dtype=np.float64)
    if m.ndim not in (2, 3):
        raise ValueError(f"m must be 2-D or a stack of 2-D, got {m.shape}")
    if not (m < np.inf).all() or not math.isfinite(dummy_score):
        raise ValueError("NaN or +inf affinity score, or non-finite dummy")
    *lead, cp, cc = m.shape

    m1 = np.empty((*lead, cp, cc + 1))
    m1[..., :cc] = m
    m1[..., cc] = dummy_score
    m2 = np.empty((*lead, cp + 1, cc))
    m2[..., :cp, :] = m
    m2[..., cp, :] = dummy_score
    return normalize_pair(m1, m2)
