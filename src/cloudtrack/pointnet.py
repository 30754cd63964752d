"""Point-set featurizer: shared per-point MLP followed by a max-pool.

Each object's crop, a float64 (n, 3) array of at most CROP_POINTS
points, runs through the same small MLP (default widths 3-64-128-512,
ReLU between layers) and the feature is the element-wise maximum over
its points; an empty crop gives the zero row.  Points are canonically
ordered (by x, then y, then z) before the matrix products, which makes
the output bitwise identical under any permutation of the input points.
One argsort of x orders every crop of a call at once; only a crop whose
x values repeat is ordered again by its own lexsort.  A frame's features
are one row per object, in detection order.

The MLP runs in float32, and PointNetWeights holds its weights only
as float32 (model files store float32, so loading is exact); frame
points are float32 on disk too.  The box-local crop coordinates round
once to float32, and the products round more coarsely than in float64.
Features stay within 1e-6 of the largest feature of a float64 MLP on
the same crops (the tests bound it).  Crop geometry before the MLP is
float64; the rows it returns are one float32 array, the type the
affinity head reads.

The crops of one call, short or long, run as one batch in a canonical
crop order, through the MLP in chunks of a few crops (see
featurize_frame), so the rows permute bitwise with the objects by
construction.  A chunk's rows are point-major (point p of every crop,
then point p + 1), so the max-pool is one reduction over contiguous
rows, and the hidden biases are tiled once per call to a chunk's rows,
so each bias add is contiguous too.  The tracker passes the crops of a
window of frames in one call and the trainer one frame's; the chunks
bound the scratch at any crop count.  That a row equals its own
object's pointnet_forward is checked by the tests, not guaranteed by
construction: it rests on BLAS rounding a row alike wherever it sits in
a product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .nets import Layers, distinct_rows, layer_widths, validate_layers

DEFAULT_POINTNET_WIDTHS = (3, 64, 128, 512)


@dataclass(frozen=True, eq=False)
class PointNetWeights:
    """Per-point MLP weights; input width is always 3 (xyz).

    layers is cast once to float32, the type the featurizer runs in, and
    validated after the cast: a weight that overflows float32 is refused
    here, not when a frame is featurized.
    """

    layers: Layers

    def __post_init__(self):
        layers = validate_layers(self.layers, in_dim=3)
        object.__setattr__(self, "layers", layers)

    @property
    def widths(self) -> tuple[int, ...]:
        return layer_widths(self.layers)

    @property
    def feature_dim(self) -> int:
        return self.widths[-1]


# Crops per MLP chunk: the fewest whose rows keep the widest product in
# threaded OpenBLAS's two-thread range.  Per row of the default 128->512
# layer, the product took 830-1019 ns at 512 rows, 645-871 at 640, 623-629
# at 768 and 601-626 at 1024 (two runs; 2-core box, OpenBLAS 0.3.31), so
# 6 crops of 128 points, 768 rows, run about as fast as more.  The chunk
# bounds the scratch whatever the call's crop count: at the default
# widths, 6 crops of 128 points take 2.0 MB (16 crops per chunk lifted
# dense80's peak RSS past its bound when the MLP ran in float64).
_CHUNK_CROPS = 6

# Shorter crops are padded to this many points.  BLAS multiplies such
# short inputs with other float32 kernels (OpenBLAS: small-matrix sgemm
# kernels up to 9 rows of the 64->128 layer and up to 2 rows of the
# 128->512 layer), whose rows round differently from the same rows inside
# a longer product; from 10 points on they match.
_PAD_MIN_POINTS = 16


def _canonical_order(pts: np.ndarray) -> np.ndarray:
    # sort by x, then y, then z so the gemm input is order-independent
    return np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))


def _canonical_batch(crops, lengths: np.ndarray, width: int) -> np.ndarray:
    """The crops in canonical order as one (k, width, 3) float32 batch.

    One argsort orders every crop by x: the crops' x values are gathered
    into one (k, width) key array, +inf in each crop's pad columns, so a
    crop's own points sort before its pads.  A crop whose sorted x
    repeats (exact ties, duplicate points, +0 and -0) is ordered again by
    _canonical_order alone, which stays the one definition of the order.
    Each pad column then repeats the crop's canonical last point, and one
    gather from the float32 points builds the batch.  The points are
    checked before the sort: a NaN x would sort after the +inf pad keys
    and be padded over.
    """
    flat = np.concatenate(crops)
    points = flat.astype(np.float32)
    if not np.isfinite(points).all():
        raise ValueError("non-finite point coordinate")
    starts = np.cumsum(lengths) - lengths
    cols = np.minimum(np.arange(width), lengths[:, None] - 1)
    pad = np.arange(width) >= lengths[:, None]
    keys = np.where(pad, np.inf, flat[:, 0][starts[:, None] + cols])
    order = np.argsort(keys, axis=1)
    ranked = np.take_along_axis(keys, order, axis=1)
    tied = ((ranked[:, 1:] == ranked[:, :-1]) & ~pad[:, 1:]).any(axis=1)
    for c in np.flatnonzero(tied):
        order[c, : lengths[c]] = _canonical_order(crops[c])
    source = starts[:, None] + np.take_along_axis(order, cols, axis=1)
    return points[source]


def _pool_crops(crops, layers: Layers) -> np.ndarray:
    """Max-pooled MLP output of each non-empty crop; one float32 row each.

    The crops are put in canonical order by one sort (_canonical_batch)
    into one float32 batch, padded to the longest crop, and to at least
    _PAD_MIN_POINTS points, by repeating the last point (a duplicate row
    leaves the max unchanged).  Equal crops run once, in the order of
    their lengths, then of their bytes, _CHUNK_CROPS at a time, each chunk
    cut to its own longest crop.  A chunk's rows are point-major: row
    p * m + c holds point p of its crop c, so the max-pool reduces each
    output over p = 0, 1, ... in one pass over contiguous rows.  Layer i
    writes into scratch buffer i % 2 and reads the other, so the scratch
    is two buffers of one chunk's rows at any layer count; the hidden
    biases are tiled once per call to those rows, so each bias add is
    contiguous.  Runs in float32; layers are float32
    (PointNetWeights.layers).  The last bias is added after the max:
    rounding is monotone, so max_p fl(y_p + b) == fl(max_p y_p + b).
    """
    lengths = np.array([len(pts) for pts in crops])
    width = max(lengths.max(), _PAD_MIN_POINTS)
    padded = _canonical_batch(crops, lengths, width)
    first, inverse = distinct_rows(
        lengths.astype(">i8")[:, None], padded.reshape(len(crops), -1)
    )
    k = len(first)
    rows = min(k, _CHUNK_CROPS) * width
    outs = [W.shape[0] for W, _ in layers]
    scratch = [
        np.empty(rows * max(outs[i::2]), dtype=np.float32)
        for i in range(min(2, len(outs)))
    ]
    biases = [np.tile(b, (rows, 1)) for _, b in layers[:-1]]
    pooled = np.empty((k, outs[-1]), dtype=np.float32)
    for start in range(0, k, _CHUNK_CROPS):
        stop = min(start + _CHUNK_CROPS, k)
        chunk_width = max(lengths[first[stop - 1]], _PAD_MIN_POINTS)
        x = padded[first[start:stop], :chunk_width].transpose(1, 0, 2).reshape(-1, 3)
        for i, (W, _) in enumerate(layers):
            h = scratch[i % 2][: len(x) * len(W)].reshape(len(x), len(W))
            np.matmul(x, W.T, out=h)
            if i < len(layers) - 1:
                h += biases[i][: len(x)]
                np.maximum(h, 0.0, out=h)
            x = h
        x.reshape(chunk_width, -1).max(axis=0, out=pooled[start:stop].reshape(-1))
    pooled += layers[-1][1]
    return pooled[inverse]


def pointnet_forward(points: np.ndarray, w: PointNetWeights) -> np.ndarray:
    """Feature vector for one (n, 3) crop; the zero vector when it has no points."""
    return featurize_frame((points,), w)[0]


def featurize_frame(crops, w: PointNetWeights) -> np.ndarray:
    """Featurize each (n, 3) crop into its own row, in input order; (n, D) float32.

    Every non-empty crop, short or long, runs in one batch (see
    _pool_crops) in a canonical order, by length, then bytes: any
    permutation of crops gives the matrix products the same inputs and
    permutes the rows bitwise.  Empty crops keep the zero row.  That a
    row equals its own crop's pointnet_forward rests on BLAS computing a
    row alike at any position of a product of at least _PAD_MIN_POINTS
    rows: the tests check it, the construction does not guarantee it.  A
    crop that is not (n, 3), or has a coordinate that is not finite in
    float32, raises ValueError; so does a non-finite feature, which
    finite weights still give when their products overflow float32.
    """
    for pts in crops:
        if np.ndim(pts) != 2 or np.shape(pts)[1] != 3:
            raise ValueError(f"points must be (n, 3), got {np.shape(pts)}")
    feats = np.zeros((len(crops), w.feature_dim), dtype=np.float32)
    full = [slot for slot, pts in enumerate(crops) if len(pts)]
    if full:
        with np.errstate(over="ignore", invalid="ignore"):
            feats[full] = _pool_crops([crops[slot] for slot in full], w.layers)
    if not np.isfinite(feats).all():
        raise ValueError("non-finite feature value")
    return feats
