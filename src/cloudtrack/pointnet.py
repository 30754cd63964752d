"""Point-set featurizer: shared per-point MLP followed by a max-pool.

Each object's valid points run through the same small MLP (default
widths 3-64-128-512, ReLU between layers) and the feature is the
element-wise maximum over valid points only, so a crop's zero padding
never leaks into the feature.  Valid points are canonically ordered
before the matrix products, which makes the output bitwise identical
under any permutation or re-padding of the input points.  A frame's
features are one row per object, in detection order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cropping import ObjectPoints
from .nets import Layers, layer_widths, mlp_forward, validate_layers

DEFAULT_POINTNET_WIDTHS = (3, 64, 128, 512)


@dataclass(frozen=True)
class PointNetWeights:
    """Per-point MLP weights; input width is always 3 (xyz)."""

    layers: Layers

    def __post_init__(self):
        object.__setattr__(self, "layers", validate_layers(self.layers, in_dim=3))

    @property
    def widths(self) -> tuple[int, ...]:
        return layer_widths(self.layers)

    @property
    def feature_dim(self) -> int:
        return self.widths[-1]


@dataclass(frozen=True)
class FeatureSet:
    """One feature row per object of a frame."""

    features: np.ndarray
    frame_index: int = 0

    def __post_init__(self):
        feats = np.asarray(self.features, dtype=np.float64)
        if feats.ndim != 2:
            raise ValueError(f"features must be 2-D, got shape {feats.shape}")
        if not np.isfinite(feats).all():
            raise ValueError("non-finite feature value")
        object.__setattr__(self, "features", feats)

    @property
    def count(self) -> int:
        return len(self.features)

    @property
    def dim(self) -> int:
        return self.features.shape[1]


def _canonical_order(pts: np.ndarray) -> np.ndarray:
    # sort by x, then y, then z so the gemm input is order-independent
    return pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]


def pointnet_forward(obj: ObjectPoints, w: PointNetWeights) -> np.ndarray:
    """Feature vector for one object; the zero vector when it has no points."""
    if obj.valid_count == 0:
        return np.zeros(w.feature_dim)
    pts = _canonical_order(obj.points[: obj.valid_count])
    return mlp_forward(pts, w.layers).max(axis=0)


def featurize_frame(objs, w: PointNetWeights, frame_index: int = 0) -> FeatureSet:
    """Featurize each object into its own row, in input order.

    Each row depends only on its own object's points.
    """
    objs = tuple(objs)
    feats = np.zeros((len(objs), w.feature_dim))
    for slot, obj in enumerate(objs):
        feats[slot] = pointnet_forward(obj, w)
    return FeatureSet(feats, frame_index)
