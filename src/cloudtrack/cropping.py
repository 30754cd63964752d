"""Per-object point extraction.

Each admitted detection gets the cloud points inside its box, expressed
in the box-local frame (center at origin, yaw removed), resampled to a
fixed count P.  Fewer than P interior points are zero-padded; more than
P are thinned by seeded uniform sampling without replacement, keeping
source order.  Selection depends only on (seed, frame index, slot), so
crops are reproducible bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Frame, OrientedBox3, PointCloud, box_contains, to_box_frame

DEFAULT_POINTS_PER_OBJECT = 128

_MASK64 = (1 << 64) - 1


def _mix64(x: int) -> int:
    """SplitMix64 finalizer; a stable 64-bit avalanche."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def slot_seed(seed: int, frame_index: int, slot: int) -> int:
    """Derive the per-object crop seed from the run seed, frame, and slot."""
    h = _mix64(seed & _MASK64)
    h = _mix64(h ^ (frame_index & _MASK64))
    h = _mix64(h ^ (slot & _MASK64))
    return h


@dataclass(frozen=True)
class ObjectPoints:
    """Fixed-size local-frame point set for one object.

    Rows past valid_count are zero padding.
    """

    points: np.ndarray
    valid_count: int

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (P, 3), got {pts.shape}")
        if not 0 <= self.valid_count <= len(pts):
            raise ValueError("valid_count outside 0..P")
        if not np.isfinite(pts[: self.valid_count]).all():
            raise ValueError("non-finite point coordinate")
        if np.any(pts[self.valid_count:]):
            raise ValueError("padding rows must be zero")
        object.__setattr__(self, "points", pts)


def crop_object(
    cloud: PointCloud,
    box: OrientedBox3,
    P: int = DEFAULT_POINTS_PER_OBJECT,
    seed: int = 0,
) -> ObjectPoints:
    """Collect the cloud points inside box, in the box-local frame."""
    if P < 1:
        raise ValueError("P must be >= 1")
    out = np.zeros((P, 3))
    if len(cloud) == 0:
        return ObjectPoints(out, 0)
    inside = cloud.points[box_contains(box, cloud.points)]
    n = len(inside)
    if n > P:
        rng = np.random.default_rng(seed & _MASK64)
        keep = np.sort(rng.permutation(n)[:P])
        inside = inside[keep]
        n = P
    if n:
        out[:n] = to_box_frame(box, inside)
    return ObjectPoints(out, n)


def crop_frame(
    frame: Frame,
    P: int = DEFAULT_POINTS_PER_OBJECT,
    seed: int = 0,
) -> tuple[ObjectPoints, ...]:
    """Crop every detection of an admitted frame, in detection order."""
    return tuple(
        crop_object(frame.cloud, det.box, P, slot_seed(seed, frame.index, slot))
        for slot, det in enumerate(frame.detections)
    )
