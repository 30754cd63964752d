"""Per-object point extraction.

Each admitted detection gets the cloud points inside its box, expressed
in the box-local frame (center at origin, yaw removed): at most P points.
A box with more than P interior points is thinned to P by seeded uniform
sampling without replacement, keeping source order.  Selection depends
only on (seed, frame index, slot), so crops are reproducible bit for bit.

A frame is cropped in one x-sorted pass: the cloud is sorted by x once,
and each box takes as candidates the points whose x lies within its
footprint's half-diagonal (plus a small margin) of its center.  That
window is a superset of the box interior, the exact closed-box test runs
on every candidate, and candidates keep source order, so the crops are
the same as testing the whole cloud against every box.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import Frame, OrientedBox3, local_inside, to_box_frame

DEFAULT_POINTS_PER_OBJECT = 128

_MASK64 = (1 << 64) - 1

# Relative slack on a box's x-window.  It absorbs the rounding of the
# rotation and of the center subtraction, which scales with |center x|.
_WINDOW_MARGIN = 1e-6


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


@dataclass(frozen=True, eq=False)
class ObjectPoints:
    """One object's crop: its (n, 3) local-frame points, n at most P."""

    points: np.ndarray

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[1] != 3:
            raise ValueError(f"points must be (n, 3), got {pts.shape}")
        if not np.isfinite(pts).all():
            raise ValueError("non-finite point coordinate")
        object.__setattr__(self, "points", pts)

    @property
    def valid_count(self) -> int:
        return len(self.points)


def _crop(
    candidates: np.ndarray,
    box: OrientedBox3,
    P: int,
    seed: int,
) -> ObjectPoints:
    """Crop box from candidates: source-ordered points covering its interior."""
    if P < 1:
        raise ValueError("P must be >= 1")
    local = to_box_frame(box, candidates)
    local = local[local_inside(box, local)]
    n = len(local)
    if n > P:
        rng = np.random.default_rng(seed & _MASK64)
        local = local[np.sort(rng.permutation(n)[:P])]
    return ObjectPoints(local)


def _x_reach(box: OrientedBox3) -> float:
    """Half-width of an x-window around box.center that holds its interior."""
    half_diagonal = math.hypot(box.length, box.width) / 2.0
    return half_diagonal + _WINDOW_MARGIN * (half_diagonal + abs(box.center[0]))


def crop_frame(
    frame: Frame,
    P: int = DEFAULT_POINTS_PER_OBJECT,
    seed: int = 0,
) -> tuple[ObjectPoints, ...]:
    """Crop every detection of an admitted frame, in detection order.

    The cloud is sorted by x once; each box tests only the points in its
    x-window, a superset of its interior taken back to source order, so
    every crop equals the one cropped from the whole cloud with the slot's
    seed.
    """
    points = frame.cloud.points
    order = np.argsort(points[:, 0], kind="stable")
    xs = points[order, 0]
    crops = []
    for slot, det in enumerate(frame.detections):
        x, reach = det.box.center[0], _x_reach(det.box)
        lo = np.searchsorted(xs, x - reach, side="left")
        hi = np.searchsorted(xs, x + reach, side="right")
        window = points[np.sort(order[lo:hi])]
        crops.append(_crop(window, det.box, P, slot_seed(seed, frame.index, slot)))
    return tuple(crops)
