"""Value types for oriented boxes, detections, and frames.

All types are immutable values built on numpy arrays; every operation here
is pure.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

TWO_PI = 2.0 * math.pi


def yaw_normalize(theta: float) -> float:
    """Reduce an angle to the canonical heading range [-pi, pi)."""
    if not math.isfinite(theta):
        raise ValueError(f"yaw must be finite, got {theta}")
    r = theta - TWO_PI * math.floor((theta + math.pi) / TWO_PI)
    # floor rounding can land exactly on +pi; fold it to the lower bound
    if r >= math.pi:
        r -= TWO_PI
    if r < -math.pi:
        r += TWO_PI
    return r


def _as_finite_points(points) -> np.ndarray:
    """points as a finite float64 (n, 3) array.

    An empty 1-D array is no points and a single (3,) triple one point;
    every other shape but (n, 3) is refused.
    """
    pts = np.asarray(points, dtype=np.float64)
    if pts.shape == (0,):
        return pts.reshape(0, 3)
    if pts.shape == (3,):
        pts = pts.reshape(1, 3)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise ValueError(f"expected (n, 3) point array, got shape {pts.shape}")
    if not np.isfinite(pts).all():
        raise ValueError("point coordinates must be finite")
    return pts


@dataclass(frozen=True, eq=False)
class OrientedBox3:
    """Gravity-aligned 3D box: center, extents, and yaw about the z axis."""

    center: np.ndarray
    length: float
    width: float
    height: float
    yaw: float = 0.0

    def __post_init__(self):
        center = np.asarray(self.center, dtype=np.float64).reshape(3)
        if not all(map(math.isfinite, center.tolist())):
            raise ValueError("box center must be finite")
        object.__setattr__(self, "center", center)
        for name in ("length", "width", "height"):
            v = float(getattr(self, name))
            if not (math.isfinite(v) and v > 0.0):
                raise ValueError(f"box {name} must be positive and finite, got {v}")
            object.__setattr__(self, name, v)
        object.__setattr__(self, "yaw", yaw_normalize(float(self.yaw)))

    @property
    def half_extents(self) -> np.ndarray:
        return np.array([self.length / 2.0, self.width / 2.0, self.height / 2.0])

    def diagonal(self) -> float:
        return float(np.linalg.norm([self.length, self.width, self.height]))


def _box_frame_columns(xyz, center, c, s):
    """The box-frame map on coordinate columns; to_box_frame calls it.

    xyz holds the x, y and z columns of the points.  center, and c and s
    (the cosine and sine of the yaw), are one box's scalars or arrays
    aligned with the columns, so many boxes map their points in one pass
    with the same operations, and the same bits, as one box at a time.
    Returns the local x, y and z columns.
    """
    dx = xyz[0] - center[0]
    dy = xyz[1] - center[1]
    return dx * c + dy * s, -dx * s + dy * c, xyz[2] - center[2]


def to_box_frame(box: OrientedBox3, points) -> np.ndarray:
    """Map world points into the box frame (center at origin, yaw removed)."""
    pts = _as_finite_points(points)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    return np.stack(_box_frame_columns(pts.T, box.center, c, s), axis=1)


def from_box_frame(box: OrientedBox3, points) -> np.ndarray:
    """Inverse of to_box_frame: box-local points back to world coordinates."""
    pts = _as_finite_points(points)
    c, s = math.cos(box.yaw), math.sin(box.yaw)
    world = np.empty_like(pts)
    world[:, 0] = pts[:, 0] * c - pts[:, 1] * s
    world[:, 1] = pts[:, 0] * s + pts[:, 1] * c
    world[:, 2] = pts[:, 2]
    return world + box.center


def box_contains(box: OrientedBox3, p) -> np.ndarray | bool:
    """Closed-box containment test; boundary points count as inside.

    Accepts a single xyz triple or an (n, 3) array; returns a bool or a
    boolean mask accordingly.
    """
    arr = np.asarray(p, dtype=np.float64)
    single = arr.ndim == 1
    inside = local_inside(box, to_box_frame(box, arr))
    return bool(inside[0]) if single else inside


def local_inside(box: OrientedBox3, local: np.ndarray) -> np.ndarray:
    """Closed-box rule on (n, 3) points already in box's local frame."""
    return _inside_columns(np.asarray(local).T, box.half_extents)


def _inside_columns(local, half) -> np.ndarray:
    """Closed-box rule on local x, y and z columns; local_inside calls it.

    This is the one place that decides "inside": a point is inside when
    every local coordinate is within the half extents, boundary included.
    half holds the three half extents, each a scalar or an array aligned
    with the columns.
    """
    inside = np.abs(local[0]) <= half[0]
    inside &= np.abs(local[1]) <= half[1]
    inside &= np.abs(local[2]) <= half[2]
    return inside


@dataclass(frozen=True, eq=False)
class Detection:
    """One detected object: oriented box, confidence, optional true identity."""

    box: OrientedBox3
    confidence: float
    gt_id: int | None = None

    def __post_init__(self):
        conf = float(self.confidence)
        if not (math.isfinite(conf) and 0.0 <= conf <= 1.0):
            raise ValueError(f"confidence must be in [0, 1], got {conf}")
        object.__setattr__(self, "confidence", conf)
        if self.gt_id is not None:
            gid = int(self.gt_id)
            if gid < 0:
                raise ValueError("gt_id must be non-negative")
            object.__setattr__(self, "gt_id", gid)


@dataclass(frozen=True, eq=False)
class Frame:
    """One time step: a sensor sweep's points plus its detections.

    points is a finite float64 (n, 3) array of xyz points.  Point order
    carries no meaning; consumers must be permutation invariant.
    """

    index: int
    points: np.ndarray
    detections: tuple[Detection, ...] = field(default_factory=tuple)

    def __post_init__(self):
        object.__setattr__(self, "points", _as_finite_points(self.points))
        if self.index < 0:
            raise ValueError("frame index must be non-negative")
        object.__setattr__(self, "detections", tuple(self.detections))
