"""Synthetic labeled sequences with known ground truth.

Objects are rigid shells (box, sphere, or cylinder surfaces) of
distinct sizes moving at constant velocity inside a rectangular arena,
bouncing off its walls.  Start positions are spaced so that, given
each object's total possible drift, centers always stay at least two
box diagonals apart; objects therefore never overlap in any frame.
Every frame gets a point cloud (the union of the shells, sampled
fresh per frame), a labeled detection per visible object at full
confidence, and the directory gains a gt_tracks.csv with the true
trajectories.  Scripted events remove an object permanently ("leave")
or introduce a new one ("enter").

perturb corrupts the detection files of an existing sequence: center
jitter, random false detections with no identity at low confidence,
and random drops.  With all rates at zero the files are rewritten
byte-for-byte unchanged.
"""

from __future__ import annotations

import shutil
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cropping import slot_seed
from .geometry import Detection, Frame, OrientedBox3, from_box_frame
from .sequence_io import (
    SequenceSource,
    load_frame,
    open_sequence,
    write_detections,
    write_frame,
    write_sequence_meta,
    write_tracks_file,
)

SHAPE_KINDS = ("box_shell", "sphere_shell", "cylinder_shell")
GT_TRACKS_NAME = "gt_tracks.csv"
_BASE_DIMS = np.array([2.4, 1.6, 1.4])
_SHELL_MARGIN = 0.98  # keeps f32-rounded points strictly inside the box
_POINT_STREAM_SALT = 0x5B_D1E9_95
_LAYOUT_TRIES = 4000
DEFAULT_SPEED_RANGE = (0.05, 0.2)  # metres per frame
DEFAULT_ARENA = (30.0, 30.0)  # half-extents in x and y, metres


@dataclass(frozen=True)
class SynthConfig:
    """Scene recipe; equal configs generate byte-identical sequences."""

    n_objects: int
    n_frames: int
    seed: int = 0
    points_per_object: int = 200
    speed_range: tuple = DEFAULT_SPEED_RANGE
    arena: tuple = DEFAULT_ARENA
    events: tuple = ()

    def __post_init__(self):
        if self.n_objects < 1 or self.n_frames < 1:
            raise ValueError("need at least one object and one frame")
        if self.points_per_object < 1:
            raise ValueError("points_per_object must be >= 1")
        lo, hi = self.speed_range
        if not 0.0 <= lo <= hi < np.inf:
            raise ValueError("speed_range must be 0 <= lo <= hi and finite")
        if not all(0.0 < a < np.inf for a in self.arena):
            raise ValueError("arena half-extents must be positive and finite")
        for event in self.events:
            if event[0] == "leave":
                _, frame, obj = event
                if not 0 < frame < self.n_frames:
                    raise ValueError(f"leave frame {frame} outside 1..{self.n_frames - 1}")
                if not 0 <= obj < self.n_objects:
                    raise ValueError(f"leave object {obj} does not exist")
            elif event[0] == "enter":
                _, frame = event
                if not 0 < frame < self.n_frames:
                    raise ValueError(f"enter frame {frame} outside 1..{self.n_frames - 1}")
            else:
                raise ValueError(f"unknown event kind {event[0]!r}")
        object.__setattr__(self, "speed_range", tuple(self.speed_range))
        object.__setattr__(self, "arena", tuple(self.arena))
        object.__setattr__(
            self, "events", tuple(tuple(e) for e in self.events)
        )


@dataclass(frozen=True)
class _SceneObject:
    gt_id: int
    shape: str
    dims: np.ndarray        # (l, w, h)
    start: np.ndarray       # (x, y) at frame 0 of its life
    velocity: np.ndarray    # (vx, vy) per frame
    z_center: float
    yaw0: float
    yaw_rate: float
    first_frame: int
    last_frame: int         # exclusive

    def active(self, frame: int) -> bool:
        return self.first_frame <= frame < self.last_frame

    def box_at(self, frame: int, arena) -> OrientedBox3:
        t = frame - self.first_frame
        raw = self.start + t * self.velocity
        x = _reflect(raw[0], -arena[0], arena[0])
        y = _reflect(raw[1], -arena[1], arena[1])
        return OrientedBox3(
            np.array([x, y, self.z_center]),
            float(self.dims[0]),
            float(self.dims[1]),
            float(self.dims[2]),
            self.yaw0 + t * self.yaw_rate,
        )


def _reflect(x: float, lo: float, hi: float) -> float:
    """Fold a coordinate into [lo, hi] by bouncing off both walls."""
    span = hi - lo
    y = (x - lo) % (2.0 * span)
    return lo + (y if y <= span else 2.0 * span - y)


def _scale_ladder(total: int) -> np.ndarray:
    # distinct sizes from 0.7x to 1.7x so shapes never look alike
    if total == 1:
        return np.array([1.0])
    return 0.7 + np.arange(total) / (total - 1)


def _roster(cfg: SynthConfig, rng: np.random.Generator) -> tuple:
    """Place every object (including entrants) with a drift-safe margin."""
    spans = []  # (first_frame, last_frame) per object in id order
    leave_at = {}
    for event in cfg.events:
        if event[0] == "leave":
            leave_at[event[2]] = min(event[1], leave_at.get(event[2], cfg.n_frames))
    for k in range(cfg.n_objects):
        spans.append((0, leave_at.get(k, cfg.n_frames)))
    for event in cfg.events:
        if event[0] == "enter":
            spans.append((event[1], cfg.n_frames))

    total = len(spans)
    scales = _scale_ladder(total)
    dims = [np.asarray(_BASE_DIMS * s) for s in scales]
    max_diag = max(float(np.linalg.norm(d)) for d in dims)
    required = 2.0 * max_diag

    speeds = rng.uniform(*cfg.speed_range, size=total)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=total)
    velocities = np.stack(
        [speeds * np.cos(angles), speeds * np.sin(angles)], axis=1
    )
    drifts = speeds * cfg.n_frames

    placed = []
    for k in range(total):
        margin = required + drifts[k] + (drifts[:k].max() if k else 0.0)
        for _ in range(_LAYOUT_TRIES):
            candidate = rng.uniform(-1.0, 1.0, size=2) * np.asarray(cfg.arena)
            if all(
                np.linalg.norm(candidate - other) >= required + drifts[k] + drifts[j]
                for j, other in enumerate(placed)
            ):
                placed.append(candidate)
                break
        else:
            raise RuntimeError(
                f"could not place object {k} with clearance {margin:.1f} "
                f"in arena {cfg.arena}; enlarge the arena or slow the objects"
            )

    objects = []
    for k, (first, last) in enumerate(spans):
        objects.append(
            _SceneObject(
                gt_id=k,
                shape=SHAPE_KINDS[k % len(SHAPE_KINDS)],
                dims=dims[k],
                start=placed[k],
                velocity=velocities[k],
                z_center=1.5,
                yaw0=float(rng.uniform(-np.pi, np.pi)),
                yaw_rate=float(rng.uniform(-0.05, 0.05)),
                first_frame=first,
                last_frame=last,
            )
        )
    return tuple(objects)


def _shell_points(
    shape: str, half: np.ndarray, n: int, rng: np.random.Generator
) -> np.ndarray:
    """n local-frame points on the shape's surface, inside +-half."""
    h = half * _SHELL_MARGIN
    if shape == "box_shell":
        areas = np.array([h[1] * h[2], h[0] * h[2], h[0] * h[1]])
        axis = rng.choice(3, size=n, p=areas / areas.sum())
        side = rng.choice([-1.0, 1.0], size=n)
        pts = rng.uniform(-1.0, 1.0, size=(n, 3)) * h
        pts[np.arange(n), axis] = side * h[axis]
        return pts
    if shape == "sphere_shell":
        vec = rng.normal(size=(n, 3))
        vec /= np.maximum(np.linalg.norm(vec, axis=1, keepdims=True), 1e-12)
        return vec * h
    # cylinder_shell: lateral wall plus both end caps, split by area
    a, b, hz = h
    lateral = 2.0 * np.pi * np.sqrt((a * a + b * b) / 2.0) * 2.0 * hz
    caps = 2.0 * np.pi * a * b
    on_wall = rng.uniform(size=n) < lateral / (lateral + caps)
    theta = rng.uniform(0.0, 2.0 * np.pi, size=n)
    r = np.sqrt(rng.uniform(size=n))
    z_wall = rng.uniform(-hz, hz, size=n)
    z_cap = np.where(rng.uniform(size=n) < 0.5, -hz, hz)
    radius = np.where(on_wall, 1.0, r)
    pts = np.stack(
        [a * radius * np.cos(theta), b * radius * np.sin(theta),
         np.where(on_wall, z_wall, z_cap)],
        axis=1,
    )
    return pts


def generate(cfg: SynthConfig, out_dir) -> SequenceSource:
    """Write a full labeled sequence and return a handle to it."""
    root = Path(out_dir)
    rng = np.random.default_rng(cfg.seed)
    objects = _roster(cfg, rng)
    gt_rows = []
    for frame_index in range(cfg.n_frames):
        clouds = []
        detections = []
        for obj in objects:
            if not obj.active(frame_index):
                continue
            box = obj.box_at(frame_index, cfg.arena)
            point_rng = np.random.default_rng(
                slot_seed(cfg.seed ^ _POINT_STREAM_SALT, frame_index, obj.gt_id)
            )
            local = _shell_points(
                obj.shape, box.half_extents, cfg.points_per_object, point_rng
            )
            clouds.append(from_box_frame(box, local))
            detections.append(Detection(box, 1.0, obj.gt_id))
            gt_rows.append((frame_index, obj.gt_id, box, 1.0))
        pts = np.vstack(clouds) if clouds else np.empty((0, 3))
        frame = Frame(
            frame_index, pts.astype(np.float32).astype(np.float64), tuple(detections)
        )
        write_frame(root, frame)
    write_sequence_meta(root, cfg.n_frames, name=f"synth-{cfg.seed}")
    write_tracks_file(root / GT_TRACKS_NAME, gt_rows)
    return open_sequence(root)


def perturb(
    src: SequenceSource,
    det_noise_sigma: float = 0.0,
    fp_rate: float = 0.0,
    fn_rate: float = 0.0,
    conf_model: tuple = (0.0, 0.4),
    seed: int = 0,
    out_dir=None,
) -> SequenceSource:
    """Corrupt a sequence's detections; points and ground truth stay intact.

    With out_dir, the whole sequence is copied there first and only the
    copy's detections change.

    The random stream advances identically whatever the rates are, so
    raising one rate never reshuffles the noise drawn for another.  Each
    source detection may bring one false positive, whether or not it is
    itself dropped.  False positives land anywhere within the frame's own
    x/y half-extents (the largest |x| and |y| over its points and
    detection centres).
    """
    if not 0.0 <= det_noise_sigma < np.inf:
        raise ValueError("det_noise_sigma must be >= 0 and finite")
    for name, rate in (("fp_rate", fp_rate), ("fn_rate", fn_rate)):
        if not 0.0 <= rate <= 1.0:
            raise ValueError(f"{name} must be in [0, 1]")
    lo, hi = conf_model
    if not 0.0 <= lo <= hi <= 1.0:
        raise ValueError("conf_model must satisfy 0 <= lo <= hi <= 1")

    root = src.root if out_dir is None else Path(out_dir)
    if out_dir is not None:
        shutil.copytree(src.root, root, dirs_exist_ok=True)

    rng = np.random.default_rng(seed)
    for frame_index in range(src.frame_count):
        frame = load_frame(src, frame_index)
        centers = [det.box.center[:2] for det in frame.detections]
        half_x, half_y = np.abs(
            np.vstack([frame.points[:, :2], *centers])
        ).max(axis=0, initial=0.0)
        # keep the source's gt column so a zero-rate pass is a no-op
        with open(src.detection_path(frame_index)) as fh:
            has_gt = fh.readline().rstrip("\n").endswith(",gt_id")
        rows = []
        for det in frame.detections:
            drop = rng.uniform()
            jitter = rng.normal(size=3)
            fp_coin = rng.uniform()
            fp_draw = rng.uniform(size=8)
            if drop >= fn_rate:
                box = det.box
                if det_noise_sigma > 0.0:
                    box = OrientedBox3(
                        box.center + det_noise_sigma * jitter,
                        box.length, box.width, box.height, box.yaw,
                    )
                rows.append(Detection(box, det.confidence, det.gt_id))
            # each detection's clutter comes whether or not it was dropped
            if fp_coin < fp_rate:
                center = np.array(
                    [half_x * (2.0 * fp_draw[0] - 1.0),
                     half_y * (2.0 * fp_draw[1] - 1.0),
                     0.5 + 2.0 * fp_draw[2]]
                )
                fp_box = OrientedBox3(
                    center,
                    1.0 + 3.0 * fp_draw[3],
                    0.8 + 2.0 * fp_draw[4],
                    0.8 + 1.5 * fp_draw[5],
                    np.pi * (2.0 * fp_draw[6] - 1.0),
                )
                conf = lo + (hi - lo) * fp_draw[7]
                rows.append(Detection(fp_box, conf, None))
        write_detections(root, frame_index, rows, with_gt=has_gt)
    return open_sequence(root, src.confidence_threshold)
