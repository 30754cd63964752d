"""Disk format for sequences and the confidence admission filter.

A sequence directory looks like::

    <root>/
      sequence.meta        # "frame_count=<n>"; other keys (name=...) are ignored
      frames/<i>.xyz       # raw little-endian float32 xyz triples
      detections/<i>.csv   # header: frame,conf,cx,cy,cz,l,w,h,yaw[,gt_id]

Frame files are indexed 0..frame_count-1 with no zero padding, and every
row's frame field must be its file's index, written as in the file name.
The gt_id column is optional; when present, an empty field means "no identity"
(used for injected false detections).  All multi-byte binary values are
little-endian.  Floats in CSV files are written with shortest round-trip
formatting, so a load/write cycle of canonical files is byte identical.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .geometry import Detection, Frame, OrientedBox3

DETECTION_HEADER = "frame,conf,cx,cy,cz,l,w,h,yaw"
TRACKS_HEADER = "frame,track_id,cx,cy,cz,l,w,h,yaw,conf"
DEFAULT_CONFIDENCE_THRESHOLD = 0.4


@dataclass(frozen=True)
class SequenceSource:
    """Read-only handle to an on-disk sequence.

    Its admission policy is a strict confidence cut: load_admitted_frame
    keeps the detections whose confidence is above confidence_threshold.
    """

    root: Path
    frame_count: int
    confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD

    def __post_init__(self):
        if not 0.0 <= self.confidence_threshold <= 1.0:
            raise ValueError("confidence_threshold must be in [0, 1]")

    def point_path(self, index: int) -> Path:
        return self.root / "frames" / f"{index}.xyz"

    def detection_path(self, index: int) -> Path:
        return self.root / "detections" / f"{index}.csv"


def _file_names(directory: Path) -> set[str]:
    """Names of the regular files in directory; none if it is absent or not
    a directory."""
    try:
        with os.scandir(directory) as entries:
            return {entry.name for entry in entries if entry.is_file()}
    except (FileNotFoundError, NotADirectoryError):
        return set()


def open_sequence(
    root, confidence_threshold: float = DEFAULT_CONFIDENCE_THRESHOLD
) -> SequenceSource:
    """Open a sequence directory, validating the meta file and frame files.

    Each of frames/ and detections/ is listed once; the first file missing
    in frame order, a frame's point file before its detection file, is the
    one the error names.
    """
    root = Path(root)
    meta = root / "sequence.meta"
    if not meta.is_file():
        raise FileNotFoundError(f"missing sequence meta file: {meta}")
    frame_count = None
    for lineno, line in enumerate(meta.read_text().splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        key, sep, value = line.partition("=")
        if not sep:
            raise ValueError(f"{meta}:{lineno}: expected key=value, got {line!r}")
        if key == "frame_count":
            try:
                frame_count = int(value)
            except ValueError:
                frame_count = -1
            if frame_count < 0:
                raise ValueError(f"{meta}:{lineno}: bad frame_count {value!r}")
    if frame_count is None:
        raise ValueError(f"{meta}: missing frame_count")
    src = SequenceSource(root, frame_count, confidence_threshold)
    point_names = _file_names(root / "frames")
    detection_names = _file_names(root / "detections")
    for i in range(frame_count):
        if f"{i}.xyz" not in point_names:
            raise FileNotFoundError(f"missing frame file: {src.point_path(i)}")
        if f"{i}.csv" not in detection_names:
            raise FileNotFoundError(f"missing frame file: {src.detection_path(i)}")
    return src


def _parse_points(path: Path) -> np.ndarray:
    data = path.read_bytes()
    if len(data) % 12 != 0:
        raise ValueError(
            f"{path}: truncated point record at byte {len(data) - len(data) % 12}"
        )
    pts = np.frombuffer(data, dtype="<f4").astype(np.float64).reshape(-1, 3)
    if not np.isfinite(pts).all():
        bad = int(np.flatnonzero(~np.isfinite(pts).all(axis=1))[0])
        raise ValueError(f"{path}: non-finite coordinate in point {bad}")
    return pts


def _parse_detection_row(
    path: Path, lineno: int, row: str, has_gt: bool, frame_index: int
) -> Detection:
    fields = row.split(",")
    expected = 10 if has_gt else 9
    if len(fields) != expected:
        raise ValueError(f"{path}:{lineno}: expected {expected} fields, got {len(fields)}")
    if fields[0] != str(frame_index):
        raise ValueError(
            f"{path}:{lineno}: frame field {fields[0]!r} in the file of frame {frame_index}"
        )
    try:
        values = [float(v) for v in fields[1:9]]
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: bad numeric field ({exc})") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"{path}:{lineno}: non-finite value")
    conf, cx, cy, cz, l, w, h, yaw = values
    gt_id: int | None = None
    if has_gt and fields[9] != "":
        try:
            gt_id = int(fields[9])
        except ValueError:
            raise ValueError(f"{path}:{lineno}: bad gt_id {fields[9]!r}") from None
    try:
        box = OrientedBox3(np.array([cx, cy, cz]), l, w, h, yaw)
        return Detection(box, conf, gt_id)
    except ValueError as exc:
        raise ValueError(f"{path}:{lineno}: {exc}") from None


def _parse_detections(path: Path, frame_index: int) -> tuple[Detection, ...]:
    text = path.read_text()
    lines = text.splitlines()
    if not lines:
        raise ValueError(f"{path}:1: missing header")
    header = lines[0]
    if header == DETECTION_HEADER:
        has_gt = False
    elif header == DETECTION_HEADER + ",gt_id":
        has_gt = True
    else:
        raise ValueError(f"{path}:1: unexpected header {header!r}")
    out = []
    for lineno, row in enumerate(lines[1:], start=2):
        if not row:
            continue
        out.append(_parse_detection_row(path, lineno, row, has_gt, frame_index))
    return tuple(out)


def load_frame(src: SequenceSource, index: int) -> Frame:
    """Load one frame, unfiltered, in file order.

    open_sequence has checked that the frame's files exist; one removed
    since then raises FileNotFoundError naming it when it is read.
    """
    if not 0 <= index < src.frame_count:
        raise IndexError(f"frame index {index} outside 0..{src.frame_count - 1}")
    points = _parse_points(src.point_path(index))
    return Frame(index, points, _parse_detections(src.detection_path(index), index))


def admit_detections(frame: Frame, threshold: float) -> Frame:
    """Apply the admission filter: strictly-above-threshold confidence, in
    descending confidence order, ties kept in file order.  Slot order sets
    crop seeds and birth ids, so it must not depend on anything else."""
    kept = [d for d in frame.detections if d.confidence > threshold]
    admitted = tuple(sorted(kept, key=lambda d: -d.confidence))
    return Frame(frame.index, frame.points, admitted)


def load_admitted_frame(src: SequenceSource, index: int) -> Frame:
    return admit_detections(load_frame(src, index), src.confidence_threshold)


def format_float(x: float) -> str:
    """Shortest round-trip decimal form; deterministic across runs."""
    return repr(float(x))


def _detection_row(frame_index: int, det: Detection, has_gt: bool) -> str:
    b = det.box
    # Python floats throughout, so repr is format_float's form
    vals = (det.confidence, *b.center.tolist(), b.length, b.width, b.height, b.yaw)
    row = f"{frame_index}," + ",".join(map(repr, vals))
    if has_gt:
        row += "," + ("" if det.gt_id is None else str(det.gt_id))
    return row


def write_detections(root, frame_index: int, detections, with_gt: bool = True) -> None:
    """Write one frame's detection CSV in canonical form."""
    root = Path(root)
    (root / "detections").mkdir(parents=True, exist_ok=True)
    header = DETECTION_HEADER + (",gt_id" if with_gt else "")
    rows = [header]
    rows.extend(_detection_row(frame_index, d, with_gt) for d in detections)
    path = root / "detections" / f"{frame_index}.csv"
    path.write_text("\n".join(rows) + "\n")


def write_frame(root, frame: Frame) -> None:
    """Write one frame's point and detection files, gt_id column included."""
    root = Path(root)
    (root / "frames").mkdir(parents=True, exist_ok=True)
    pts = frame.points.astype("<f4")
    (root / "frames" / f"{frame.index}.xyz").write_bytes(pts.tobytes())
    write_detections(root, frame.index, frame.detections)


def write_tracks_file(path, rows) -> None:
    """Write (frame, track_id, box, conf) rows as a track CSV.

    Rows are sorted by frame then track id; this is the format of both
    predicted tracks and a synthetic scene's ground truth.
    """
    lines = [TRACKS_HEADER]
    for frame_index, track_id, b, conf in sorted(rows, key=lambda r: (r[0], r[1])):
        # Python floats throughout, so repr is format_float's form
        vals = (*b.center.tolist(), b.length, b.width, b.height, b.yaw, float(conf))
        lines.append(f"{frame_index},{track_id}," + ",".join(map(repr, vals)))
    Path(path).write_text("\n".join(lines) + "\n")


def write_sequence_meta(root, frame_count: int, name: str = "") -> None:
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    lines = [f"frame_count={frame_count}"]
    if name:
        lines.append(f"name={name}")
    (root / "sequence.meta").write_text("\n".join(lines) + "\n")
