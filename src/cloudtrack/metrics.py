"""Multi-object tracking metrics over center trajectories.

Ground truth and predictions are both frame-indexed maps of object id
to box center.  Matching per frame prefers continuing last frame's
pairings when they are still within the match radius, then matches
the remainder over the pairs within the radius: the most pairs, then the
least total distance (matching.match).
MOTA counts misses, false positives, and identity switches against the
total ground-truth object count; MOTP is the mean matched distance.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass

import numpy as np

from .matching import match

DEFAULT_MATCH_RADIUS = 1.0

# frame index -> object id -> center (3,)
CenterTracks = dict


@dataclass(frozen=True)
class MotReport:
    mota: float
    motp: float
    id_switches: int
    false_pos: int
    false_neg: int
    gt_count: int
    matches: int

    def __post_init__(self):
        counts = (
            self.id_switches,
            self.false_pos,
            self.false_neg,
            self.gt_count,
            self.matches,
        )
        if any(c < 0 for c in counts):
            raise ValueError("negative count in report")
        if self.gt_count < 1:
            raise ValueError("gt_count must be positive")
        errors = self.false_neg + self.false_pos + self.id_switches
        if abs(self.mota - (1.0 - errors / self.gt_count)) > 1e-12:
            raise ValueError("mota does not match its error counts")
        if self.motp < 0.0:
            raise ValueError("motp must be non-negative")


def read_center_tracks(path) -> CenterTracks:
    """Load a tracks CSV into frame -> id -> center."""
    with open(path) as fh:
        lines = fh.read().splitlines()
    if not lines or not lines[0].startswith("frame,track_id,"):
        raise ValueError(f"{path}: not a tracks CSV")
    out: CenterTracks = {}
    for number, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        parts = line.split(",")
        if len(parts) < 5:
            raise ValueError(f"{path}:{number}: expected at least 5 fields")
        try:
            frame = int(parts[0])
            tid = int(parts[1])
            center = np.array([float(v) for v in parts[2:5]])
        except ValueError as err:
            raise ValueError(f"{path}:{number}: {err}") from None
        if not np.isfinite(center).all():
            raise ValueError(f"{path}:{number}: non-finite center")
        per_frame = out.setdefault(frame, {})
        if tid in per_frame:
            raise ValueError(f"{path}:{number}: track {tid} repeats in frame {frame}")
        per_frame[tid] = center
    return out


def _match_frame(gt_objs, pred_objs, last_match, radius):
    """Greedy continuations first, then the most pairs in reach at least distance."""
    gt_ids = sorted(gt_objs)
    pred_ids = sorted(pred_objs)
    gt_xyz = np.array([gt_objs[gid] for gid in gt_ids]).reshape(-1, 3)
    pred_xyz = np.array([pred_objs[pid] for pid in pred_ids]).reshape(-1, 3)
    dist = np.linalg.norm(gt_xyz[:, None, :] - pred_xyz[None, :, :], axis=2)
    column = {pid: b for b, pid in enumerate(pred_ids)}
    pairs = []
    used = np.zeros(len(pred_ids), dtype=bool)
    remaining_gt = []
    for a, gid in enumerate(gt_ids):
        b = column.get(last_match.get(gid))
        if b is not None and not used[b] and dist[a, b] <= radius:
            pairs.append((gid, pred_ids[b], float(dist[a, b])))
            used[b] = True
        else:
            remaining_gt.append(a)
    remaining_pred = np.flatnonzero(~used)
    cost = dist[np.ix_(remaining_gt, remaining_pred)]
    rows, cols = match(-cost, cost <= radius, max_cardinality=True)
    for a, b in zip(rows, cols):
        pairs.append(
            (gt_ids[remaining_gt[a]], pred_ids[remaining_pred[b]], cost[a, b])
        )
    return pairs


def evaluate(
    gt: CenterTracks,
    pred: CenterTracks,
    match_radius: float = DEFAULT_MATCH_RADIUS,
) -> MotReport:
    """Score predicted tracks against ground-truth tracks."""
    if not 0.0 < match_radius < np.inf:
        raise ValueError("match_radius must be positive and finite")
    gt_count = sum(len(objs) for objs in gt.values())
    if gt_count == 0:
        raise ValueError("ground truth contains no objects; metrics are undefined")
    lo, hi = min(gt), max(gt)
    outside = [f for f in pred if not lo <= f <= hi]
    if outside:
        raise ValueError(
            f"prediction frames {sorted(outside)} fall outside "
            f"ground-truth range [{lo}, {hi}]"
        )
    last_match: dict = {}
    false_neg = false_pos = id_switches = matches = 0
    dist_sum = 0.0
    for frame in sorted(set(gt) | set(pred)):
        gt_objs = gt.get(frame, {})
        pred_objs = pred.get(frame, {})
        pairs = _match_frame(gt_objs, pred_objs, last_match, match_radius)
        for gid, pid, d in pairs:
            previous = last_match.get(gid)
            if previous is not None and previous != pid:
                id_switches += 1
            last_match[gid] = pid
            dist_sum += d
        matches += len(pairs)
        false_neg += len(gt_objs) - len(pairs)
        false_pos += len(pred_objs) - len(pairs)
    motp = dist_sum / matches if matches else 0.0
    # (gt - errors)/gt keeps ratios like 2/3 bit-exact; 1 - errors/gt
    # can land one ulp away
    mota = (gt_count - (false_neg + false_pos + id_switches)) / gt_count
    return MotReport(
        mota=mota,
        motp=motp,
        id_switches=id_switches,
        false_pos=false_pos,
        false_neg=false_neg,
        gt_count=gt_count,
        matches=matches,
    )


def report_table(report: MotReport) -> str:
    rows = [
        ("MOTA", f"{report.mota:.6f}"),
        ("MOTP", f"{report.motp:.6f}"),
        ("ID switches", str(report.id_switches)),
        ("False positives", str(report.false_pos)),
        ("False negatives", str(report.false_neg)),
        ("GT objects", str(report.gt_count)),
        ("Matches", str(report.matches)),
    ]
    width = max(len(name) for name, _ in rows)
    return "\n".join(f"{name:<{width}}  {value}" for name, value in rows)


def report_json(report: MotReport) -> str:
    return json.dumps(asdict(report), indent=2, sort_keys=True)
