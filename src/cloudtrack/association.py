"""Track linking: fuse affinities into scores, assign optimally, grow tracks.

The tracker keeps one table of live tracks (LiveTracks): arrays with one
entry per live track, holding its id, its feature row projected through
the previous half of the affinity head's first layer, its box center in
xy and the frame it was last seen at.  Every frame, the first included,
takes the same path against it.  A motion gate first marks which
previous/current pairs are within reach: the xy distance between their
box centers is at most GATE_RADIUS_M per frame of that row's gap.  Only
those pairs are scored by the affinity head; the others get exactly
zero.  The trimmed forward/backward matrices are averaged into a score
matrix whose extra column holds the leave probability.  A previous/
current pair may link only when its score beats both that leave
probability and the birth threshold, so a gated-out pair never links;
among all ways to keep such pairs, the matching with the highest total
score wins (matching.match: exact over the gated pairs alone, so it
equals the brute-force optimum over gated partial matchings).  The
matching stays two index arrays (rows, cols), the matched previous and
current slots: a matched current slot continues its row's id, unmatched
current slots open new tracks in slot order, and unmatched previous
slots end theirs; against the empty table of frame 0 every object is a
birth.  Each frame's TrackRows are its output: writing them reads no
frame.

Frames reach the tracker as featurized windows (featurized_windows):
frames are loaded, admitted and cropped one at a time, and each window
of up to WINDOW_DETECTIONS detections is featurized in one call
(pointnet.featurize_frame).  A window keeps each frame's index and
detections, never its points.  The trainer reads the same windows.  The
tracker projects each window's features through both halves of the
head's first layer in one call (affinity.project), then gates, scores,
assigns and updates its frames in order, so each detection is
featurized and projected once, as a current object, and its previous
half waits in the table.  update_tracks takes a frame's index and
detections, not a Frame.  A feature row does not depend on its window:
the featurizer computes each crop alike in any batch (see pointnet).  A
projection's last bits depend on the other rows of its window, as BLAS
rounds a row differently in products of other sizes; the decisions do
not, unless a score sits within float32 rounding of a bar.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .affinity import augment_and_softmax, project, score_projected
from .cropping import crop_frame
from .geometry import Detection
from .matching import match
from .model import AffinityModel
from .pointnet import PointNetWeights, featurize_frame
from .sequence_io import SequenceSource, load_admitted_frame, write_tracks_file

DEFAULT_BIRTH_THRESHOLD = 0.3
# Motion gate reach in metres per frame of gap.  synth objects move at
# most 0.2 m per frame, and box-center noise of sigma 0.05 m (perturb's
# det_noise_sigma as the benchmark sets it) adds a few tenths at most, so
# true pairs sit well inside it; 0.5 to 10 m tracked identically on
# dense and noisy scenes, 30 m began to link far pairs.
GATE_RADIUS_M = 1.0


@dataclass(frozen=True)
class TrackerConfig:
    birth_threshold: float = DEFAULT_BIRTH_THRESHOLD

    def __post_init__(self):
        if not 0.0 <= self.birth_threshold <= 1.0:
            raise ValueError("birth_threshold must be in [0, 1]")


class TrackRow(NamedTuple):
    """One output row: track_id's admitted detection at frame."""

    frame: int
    track_id: int
    detection: Detection


@dataclass(frozen=True, eq=False)
class LiveTracks:
    """The live tracks: the previous side of the next assignment.

    Slot i is one live track in every array: ids[i] is its track id
    (int64).  projected[i] is its feature row through the previous half
    of the head's first layer (affinity.project), computed once, in the
    window its frame was featurized in; xy[i] is its box center in x and
    y and frames[i] the frame it was last seen at, the arrays the motion
    gate reads.  next_id is the id the next birth takes.
    """

    projected: np.ndarray
    ids: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))
    next_id: int = 0
    xy: np.ndarray = field(default_factory=lambda: np.empty((0, 2)))
    frames: np.ndarray = field(default_factory=lambda: np.empty(0, dtype=np.int64))

    def __post_init__(self):
        n = len(self.ids)
        if (len(self.projected), self.xy.shape, self.frames.shape) != (n, (n, 2), (n,)):
            raise ValueError(
                f"{n} ids with {len(self.projected)} projections, centers "
                f"{self.xy.shape} and frames {self.frames.shape}"
            )


def score_matrix(a1: np.ndarray, a2: np.ndarray) -> np.ndarray:
    """count_prev x (count_cur + 1): fused real scores plus leave column.

    a1 and a2 are the head's forward and backward softmaxes.  The real
    block averages them; the last column is A1's leave probability.
    """
    cp, cc = a1.shape[0], a2.shape[1]
    s = np.empty((cp, cc + 1))
    s[:, :cc] = (a1[:, :cc] + a2[:cp, :]) / 2.0
    s[:, cc] = a1[:, cc]
    return s


def solve_assignment(
    s: np.ndarray, birth_threshold: float = DEFAULT_BIRTH_THRESHOLD
) -> tuple[np.ndarray, np.ndarray]:
    """Best gated assignment for one score matrix, as (rows, cols).

    rows[k] is the previous slot matched to current slot cols[k]; every
    other slot is unmatched (a death or a birth).  A pair is eligible
    only when its score strictly beats both the row's leave score and
    the birth threshold.  Only eligible pairs are edges of the matching,
    whose total is the best achievable over all gate-respecting partial
    matchings.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[1] < 1:
        raise ValueError(f"score matrix must be (n_prev, n_cur + 1), got {s.shape}")
    if not np.isfinite(s).all():
        raise ValueError("non-finite score")
    if not 0.0 <= birth_threshold <= 1.0:
        raise ValueError("birth_threshold must be in [0, 1]")
    cc = s.shape[1] - 1
    real = s[:, :cc]
    gate = (real > s[:, cc:]) & (real > birth_threshold)
    return match(real, gate)


def motion_gate(prev_centers, cur_centers, frame_gaps) -> np.ndarray:
    """cp x cc: True where two box centers lie within reach in xy.

    Centers are xy pairs or xyz triples; z is ignored.  frame_gaps holds
    one gap per previous center; that row reaches GATE_RADIUS_M per frame
    of its gap, inclusive.
    """
    prev_xy = np.asarray(prev_centers, dtype=np.float64)[..., :2].reshape(-1, 2)
    cur_xy = np.asarray(cur_centers, dtype=np.float64)[..., :2].reshape(-1, 2)
    reach = GATE_RADIUS_M * np.reshape(frame_gaps, (len(prev_xy), 1))
    dx = prev_xy[:, :1] - cur_xy[:, 0]
    dy = prev_xy[:, 1:] - cur_xy[:, 1]
    return np.hypot(dx, dy) <= reach


def centers_xy(detections) -> np.ndarray:
    """n x 2 float64: each detection's box center in x and y."""
    centers = np.array([d.box.center for d in detections], dtype=np.float64)
    return centers.reshape(-1, 3)[:, :2]


def update_tracks(
    live: LiveTracks, frame_index: int, detections, rows, cols, projected, xy
) -> tuple[LiveTracks, tuple]:
    """Extend matched tracks, open tracks for births; deaths just stop.

    rows and cols are a matching, as solve_assignment returns it: current
    slot cols[k] continues the track of previous slot rows[k].  Unmatched
    current slots are births and take fresh ids from live.next_id in slot
    order; unmatched previous slots end.  detections are frame
    frame_index's admitted detections, and projected and xy hold their
    previous half projections and centers_xy rows.  Returns (the new
    table, the frame's TrackRows in slot order); live is left unchanged.
    """
    cp, cc = len(live.ids), len(detections)
    rows, cols = np.asarray(rows, dtype=np.intp), np.asarray(cols, dtype=np.intp)
    prev, cur = set(rows.tolist()), set(cols.tolist())
    if not (len(rows) == len(cols) == len(prev) == len(cur)
            and prev <= set(range(cp)) and cur <= set(range(cc))):
        raise ValueError(
            f"rows {rows.tolist()} and cols {cols.tolist()} are not a matching "
            f"of the {cp} previous and {cc} current slots of frame {frame_index}"
        )
    if len(projected) != cc:
        raise ValueError(f"{len(projected)} projected rows for {cc} detections")
    ids = np.empty(cc, dtype=np.int64)
    ids[cols] = live.ids[rows]
    born = np.ones(cc, dtype=bool)
    born[cols] = False
    births = cc - len(cols)
    ids[born] = live.next_id + np.arange(births)
    out = tuple(
        TrackRow(frame_index, track_id, d)
        for track_id, d in zip(ids.tolist(), detections)
    )
    frames = np.full(cc, frame_index, dtype=np.int64)
    return LiveTracks(projected, ids, live.next_id + births, xy, frames), out


# Admitted detections per window.  Frames are loaded and cropped one at a
# time until the next one would take the window past this many
# detections; then the window's crops are featurized in one call and, in
# the tracker, their features go through the head's first layer as one
# product pair (affinity.project).  A frame of at least this many
# detections shares its window with empty frames only.  A product costs
# about the same from a few rows to a few dozen: project at the default
# widths took a median 490 us for 5 rows, 560 for 16, 870 for 64 and 2480
# for 128 (2-core box, threaded OpenBLAS 0.3.31), so 64 rows cost the
# least per row.  The featurizer's chunks of a few crops bound its
# scratch at any window size.
WINDOW_DETECTIONS = 64


def featurized_windows(src: SequenceSource, pointnet: PointNetWeights):
    """Yield the sequence's windows of frames as (frames, features).

    Frames are loaded, admitted and cropped one at a time.  When the next
    frame would take the window past WINDOW_DETECTIONS detections, the
    window's crops are featurized in one featurize_frame call and the
    window is yielded.  frames holds each of its frames' (index,
    detections), in order, and never their points; features holds one
    float32 row per detection, in frame then slot order.
    """
    frames, crops = [], []
    for index in range(src.frame_count):
        frame = load_admitted_frame(src, index)
        frame_crops, detections = crop_frame(frame), frame.detections
        del frame  # a window keeps no frame's points
        # after this frame's crop, not before it: between its load and its
        # crop, the association ran dense80 about 5% slower (16 of 20
        # in-process rounds)
        if frames and len(crops) + len(frame_crops) > WINDOW_DETECTIONS:
            yield tuple(frames), featurize_frame(crops, pointnet)
            frames, crops = [], []
        frames.append((index, detections))
        crops.extend(frame_crops)
    if frames:
        yield tuple(frames), featurize_frame(crops, pointnet)


def track_sequence(
    src: SequenceSource, model: AffinityModel, cfg: TrackerConfig = TrackerConfig()
) -> tuple:
    """Run the full pipeline over consecutive frames of a sequence.

    Returns every TrackRow, frame by frame.  The previous side starts as
    an empty table, so frame 0 takes the same path as every later frame
    and all its objects are births.  Each window of featurized_windows
    is projected in one call; then its frames are gated, scored,
    assigned and updated in order.
    """
    net = model.compression
    live = LiveTracks(np.zeros((0, net.widths[1]), dtype=np.float32))
    out = []
    for frames, features in featurized_windows(src, model.pointnet):
        as_prev, as_cur = project(features, net)
        start = 0
        for index, detections in frames:
            stop = start + len(detections)
            xy = centers_xy(detections)
            eligible = motion_gate(live.xy, xy, index - live.frames)
            m = score_projected(live.projected, as_cur[start:stop], net, eligible)
            a1, a2 = augment_and_softmax(m, model.dummy_score)
            rows, cols = solve_assignment(score_matrix(a1, a2), cfg.birth_threshold)
            live, frame_rows = update_tracks(
                live, index, detections, rows, cols, as_prev[start:stop], xy
            )
            out.extend(frame_rows)
            start = stop
    return tuple(out)


def write_tracks_csv(path, rows) -> None:
    """TrackRows as a track CSV, sorted by frame then track id."""
    write_tracks_file(
        path,
        ((r.frame, r.track_id, r.detection.box, r.detection.confidence) for r in rows),
    )
