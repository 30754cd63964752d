"""Per-object point extraction.

Each admitted detection gets the cloud points inside its box, expressed
in the box-local frame (center at origin, yaw removed): its crop, a
float64 (n, 3) array of at most CROP_POINTS points.  A box with more interior points is thinned to
CROP_POINTS by seeded uniform sampling without replacement, keeping
source order.  The draw depends only on (frame index, slot), so a crop
is a function of its frame alone: train and track cut the same crops.

All of a frame's boxes are cropped in one pass.  The cloud is sorted by
x once, and each box takes as candidates the points of its xy window:
those whose x and whose y each lie within its footprint's half-diagonal
(plus a small margin) of its center.  Each box's x-strip is cut from the
sorted cloud, and the points of the strip outside the window in y are
dropped before anything is mapped.  The windows of all boxes are laid
end to end, each in source order, with each candidate's box parameters
beside it.  Every candidate is mapped to its box's frame and put through
the closed-box test at once, on coordinate columns, by the same
formulas, with the same rounding, as geometry.to_box_frame and
geometry.local_inside.  A window is a superset of its box's interior,
so the crops are the same as testing the whole cloud against every box,
and a point inside several boxes lands in each of their crops.  Only
the seeded thinning runs box by box.
"""

from __future__ import annotations

import math

import numpy as np

from .geometry import Frame, OrientedBox3, _box_frame_columns, _inside_columns

CROP_POINTS = 128

_MASK64 = (1 << 64) - 1

# Relative slack on a box's xy window.  It absorbs the rounding of the
# rotation and of the center subtraction, which scales with the center's
# |x| or |y|.
_WINDOW_MARGIN = 1e-6


def _mix64(x: int) -> int:
    """SplitMix64 finalizer; a stable 64-bit avalanche."""
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def slot_seed(seed: int, frame_index: int, slot: int) -> int:
    """Derive a per-object seed from a stream seed, frame, and slot.

    Crops thin with slot_seed(0, frame, slot); synth salts its own stream.
    """
    h = _mix64(seed & _MASK64)
    h = _mix64(h ^ (frame_index & _MASK64))
    h = _mix64(h ^ (slot & _MASK64))
    return h


def _reach(box: OrientedBox3, axis: int) -> float:
    """Half-width of a window along axis (0 is x, 1 is y) around box.center
    that holds its interior."""
    half_diagonal = math.hypot(box.length, box.width) / 2.0
    return half_diagonal + _WINDOW_MARGIN * (half_diagonal + abs(box.center[axis]))


def crop_frame(frame: Frame) -> tuple[np.ndarray, ...]:
    """Crop every detection of an admitted frame, in detection order.

    All boxes are cropped in one pass: each box's candidates are the points
    of its x-window in the x-sorted cloud whose y also lies in its window,
    taken in source order, and every candidate is mapped to its box's frame
    and tested against the closed box at once.  A window is a superset of
    its box's interior, so every crop equals the one cropped from the whole
    cloud; a crop with more than CROP_POINTS points is then thinned with
    its slot's seed.  Each crop is a float64 (n, 3) array.
    """
    boxes = [det.box for det in frame.detections]
    if not boxes:
        return ()
    points = frame.points
    n = len(points)
    order = np.argsort(points[:, 0])
    xs = points[order, 0]
    # per box: center, yaw cosine and sine, half extents
    params = np.array(
        [
            (
                *box.center.tolist(),
                math.cos(box.yaw),
                math.sin(box.yaw),
                *box.half_extents.tolist(),
            )
            for box in boxes
        ]
    ).T
    x_reach = np.array([_reach(box, 0) for box in boxes])
    lo = np.searchsorted(xs, params[0] - x_reach, side="left")
    lengths = np.searchsorted(xs, params[0] + x_reach, side="right") - lo

    # every box's x-strip, one after another, cut down to its xy window
    slots = np.repeat(np.arange(len(boxes)), lengths)
    first = np.cumsum(lengths) - lengths
    window = order[np.arange(len(slots)) - np.repeat(first - lo, lengths)]
    y_reach = np.array([_reach(box, 1) for box in boxes])
    near = np.abs(points[window, 1] - params[1, slots]) <= y_reach[slots]
    slots, window = slots[near], window[near]

    # with its box's parameters beside each candidate; sorting
    # slot * n + index leaves each window in place and puts its points
    # in source order
    base = slots * n
    candidates = np.sort(base + window) - base
    params = params[:, slots]
    columns = np.take(np.ascontiguousarray(points.T), candidates, axis=1)
    local = _box_frame_columns(columns, params[:3], params[3], params[4])
    inside = _inside_columns(local, params[5:])
    kept = np.stack([column[inside] for column in local], axis=1)

    ends = np.cumsum(np.bincount(slots[inside], minlength=len(boxes))).tolist()
    crops = []
    for slot, (start, stop) in enumerate(zip([0, *ends], ends)):
        crop = kept[start:stop]
        if len(crop) > CROP_POINTS:
            rng = np.random.default_rng(slot_seed(0, frame.index, slot))
            crop = crop[np.sort(rng.permutation(len(crop))[:CROP_POINTS])]
        crops.append(crop)
    return tuple(crops)
