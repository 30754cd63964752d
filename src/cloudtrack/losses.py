"""Association losses and their analytic gradients.

Both loss functions read the affinity head's output as it comes: the
pair (A1, A2), A1 the row softmax of the cp x (cc+1) matrix M1 (dummy
column last), A2 the column softmax of the (cp+1) x cc matrix M2 (dummy
row last).  The ground truth is one cp x cc match matrix G3; the forward
target G1 (G3 plus a leave column) and the backward target G2 (G3 plus
an enter row) are derived from it.  loss_breakdown gives four terms,
averaged into the training objective:

- forward loss: cross-entropy of A1 rows against G1 (where did each
  previous object go, dummy column = left),
- backward loss: cross-entropy of A2 columns against G2 (where did each
  current object come from, dummy row = entered),
- consistency loss: entry-wise L1 gap between the trimmed forward and
  backward matrices,
- assemble loss: cross-entropy against the element-wise max of the two
  trimmed matrices at true-match cells.

total = (l_f + l_b + l_c + l_a) / 4.

loss_gradients takes the same pair and returns the gradients with
respect to the raw matrices M1 and M2, and the shared dummy score,
through the row and column softmax.  Ties in the consistency term use
the sign(0) = 0 subgradient; ties in the assemble max route the
gradient to the backward matrix.

Both also take a stack of frame pairs, as the trainer hands them one
batch: A1, A2 and the targets (stack_gt) gain a leading batch axis and
are padded to the batch's largest cp and cc, each pair's block at the
bottom right, against the dummy column and row (stack_masks).  A padded
score is -inf, so A1 and A2 are exactly 0 there, and a padded target is
0, so padding counts in no term and gets exactly zero gradient; the
terms and d_dummy then hold one entry per pair.  Every sum adds in index
order, and the padding adds only exact zeros to a pair's sums, so each
pair's terms and gradients are its own call's bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import column_sums, normalize_pair, row_sums


@dataclass(frozen=True, eq=False)
class GroundTruthAssignment:
    """Zero/one association targets for one frame pair, from its matches.

    g3 is the cp x cc real-match matrix, at most one 1 in each row and
    each column.  g1 = [g3 | leave column] and g2 = [g3 ; enter row] are
    derived from it: every g1 row and every g2 column sums to exactly one.
    """

    g3: np.ndarray
    g1: np.ndarray = field(init=False, repr=False)
    g2: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        g3 = np.asarray(self.g3, dtype=np.float64)
        if g3.ndim != 2:
            raise ValueError(f"g3 must be 2-D, got {g3.shape}")
        if np.any(g3 * (1.0 - g3)):
            raise ValueError("g3 must be zero/one")
        leave, enter = 1.0 - g3.sum(axis=1), 1.0 - g3.sum(axis=0)
        if np.any(leave < 0):
            raise ValueError("a g3 row has more than one match")
        if np.any(enter < 0):
            raise ValueError("a g3 column has more than one match")
        object.__setattr__(self, "g3", g3)
        object.__setattr__(self, "g1", np.column_stack([g3, leave]))
        object.__setattr__(self, "g2", np.vstack([g3, enter]))


@dataclass(frozen=True, eq=False)
class BatchTargets:
    """The targets of a batch of frame pairs, as one padded stack (stack_gt).

    g1 and g2 stack the pairs' own with a leading batch axis, padded to
    the batch's largest cp and cc as stack_masks lays out, and
    zero in the padding.  sizes holds each pair's (cp, cc); real_rows and
    real_cols mark the rows and columns each pair fills.
    """

    g1: np.ndarray
    g2: np.ndarray
    sizes: np.ndarray
    real_rows: np.ndarray
    real_cols: np.ndarray

    @property
    def g3(self) -> np.ndarray:
        return self.g2[:, :-1]

    @property
    def cells(self) -> np.ndarray:
        """The score cells (pair, row, column) each pair fills."""
        return self.real_rows[:, :, None] & self.real_cols[:, None, :]


@dataclass(frozen=True)
class LossBreakdown:
    """The four loss terms; for a stack, each holds one entry per pair."""

    l_f: float
    l_b: float
    l_c: float
    l_a: float

    def __post_init__(self):
        if np.any(np.array((self.l_f, self.l_b, self.l_c, self.l_a)) < 0):
            raise ValueError("loss terms must be non-negative")

    @property
    def total(self) -> float:
        return (self.l_f + self.l_b + self.l_c + self.l_a) / 4.0


@dataclass(frozen=True, eq=False)
class LossGradients:
    """d(total)/dM1, d(total)/dM2, d(total)/d(dummy_score).

    For a stack, d_dummy holds one entry per pair.
    """

    d_m1: np.ndarray
    d_m2: np.ndarray
    d_dummy: float


def build_gt(prev_ids, cur_ids) -> GroundTruthAssignment:
    """Association targets from the true identities of two frames' objects.

    An id of None marks an object with no identity (a false detection):
    it leaves on the previous side, enters on the current side, and never
    matches anything, another None included.
    """
    prev_ids, cur_ids = list(prev_ids), list(cur_ids)
    for side, ids in (("previous", prev_ids), ("current", cur_ids)):
        known = [gid for gid in ids if gid is not None]
        if len(set(known)) != len(known):
            raise ValueError(f"duplicate gt_id in {side} frame")
    g3 = np.zeros((len(prev_ids), len(cur_ids)))
    cur_slot = {gid: j for j, gid in enumerate(cur_ids) if gid is not None}
    for i, gid in enumerate(prev_ids):
        j = cur_slot.get(gid)
        if j is not None:
            g3[i, j] = 1.0
    return GroundTruthAssignment(g3)


def stack_masks(sizes) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols): the rows and columns each sample fills in a padded stack.

    sizes holds each sample's (cp, cc).  The stack is as large as its
    largest sample.  Each sample's block sits at the stack's bottom
    right, against the dummy row and column, and padding fills the top
    and the left: sample s fills the last cp of its previous-side rows
    (rows[s]) and the last cc of its current-side columns (cols[s]).
    """
    sizes = np.asarray(sizes, dtype=np.int64).reshape(-1, 2)
    cp, cc = sizes.max(axis=0, initial=0).tolist()
    # a slot is filled when its distance from the far edge is below the size
    width = max(cp, cc)
    filled = np.arange(width)[::-1] < sizes[:, :, None]
    return filled[:, 0, width - cp:], filled[:, 1, width - cc:]


def stack_gt(gts) -> BatchTargets:
    """The targets of several frame pairs as one stack, padded with zeros.

    Each pair was checked when it was built, so the stack is laid out
    from the pairs' own g1 and g2 and not checked again.  The pairs'
    blocks, dummy column and row included, fill the stack's bottom right.
    """
    sizes = np.array([gt.g3.shape for gt in gts], dtype=np.int64).reshape(-1, 2)
    rows, cols = stack_masks(sizes)
    dummy = np.ones((len(sizes), 1), dtype=bool)
    targets = []
    for name, r, c in (("g1", rows, np.hstack([cols, dummy])),
                       ("g2", np.hstack([rows, dummy]), cols)):
        stacked = np.zeros((len(sizes), r.shape[1], c.shape[1]))
        stacked[r[:, :, None] & c[:, None, :]] = np.concatenate(
            [getattr(gt, name).ravel() for gt in gts]
        )
        targets.append(stacked)
    return BatchTargets(*targets, sizes, rows, cols)


def _checked(a1, a2, gt: GroundTruthAssignment | BatchTargets):
    """(a1, a2) as float arrays, checked against the targets' shapes."""
    a1 = np.asarray(a1, dtype=np.float64)
    a2 = np.asarray(a2, dtype=np.float64)
    if a1.shape != gt.g1.shape or a2.shape != gt.g2.shape:
        raise ValueError(
            f"a1/a2 shapes {a1.shape}, {a2.shape} do not fit ground truth {gt.g3.shape}"
        )
    return a1, a2


def _ordered_sums(x: np.ndarray) -> np.ndarray:
    """x summed over its last axis in index order, zero where that axis is empty."""
    if not x.shape[-1]:
        return x.sum(axis=-1)
    return np.add.accumulate(x, axis=-1).take(-1, axis=-1)


def loss_breakdown(
    a1: np.ndarray, a2: np.ndarray, gt: GroundTruthAssignment | BatchTargets
) -> LossBreakdown:
    """All four terms for one frame pair, from the head's (A1, A2).

    For a stack, each term holds one entry per pair, that pair's own.
    """
    a1, a2 = _checked(a1, a2, gt)
    g1, g2, g3 = gt.g1, gt.g2, gt.g3
    cp, cc = g3.shape[-2:]
    a1t, a2t = a1[..., :cc], a2[..., :cp, :]
    # the cross-entropy terms' true cells: one per previous object, one
    # per current object, one per match; a zero probability at a true
    # cell honestly yields an infinite loss
    with np.errstate(divide="ignore"):
        logs = [
            np.log(a, out=np.zeros_like(a), where=g > 0.5)
            for a, g in ((a1, g1), (a2, g2), (np.maximum(a2t, a1t), g3))
        ]
    sums = [
        _ordered_sums(x.reshape(*x.shape[:-2], -1)) for x in (*logs, np.abs(a1t - a2t))
    ]
    # a cross-entropy term is minus the mean log over its true cells, zero
    # if there are none; the consistency term is the plain sum
    l_f, l_b, l_a = (
        -total / np.maximum(g.sum(axis=(-2, -1)), 1.0)
        for total, g in zip(sums, (g1, g2, g3))
    )
    return LossBreakdown(l_f, l_b, sums[3], l_a)


def loss_from_raw(
    m1: np.ndarray, m2: np.ndarray, gt: GroundTruthAssignment | BatchTargets
) -> LossBreakdown:
    """Losses straight from raw augmented score matrices (gradient-check path)."""
    return loss_breakdown(*normalize_pair(m1, m2), gt)


def loss_gradients(
    a1: np.ndarray, a2: np.ndarray, gt: GroundTruthAssignment | BatchTargets
) -> LossGradients:
    """Analytic d(total)/dM1, d(total)/dM2 and the dummy-score gradient.

    a1 and a2 are the row softmax of M1 and the column softmax of M2
    (the head's output, or normalize_pair's).  The dummy gradient sums
    over M1's last column and M2's last row, the slots that all hold the
    one dummy score.  For a stack, d_dummy holds one entry per pair, and
    every padded cell of a pair with a finite gradient gets exactly zero.
    """
    a1, a2 = _checked(a1, a2, gt)
    g1, g2, g3 = gt.g1, gt.g2, gt.g3
    cp, cc = g3.shape[-2:]
    a1t, a2t = a1[..., :cc], a2[..., :cp, :]

    # forward and backward cross-entropy terms, over each pair's previous
    # and current objects
    d_a1, d_a2 = (
        np.divide(
            -1.0, 4.0 * g.sum(axis=(-2, -1), keepdims=True) * a,
            out=np.zeros_like(a), where=g > 0.5,
        )
        for a, g in ((a1, g1), (a2, g2))
    )

    # consistency term, sign(0) = 0 at ties
    quarter = np.sign(a1t - a2t) / 4.0
    d_a1[..., :cc] += quarter
    d_a2[..., :cp, :] -= quarter

    # assemble term, zero off the matches; at ties the backward matrix
    # carries the gradient
    weight = 4.0 * g3.sum(axis=(-2, -1), keepdims=True)
    best = np.maximum(a2t, a1t)
    coef = np.divide(-1.0, weight * best, out=np.zeros_like(best), where=g3 > 0.5)
    forward_wins = a1t > a2t
    np.add(d_a1[..., :cc], coef, out=d_a1[..., :cc], where=forward_wins)
    np.add(d_a2[..., :cp, :], coef, out=d_a2[..., :cp, :], where=~forward_wins)

    # softmax backward: rows of a1, columns of a2
    d_m1 = a1 * (d_a1 - row_sums(a1 * d_a1))
    d_m2 = a2 * (d_a2 - column_sums(a2 * d_a2))

    d_dummy = _ordered_sums(np.concatenate([d_m1[..., cc], d_m2[..., cp, :]], axis=-1))
    return LossGradients(d_m1, d_m2, d_dummy)
