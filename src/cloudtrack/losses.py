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
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .affinity import normalize_pair


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
        if not np.isin(g3, (0.0, 1.0)).all():
            raise ValueError("g3 must be zero/one")
        rows, cols = g3.sum(axis=1), g3.sum(axis=0)
        if np.any(rows > 1.0):
            raise ValueError("a g3 row has more than one match")
        if np.any(cols > 1.0):
            raise ValueError("a g3 column has more than one match")
        object.__setattr__(self, "g3", g3)
        object.__setattr__(self, "g1", np.column_stack([g3, 1.0 - rows]))
        object.__setattr__(self, "g2", np.vstack([g3, 1.0 - cols]))


@dataclass(frozen=True)
class LossBreakdown:
    l_f: float
    l_b: float
    l_c: float
    l_a: float

    def __post_init__(self):
        if any(p < 0 for p in (self.l_f, self.l_b, self.l_c, self.l_a)):
            raise ValueError("loss terms must be non-negative")

    @property
    def total(self) -> float:
        return (self.l_f + self.l_b + self.l_c + self.l_a) / 4.0


@dataclass(frozen=True, eq=False)
class LossGradients:
    """d(total)/dM1, d(total)/dM2, d(total)/d(dummy_score)."""

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


def _gated_cross_entropy(g: np.ndarray, p: np.ndarray) -> float:
    mask = g > 0.5
    total = float(mask.sum())
    if total == 0.0:
        return 0.0
    # a zero probability at a true cell honestly yields an infinite loss
    with np.errstate(divide="ignore"):
        return float(-np.log(p[mask]).sum() / total)


def _fitted(a1, a2, gt: GroundTruthAssignment) -> tuple[np.ndarray, np.ndarray]:
    """a1 and a2 as float arrays, checked against the ground truth's shapes."""
    a1 = np.asarray(a1, dtype=np.float64)
    a2 = np.asarray(a2, dtype=np.float64)
    cp, cc = gt.g3.shape
    if a1.shape != (cp, cc + 1) or a2.shape != (cp + 1, cc):
        raise ValueError(
            f"a1/a2 shapes {a1.shape}, {a2.shape} do not fit ground truth {(cp, cc)}"
        )
    return a1, a2


def loss_breakdown(
    a1: np.ndarray, a2: np.ndarray, gt: GroundTruthAssignment
) -> LossBreakdown:
    """All four terms for one frame pair, from the head's (A1, A2)."""
    a1, a2 = _fitted(a1, a2, gt)
    cp, cc = gt.g3.shape
    a1t, a2t = a1[:, :cc], a2[:cp, :]
    return LossBreakdown(
        _gated_cross_entropy(gt.g1, a1),
        _gated_cross_entropy(gt.g2, a2),
        float(np.abs(a1t - a2t).sum()),
        _gated_cross_entropy(gt.g3, np.maximum(a2t, a1t)),
    )


def loss_from_raw(
    m1: np.ndarray, m2: np.ndarray, gt: GroundTruthAssignment
) -> LossBreakdown:
    """Losses straight from raw augmented score matrices (gradient-check path)."""
    return loss_breakdown(*normalize_pair(m1, m2), gt)


def loss_gradients(
    a1: np.ndarray, a2: np.ndarray, gt: GroundTruthAssignment
) -> LossGradients:
    """Analytic d(total)/dM1, d(total)/dM2 and the dummy-score gradient.

    a1 and a2 are the row softmax of M1 and the column softmax of M2
    (the head's output, or normalize_pair's).  The dummy gradient sums
    over M1's last column and M2's last row, the slots that all hold the
    one dummy score.
    """
    a1, a2 = _fitted(a1, a2, gt)
    cp, cc = gt.g3.shape
    a1t, a2t = a1[:, :cc], a2[:cp, :]

    d_a1 = np.zeros_like(a1)
    d_a2 = np.zeros_like(a2)

    # forward and backward cross-entropy terms
    mask = gt.g1 > 0.5
    d_a1[mask] += -1.0 / (4.0 * gt.g1.sum() * a1[mask])
    mask = gt.g2 > 0.5
    d_a2[mask] += -1.0 / (4.0 * gt.g2.sum() * a2[mask])

    # consistency term, sign(0) = 0 at ties
    sgn = np.sign(a1t - a2t)
    d_a1[:, :cc] += sgn / 4.0
    d_a2[:cp, :] += -sgn / 4.0

    # assemble term; at ties the backward matrix carries the gradient
    mask = gt.g3 > 0.5
    best = np.maximum(a2t, a1t)
    coef = np.zeros_like(a1t)
    coef[mask] = -1.0 / (4.0 * gt.g3.sum() * best[mask])
    forward_wins = mask & (a1t > a2t)
    d_a1[:, :cc][forward_wins] += coef[forward_wins]
    backward_wins = mask & ~(a1t > a2t)
    d_a2[:cp, :][backward_wins] += coef[backward_wins]

    # softmax backward: rows of a1, columns of a2
    inner = (a1 * d_a1).sum(axis=1, keepdims=True)
    d_m1 = a1 * (d_a1 - inner)
    inner = (a2 * d_a2).sum(axis=0, keepdims=True)
    d_m2 = a2 * (d_a2 - inner)

    d_dummy = float(d_m1[:, cc].sum() + d_m2[cp, :].sum())
    return LossGradients(d_m1, d_m2, d_dummy)
