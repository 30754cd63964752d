"""Finite-difference verification of the analytic loss gradients.

The loss is a closed-form function of the raw augmented score matrices,
so every claimed derivative can be checked against central differences.
The checker builds random frame-pair instances (random scores, random
partial identity overlap), compares loss_gradients against finite
differences entry by entry, and reports the worst relative error.

The relative error uses a small floor in the denominator: near-zero
entries are dominated by cancellation noise in the differences (about
1e-10 at h=1e-5), so they are held to a tight absolute bound instead of
a meaningless ratio.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .affinity import normalize_pair
from .losses import GroundTruthAssignment, build_gt, loss_from_raw, loss_gradients

DEFAULT_STEP = 1e-5
DEFAULT_TOLERANCE = 1e-4
_REL_FLOOR = 1e-3


@dataclass(frozen=True)
class LosscheckReport:
    lines: tuple[str, ...]
    trials: int
    failures: int
    max_rel_err: float

    @property
    def ok(self) -> bool:
        return self.failures == 0 and self.trials > 0


def random_ids(rng: np.random.Generator, n_prev: int, n_cur: int) -> tuple[list, list]:
    """Random partial bijection: some ids persist, the rest churn."""
    matched = int(rng.integers(0, min(n_prev, n_cur) + 1))
    prev_ids = list(range(matched)) + [100 + k for k in range(n_prev - matched)]
    cur_ids = list(range(matched)) + [200 + k for k in range(n_cur - matched)]
    rng.shuffle(prev_ids)
    rng.shuffle(cur_ids)
    return prev_ids, cur_ids


def random_instance(rng: np.random.Generator, max_count: int = 8):
    """Random raw score matrices plus a consistent ground truth.

    Both object counts are drawn from 1..max_count.  Scores are drawn at
    the full max_count x max_count size and then cut to the counts, so a
    given seed yields the same random stream whatever counts come out.
    """
    n_prev = int(rng.integers(1, max_count + 1))
    n_cur = int(rng.integers(1, max_count + 1))
    gt = build_gt(*random_ids(rng, n_prev, n_cur))
    dummy = float(rng.normal())
    m = rng.normal(size=(max_count, max_count))
    noise = rng.normal(size=m.shape) * 0.5
    m1 = np.empty((n_prev, n_cur + 1))
    m1[:, :n_cur] = m[:n_prev, :n_cur]
    m1[:, n_cur] = dummy
    m2 = np.empty((n_prev + 1, n_cur))
    m2[:n_prev, :] = (m + noise)[:n_prev, :n_cur]
    m2[n_prev, :] = dummy
    return m1, m2, gt, dummy


def relative_error(analytic: float, numeric: float) -> float:
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), _REL_FLOOR)


def identity_errors(gt: GroundTruthAssignment) -> tuple[float, float]:
    """Loss identities for one ground truth: sharp and uniform errors.

    Sharp scores (one decisive logit at every true cell) must drive the
    total loss to zero; all-equal scores must pin the forward term to
    ln(count_cur + 1) and the backward term to ln(count_prev + 1).
    """
    cp, cc = gt.g3.shape
    sharp1 = np.where(gt.g1 > 0.5, 80.0, 0.0)
    sharp2 = np.where(gt.g2 > 0.5, 80.0, 0.0)
    sharp_err = abs(loss_from_raw(sharp1, sharp2, gt).total)
    flat = loss_from_raw(np.zeros(gt.g1.shape), np.zeros(gt.g2.shape), gt)
    uniform_err = max(
        abs(flat.l_f - (np.log(cc + 1.0) if cp else 0.0)),
        abs(flat.l_b - (np.log(cp + 1.0) if cc else 0.0)),
    )
    return float(sharp_err), float(uniform_err)


def fd_gradient_check(
    m1: np.ndarray, m2: np.ndarray, gt: GroundTruthAssignment
) -> float:
    """Worst relative error of the analytic gradient over every entry.

    Central differences of step DEFAULT_STEP check each m1 and m2 entry
    independently, then the dummy score (which moves the last column of
    m1 and last row of m2 together).
    """
    grads = loss_gradients(*normalize_pair(m1, m2), gt)
    cp, cc = gt.g3.shape
    step = DEFAULT_STEP

    def total(a, b):
        return loss_from_raw(a, b, gt).total

    worst = 0.0
    for mat, d_mat, other, first in ((m1, grads.d_m1, m2, True), (m2, grads.d_m2, m1, False)):
        it = np.nditer(mat, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            bumped = mat.copy()
            bumped[idx] = mat[idx] + step
            hi = total(bumped, other) if first else total(other, bumped)
            bumped[idx] = mat[idx] - step
            lo = total(bumped, other) if first else total(other, bumped)
            fd = (hi - lo) / (2.0 * step)
            worst = max(worst, relative_error(float(d_mat[idx]), fd))

    def with_dummy(value):
        a, b = m1.copy(), m2.copy()
        a[:, cc] = value
        b[cp, :] = value
        return total(a, b)

    base = float(m1[0, cc])
    fd = (with_dummy(base + step) - with_dummy(base - step)) / (2.0 * step)
    worst = max(worst, relative_error(grads.d_dummy, fd))
    return worst


def run_losscheck(trials: int, seed: int = 0) -> LosscheckReport:
    """Run the randomized gradient check over trials random instances.

    A trial passes when fd_gradient_check stays under DEFAULT_TOLERANCE
    and both loss identities hold.
    """
    if trials < 1:
        raise ValueError("trials must be >= 1")
    rng = np.random.default_rng(seed)
    lines = []
    failures = 0
    worst_overall = 0.0
    for trial in range(trials):
        m1, m2, gt, _ = random_instance(rng)
        worst = fd_gradient_check(m1, m2, gt)
        sharp_err, uniform_err = identity_errors(gt)
        ok = worst < DEFAULT_TOLERANCE and sharp_err < 1e-12 and uniform_err < 1e-9
        failures += 0 if ok else 1
        worst_overall = max(worst_overall, worst)
        lines.append(
            f"trial {trial}: counts={gt.g3.shape} max_rel_err={worst:.3e} "
            f"sharp_err={sharp_err:.1e} uniform_err={uniform_err:.1e} "
            f"{'ok' if ok else 'FAIL'}"
        )
    lines.append(
        f"losscheck: {trials - failures}/{trials} trials passed "
        f"(worst rel err {worst_overall:.3e}, step {DEFAULT_STEP:g})"
    )
    return LosscheckReport(tuple(lines), trials, failures, worst_overall)
