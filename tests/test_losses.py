"""Association losses, ground-truth construction, analytic gradients."""

import math

import numpy as np
import pytest

from cloudtrack.affinity import augment_and_softmax, normalize_pair
from cloudtrack.losses import (
    GroundTruthAssignment,
    LossBreakdown,
    build_gt,
    loss_breakdown,
    loss_from_raw,
    loss_gradients,
)
from cloudtrack.verification import fd_gradient_check, random_ids, random_instance


def random_gt(rng, n_prev, n_cur):
    return build_gt(*random_ids(rng, n_prev, n_cur))


class TestBuildGt:
    def test_identity_pair(self):
        gt = build_gt([5, 9], [5, 9])
        assert np.array_equal(gt.g3, np.eye(2))
        assert not np.any(gt.g1[:, 2])
        assert not np.any(gt.g2[2, :])

    def test_full_turnover(self):
        gt = build_gt([1], [2])
        assert not np.any(gt.g3)
        assert gt.g1[0, 1] == 1.0
        assert gt.g2[1, 0] == 1.0

    def test_empty_side(self):
        gt = build_gt([], [7, 8])
        assert gt.g1.shape == (0, 3) and gt.g3.shape == (0, 2)
        assert np.array_equal(gt.g2, [[1.0, 1.0]])
        gt = build_gt([7], [])
        assert np.array_equal(gt.g1, [[1.0]])
        assert gt.g2.shape == (2, 0)

    def test_permutation_oracle(self):
        rng = np.random.default_rng(301)
        for _ in range(20):
            ids = list(rng.permutation(60)[:6])
            perm = rng.permutation(6)
            cur_ids = [ids[k] for k in perm]
            gt = build_gt(ids, cur_ids)
            expected = np.zeros((6, 6))
            for i in range(6):
                for j in range(6):
                    if ids[i] == cur_ids[j]:
                        expected[i, j] = 1.0
            assert np.array_equal(gt.g3, expected)

    def test_missing_gt_id(self):
        # an unlabeled detection leaves on the previous side, enters on
        # the current side, and two of them never match each other
        gt = build_gt([1, None], [None, 1, None])
        assert np.array_equal(gt.g3, [[0.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        assert np.array_equal(gt.g1[:, 3], [0.0, 1.0])
        assert np.array_equal(gt.g2[2, :], [1.0, 0.0, 1.0])

    def test_duplicate_gt_id(self):
        with pytest.raises(ValueError, match="duplicate"):
            build_gt([3, 3], [3])
        with pytest.raises(ValueError, match="duplicate"):
            build_gt([3], [4, 4])
        build_gt([None, None], [None])


def perfect_affinity(gt, sharp=200.0):
    """Scores so peaked the softmax sits at the GT up to double rounding."""
    cp, cc = gt.g3.shape
    m = np.zeros((cp, cc))
    m[gt.g3 > 0.5] = sharp
    dummy = 0.0
    m1 = np.hstack([m, np.full((cp, 1), dummy)])
    m1[gt.g1[:, cc] > 0.5, cc] = sharp
    m2 = np.vstack([m, np.full((1, cc), dummy)])
    m2[cp, gt.g2[cp, :] > 0.5] = sharp
    return m1, m2


def augmented(m, dummy):
    """M1 and M2 of the cp x cc scores: the dummy as last column and last row."""
    cp, cc = m.shape
    m1 = np.hstack([m, np.full((cp, 1), dummy)])
    m2 = np.vstack([m, np.full((1, cc), dummy)])
    return m1, m2


class TestLossTerms:
    def test_perfect_forward_is_zero(self):
        rng = np.random.default_rng(302)
        gt = random_gt(rng, 4, 5)
        losses = loss_breakdown(*normalize_pair(*perfect_affinity(gt)), gt)
        assert losses.l_f < 1e-12
        assert losses.l_b < 1e-12
        assert losses.l_a < 1e-12

    def test_uniform_forward_is_log_101(self):
        a1, a2 = augment_and_softmax(np.zeros((1, 100)), 0.0)
        gt = build_gt([13], range(100))
        assert gt.g1[0, 13] == 1.0
        assert abs(loss_breakdown(a1, a2, gt).l_f - math.log(101.0)) < 1e-9

    def test_uniform_backward_is_log_101(self):
        a1, a2 = augment_and_softmax(np.zeros((100, 1)), 0.0)
        gt = build_gt(range(100), [42])
        assert gt.g2[42, 0] == 1.0
        assert abs(loss_breakdown(a1, a2, gt).l_b - math.log(101.0)) < 1e-9

    def test_forward_double_loop_oracle(self):
        rng = np.random.default_rng(303)
        gt = random_gt(rng, 4, 4)
        m = rng.normal(size=(4, 4))
        a1, a2 = augment_and_softmax(m, 0.2)
        total = 0.0
        count = 0
        for i in range(4):
            for j in range(5):
                if gt.g1[i, j] > 0.5:
                    total += -math.log(a1[i, j])
                    count += 1
        assert abs(loss_breakdown(a1, a2, gt).l_f - total / count) < 1e-12

    def test_backward_transpose_symmetry(self):
        # transposing the problem swaps the forward and backward roles
        rng = np.random.default_rng(304)
        for _ in range(10):
            cp, cc = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            gt = random_gt(rng, cp, cc)
            a1 = rng.uniform(0.01, 1.0, size=(cp, cc + 1))
            a2 = rng.uniform(0.01, 1.0, size=(cp + 1, cc))
            mirrored = GroundTruthAssignment(gt.g3.T)
            assert np.array_equal(mirrored.g1, gt.g2.T)
            assert np.array_equal(mirrored.g2, gt.g1.T)
            got = loss_breakdown(a1, a2, gt)
            flipped = loss_breakdown(a2.T, a1.T, mirrored)
            assert abs(got.l_b - flipped.l_f) < 1e-12
            assert abs(got.l_f - flipped.l_b) < 1e-12
            assert abs(got.l_c - flipped.l_c) < 1e-12
            assert abs(got.l_a - flipped.l_a) < 1e-12

    def test_consistency_zero_and_single_entry(self):
        gt = build_gt([1, 2, 3], [1, 2, 3])
        a1 = np.full((3, 4), 0.2)
        a2 = np.full((4, 3), 0.2)
        assert loss_breakdown(a1, a2, gt).l_c == 0.0
        a1[1, 2] += 0.3
        assert abs(loss_breakdown(a1, a2, gt).l_c - 0.3) < 1e-12
        # the dummy column and row do not enter the consistency term
        a1[:, 3] = 0.9
        a2[3, :] = 0.01
        assert abs(loss_breakdown(a1, a2, gt).l_c - 0.3) < 1e-12

    def test_consistency_double_loop_oracle(self):
        rng = np.random.default_rng(305)
        x = rng.uniform(size=(6, 7))
        y = rng.uniform(size=(7, 6))
        oracle = sum(abs(x[i, j] - y[i, j]) for i in range(6) for j in range(6))
        gt = build_gt(range(6), range(6))
        assert abs(loss_breakdown(x, y, gt).l_c - oracle) < 1e-12

    def test_assemble_picks_the_larger(self):
        gt = build_gt([1, 2], [1, 3])
        assert gt.g3.sum() == 1.0 and gt.g3[0, 0] == 1.0
        a1 = np.full((2, 3), 0.1)
        a2 = np.full((3, 2), 0.1)
        a1[0, 0] = math.exp(-2.0)
        a2[0, 0] = math.exp(-1.0)
        assert abs(loss_breakdown(a1, a2, gt).l_a - 1.0) < 1e-12

    def test_assemble_double_loop_oracle(self):
        rng = np.random.default_rng(306)
        gt = random_gt(rng, 5, 5)
        a1 = rng.uniform(0.01, 1.0, size=(5, 6))
        a2 = rng.uniform(0.01, 1.0, size=(6, 5))
        cells = [
            -math.log(max(a1[i, j], a2[i, j]))
            for i in range(5)
            for j in range(5)
            if gt.g3[i, j] > 0.5
        ]
        expected = sum(cells) / len(cells) if cells else 0.0
        assert abs(loss_breakdown(a1, a2, gt).l_a - expected) < 1e-12

    def test_empty_gt_is_zero(self):
        # no true match leaves the assemble term empty; no previous
        # object leaves the forward term empty
        no_match = build_gt([1, 2, 3], [4, 5, 6])
        a1, a2 = np.full((3, 4), 0.5), np.full((4, 3), 0.5)
        assert loss_breakdown(a1, a2, no_match).l_a == 0.0
        no_prev = build_gt([], [4, 5, 6])
        assert loss_breakdown(np.zeros((0, 4)), np.full((1, 3), 0.5), no_prev).l_f == 0.0
        # the gradient's empty terms select no cell and add nothing
        grads = loss_gradients(a1, a2, no_match)
        assert np.isfinite(grads.d_m1).all() and np.isfinite(grads.d_m2).all()
        grads = loss_gradients(np.zeros((0, 4)), np.full((1, 3), 0.5), no_prev)
        assert grads.d_m1.shape == (0, 4) and np.isfinite(grads.d_m2).all()

    def test_loss_total(self):
        assert LossBreakdown(0.0, 0.0, 0.0, 0.0).total == 0.0
        assert LossBreakdown(4.0, 2.0, 1.0, 1.0).total == 2.0
        rng = np.random.default_rng(307)
        for _ in range(20):
            parts = rng.uniform(0, 5, size=4)
            got = LossBreakdown(*parts)
            assert abs(got.total - parts.mean()) < 1e-15
        with pytest.raises(ValueError, match="non-negative"):
            LossBreakdown(0.0, 0.0, -1e-9, 0.0)

    def test_shift_invariance_of_forward_loss(self):
        rng = np.random.default_rng(308)
        gt = random_gt(rng, 3, 4)
        m = rng.normal(size=(3, 4))
        a = loss_breakdown(*augment_and_softmax(m, 0.1), gt)
        b = loss_breakdown(*augment_and_softmax(m + 3.3, 0.1 + 3.3), gt)
        assert abs(a.l_f - b.l_f) < 1e-12

    def test_breakdown_matches_raw_path(self):
        rng = np.random.default_rng(309)
        gt = random_gt(rng, 4, 3)
        m = rng.normal(size=(4, 3))
        dummy = 0.25
        via_head = loss_breakdown(*augment_and_softmax(m, dummy), gt)
        via_raw = loss_from_raw(*augmented(m, dummy), gt)
        assert via_head == via_raw


class TestGradients:
    def test_matches_finite_differences(self):
        rng = np.random.default_rng(310)
        for _ in range(5):
            m1, m2, gt, _ = random_instance(rng, max_count=5)
            assert fd_gradient_check(m1, m2, gt) < 1e-4

    def test_tied_gradient_conventions_by_hand(self):
        # one object, constant scores: both trims equal 0.5 exactly, so
        # the consistency term uses sign(0) = 0 and the assemble max
        # routes its gradient to the backward matrix.  Hand arithmetic:
        # forward/backward cross-entropy each push -0.5 on their matched
        # probability, assemble pushes another -0.5 on the backward one,
        # and the two-entry softmax Jacobian halves and mirrors them.
        gt = GroundTruthAssignment(np.array([[1.0]]))
        grads = loss_gradients(*normalize_pair(np.zeros((1, 2)), np.zeros((2, 1))), gt)
        assert np.allclose(grads.d_m1, [[-0.125, 0.125]], atol=1e-15)
        assert np.allclose(grads.d_m2, [[-0.25], [0.25]], atol=1e-15)
        assert abs(grads.d_dummy - 0.375) < 1e-15

    def test_near_perfect_prediction_has_tiny_gradient(self):
        rng = np.random.default_rng(312)
        gt = random_gt(rng, 4, 4)
        m1, m2 = perfect_affinity(gt, sharp=60.0)
        grads = loss_gradients(*normalize_pair(m1, m2), gt)
        assert np.abs(grads.d_m1).max() < 1e-8
        assert np.abs(grads.d_m2).max() < 1e-8
        assert abs(grads.d_dummy) < 1e-8

    def test_rejects_shapes_that_do_not_fit_gt(self):
        rng = np.random.default_rng(314)
        m1, m2, gt, _ = random_instance(rng, max_count=4)
        a1, a2 = normalize_pair(m1, m2)
        for loss_fn in (loss_gradients, loss_breakdown):
            loss_fn(a1, a2, gt)
            with pytest.raises(ValueError, match="do not fit"):
                loss_fn(a1[:, :-1], a2[:, :-1], gt)
            with pytest.raises(ValueError, match="do not fit"):
                loss_fn(a1, a2[:-1], gt)
            with pytest.raises(ValueError, match="do not fit"):
                loss_fn(a2.T, a1.T, gt)

    def test_head_softmax_gives_the_raw_path_gradients(self):
        # the trainer hands in augment_and_softmax's (a1, a2) directly
        rng = np.random.default_rng(316)
        for _ in range(5):
            m1, m2, gt, dummy = random_instance(rng, max_count=5)
            cp, cc = gt.g3.shape
            head_m1, head_m2 = augmented(m1[:, :cc], dummy)
            via_head = loss_gradients(*augment_and_softmax(m1[:, :cc], dummy), gt)
            via_raw = loss_gradients(*normalize_pair(head_m1, head_m2), gt)
            assert np.array_equal(via_head.d_m1, via_raw.d_m1)
            assert np.array_equal(via_head.d_m2, via_raw.d_m2)
            assert via_head.d_dummy == via_raw.d_dummy
            assert fd_gradient_check(head_m1, head_m2, gt) < 1e-4


class TestGroundTruthType:
    def test_targets_derive_from_the_match_matrix(self):
        # over random identities, unlabeled ones and empty sides included,
        # every g1 row and g2 column sums to one and both trims equal g3
        rng = np.random.default_rng(320)
        draws = [random_ids(rng, int(rng.integers(0, 7)), int(rng.integers(0, 7)))
                 for _ in range(60)]
        for prev_ids, cur_ids in draws:
            for side in (prev_ids, cur_ids):
                for k in range(len(side)):
                    if rng.uniform() < 0.2:
                        side[k] = None
        draws += [([], []), ([], [4, None]), ([None, 4], [])]
        for prev_ids, cur_ids in draws:
            gt = build_gt(prev_ids, cur_ids)
            cp, cc = len(prev_ids), len(cur_ids)
            assert gt.g1.shape == (cp, cc + 1) and gt.g2.shape == (cp + 1, cc)
            assert np.array_equal(gt.g1.sum(axis=1), np.ones(cp))
            assert np.array_equal(gt.g2.sum(axis=0), np.ones(cc))
            assert np.array_equal(gt.g1[:, :cc], gt.g3)
            assert np.array_equal(gt.g2[:cp], gt.g3)
            rebuilt = GroundTruthAssignment(gt.g3)
            assert np.array_equal(rebuilt.g1, gt.g1)
            assert np.array_equal(rebuilt.g2, gt.g2)

    def test_rejects_row_sum_violation(self):
        # a previous object matched twice
        g3 = np.array([[1.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="row"):
            GroundTruthAssignment(g3)

    def test_rejects_inconsistent_g3(self):
        # a current object matched twice
        g3 = np.array([[1.0, 0.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="column"):
            GroundTruthAssignment(g3)

    def test_rejects_non_binary_entry(self):
        for value in (0.5, -1.0, 2.0, np.nan):
            g3 = np.zeros((2, 2))
            g3[0, 1] = value
            with pytest.raises(ValueError, match="zero/one"):
                GroundTruthAssignment(g3)
        with pytest.raises(ValueError, match="2-D"):
            GroundTruthAssignment(np.zeros(3))
