"""Association losses, ground-truth construction, analytic gradients."""

import math

import numpy as np
import pytest

from cloudtrack.affinity import augment_and_softmax, normalize_pair
from cloudtrack.losses import (
    GroundTruthAssignment,
    build_gt,
    loss_assemble,
    loss_backward,
    loss_breakdown,
    loss_consistency,
    loss_forward,
    loss_from_raw,
    loss_gradients,
    loss_total,
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


class TestLossTerms:
    def test_perfect_forward_is_zero(self):
        rng = np.random.default_rng(302)
        gt = random_gt(rng, 4, 5)
        m1, m2 = perfect_affinity(gt)
        a1, a2 = normalize_pair(m1, m2)
        assert loss_forward(gt.g1, a1) < 1e-12
        assert loss_backward(gt.g2, a2) < 1e-12
        assert loss_assemble(gt.g3, a1[:, :5], a2[:4, :]) < 1e-12

    def test_uniform_forward_is_log_101(self):
        aff = augment_and_softmax(np.zeros((1, 100)), 0.0)
        g1 = np.zeros((1, 101))
        g1[0, 13] = 1.0
        assert abs(loss_forward(g1, aff.a1) - math.log(101.0)) < 1e-9

    def test_uniform_backward_is_log_101(self):
        aff = augment_and_softmax(np.zeros((100, 1)), 0.0)
        g2 = np.zeros((101, 1))
        g2[42, 0] = 1.0
        assert abs(loss_backward(g2, aff.a2) - math.log(101.0)) < 1e-9

    def test_forward_double_loop_oracle(self):
        rng = np.random.default_rng(303)
        gt = random_gt(rng, 4, 4)
        m = rng.normal(size=(4, 4))
        aff = augment_and_softmax(m, 0.2)
        total = 0.0
        count = 0
        for i in range(4):
            for j in range(5):
                if gt.g1[i, j] > 0.5:
                    total += -math.log(aff.a1[i, j])
                    count += 1
        assert abs(loss_forward(gt.g1, aff.a1) - total / count) < 1e-12

    def test_backward_transpose_symmetry(self):
        rng = np.random.default_rng(304)
        for _ in range(10):
            g = (rng.uniform(size=(5, 4)) < 0.3).astype(float)
            a = rng.uniform(0.01, 1.0, size=(5, 4))
            assert abs(loss_backward(g, a) - loss_forward(g.T, a.T)) < 1e-12

    def test_consistency_zero_and_single_entry(self):
        a = np.full((3, 3), 0.2)
        assert loss_consistency(a, a) == 0.0
        b = a.copy()
        b[1, 2] += 0.3
        assert abs(loss_consistency(b, a) - 0.3) < 1e-12

    def test_consistency_double_loop_oracle(self):
        rng = np.random.default_rng(305)
        x = rng.uniform(size=(6, 6))
        y = rng.uniform(size=(6, 6))
        oracle = sum(abs(x[i, j] - y[i, j]) for i in range(6) for j in range(6))
        assert abs(loss_consistency(x, y) - oracle) < 1e-12

    def test_assemble_picks_the_larger(self):
        g3 = np.zeros((2, 2))
        g3[0, 0] = 1.0
        a1t = np.full((2, 2), 0.1)
        a2t = np.full((2, 2), 0.1)
        a1t[0, 0] = math.exp(-2.0)
        a2t[0, 0] = math.exp(-1.0)
        assert abs(loss_assemble(g3, a1t, a2t) - 1.0) < 1e-12

    def test_assemble_double_loop_oracle(self):
        rng = np.random.default_rng(306)
        g3 = (rng.uniform(size=(5, 5)) < 0.3).astype(float)
        a1t = rng.uniform(0.01, 1.0, size=(5, 5))
        a2t = rng.uniform(0.01, 1.0, size=(5, 5))
        cells = [
            -math.log(max(a1t[i, j], a2t[i, j]))
            for i in range(5)
            for j in range(5)
            if g3[i, j] > 0.5
        ]
        expected = sum(cells) / len(cells) if cells else 0.0
        assert abs(loss_assemble(g3, a1t, a2t) - expected) < 1e-12

    def test_empty_gt_is_zero(self):
        assert loss_forward(np.zeros((3, 4)), np.full((3, 4), 0.5)) == 0.0
        assert loss_assemble(np.zeros((3, 3)), np.full((3, 3), 0.5), np.full((3, 3), 0.5)) == 0.0

    def test_loss_total(self):
        assert loss_total(0.0, 0.0, 0.0, 0.0).total == 0.0
        assert loss_total(4.0, 2.0, 1.0, 1.0).total == 2.0
        rng = np.random.default_rng(307)
        for _ in range(20):
            parts = rng.uniform(0, 5, size=4)
            got = loss_total(*parts)
            assert abs(got.total - parts.mean()) < 1e-15

    def test_shift_invariance_of_forward_loss(self):
        rng = np.random.default_rng(308)
        gt = random_gt(rng, 3, 4)
        m = rng.normal(size=(3, 4))
        a = augment_and_softmax(m, 0.1)
        b = augment_and_softmax(m + 3.3, 0.1 + 3.3)
        assert abs(loss_forward(gt.g1, a.a1) - loss_forward(gt.g1, b.a1)) < 1e-12

    def test_breakdown_matches_raw_path(self):
        rng = np.random.default_rng(309)
        gt = random_gt(rng, 4, 3)
        m = rng.normal(size=(4, 3))
        dummy = 0.25
        aff = augment_and_softmax(m, dummy)
        via_aff = loss_breakdown(aff, gt)
        via_raw = loss_from_raw(aff.m1, aff.m2, gt)
        assert via_aff == via_raw


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
        g1 = np.array([[1.0, 0.0]])
        g2 = np.array([[1.0], [0.0]])
        g3 = np.array([[1.0]])
        gt = GroundTruthAssignment(g1, g2, g3)
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
        loss_gradients(a1, a2, gt)
        with pytest.raises(ValueError, match="do not fit"):
            loss_gradients(a1[:, :-1], a2[:, :-1], gt)
        with pytest.raises(ValueError, match="do not fit"):
            loss_gradients(a1, a2[:-1], gt)
        with pytest.raises(ValueError, match="do not fit"):
            loss_gradients(a2.T, a1.T, gt)

    def test_head_softmax_gives_the_raw_path_gradients(self):
        # the trainer hands in augment_and_softmax's a1/a2 directly
        rng = np.random.default_rng(316)
        for _ in range(5):
            m1, m2, gt, dummy = random_instance(rng, max_count=5)
            cp, cc = gt.g3.shape
            aff = augment_and_softmax(m1[:, :cc], dummy)
            via_head = loss_gradients(aff.a1, aff.a2, gt)
            via_raw = loss_gradients(*normalize_pair(aff.m1, aff.m2), gt)
            assert np.array_equal(via_head.d_m1, via_raw.d_m1)
            assert np.array_equal(via_head.d_m2, via_raw.d_m2)
            assert via_head.d_dummy == via_raw.d_dummy
            assert fd_gradient_check(aff.m1, aff.m2, gt, grads=via_head) < 1e-4


class TestGroundTruthType:
    def test_rejects_row_sum_violation(self):
        g1 = np.zeros((1, 1))
        g2 = np.zeros((2, 0))
        g3 = np.zeros((1, 0))
        with pytest.raises(ValueError, match="g1 row"):
            GroundTruthAssignment(g1, g2, g3)

    def test_rejects_inconsistent_g3(self):
        g1 = np.zeros((1, 3))
        g2 = np.zeros((2, 2))
        g3 = np.zeros((1, 2))
        g1[0, 0] = 1.0
        g2[0, 0] = 1.0
        g3[0, 1] = 1.0
        g2[1, 1] = 1.0
        with pytest.raises(ValueError, match="g3"):
            GroundTruthAssignment(g1, g2, g3)
