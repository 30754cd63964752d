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
    stack_gt,
    stack_masks,
)
from cloudtrack.verification import (
    DEFAULT_STEP,
    DEFAULT_TOLERANCE,
    fd_gradient_check,
    random_ids,
    random_instance,
    relative_error,
)


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


def ragged_pairs():
    """(scores, targets, dummy) of frame pairs of different sizes.

    Among them: an empty previous side, an empty current side, a pair
    with no label at all, one with gated -inf scores (off its true
    cells), and one nine columns wide, whose A1 rows numpy sums pairwise.
    """
    rng = np.random.default_rng(330)
    gated = rng.normal(size=(4, 3))
    gated[3, :] = gated[0, 2] = gated[1, 0] = -np.inf
    links = [
        random_ids(rng, 3, 5),
        ([], [1, 2, 3, 4]),
        ([1, 2, 3, 4, 5], []),
        ([None] * 4, [None] * 4),
        ([1, 2, 3, 4], [3, 1, 9]),
        random_ids(rng, 6, 9),
    ]
    gts = [build_gt(*ids) for ids in links]
    ms = [rng.normal(size=gt.g3.shape) * 3.0 for gt in gts]
    ms[4] = gated
    return ms, gts, 0.3


def stack_scores(ms):
    """The pairs' scores as one stack, padded with -inf as stack_masks lays out."""
    rows, cols = stack_masks([m.shape for m in ms])
    stack = np.full((len(ms), rows.shape[1], cols.shape[1]), -np.inf)
    stack[rows[:, :, None] & cols[:, None, :]] = np.concatenate([m.ravel() for m in ms])
    return stack


def own(x, k, shape):
    """Pair k's own block of a stacked A1, A2, M1 or M2 (its bottom right)."""
    rows, cols = shape
    return x[k, x.shape[1] - rows:, x.shape[2] - cols:]


def assert_each_pair_gets_its_own_calls_results(ms, gts, dummy):
    """Stack the pairs, and compare each pair's results with its own call's.

    A1, A2, the four terms, both gradients and d_dummy must keep every bit.
    """
    gt = stack_gt(gts)
    a1, a2 = augment_and_softmax(stack_scores(ms), dummy)
    losses = loss_breakdown(a1, a2, gt)
    grads = loss_gradients(a1, a2, gt)
    for k, (m, pair_gt) in enumerate(zip(ms, gts)):
        cp, cc = m.shape
        b1, b2 = augment_and_softmax(m, dummy)
        single = loss_breakdown(b1, b2, pair_gt)
        g = loss_gradients(b1, b2, pair_gt)
        got = (
            own(a1, k, (cp, cc + 1)), own(a2, k, (cp + 1, cc)),
            np.array([t[k] for t in (losses.l_f, losses.l_b, losses.l_c, losses.l_a)]),
            own(grads.d_m1, k, (cp, cc + 1)), own(grads.d_m2, k, (cp + 1, cc)),
            grads.d_dummy[k],
        )
        want = (
            b1, b2, np.array([single.l_f, single.l_b, single.l_c, single.l_a]),
            g.d_m1, g.d_m2, g.d_dummy,
        )
        for x, y in zip(got, want):
            assert np.array_equal(x, y)
    return a1, a2


class TestStacks:
    """A stack of pairs gives each pair exactly its own call's results."""

    def test_each_pair_gets_its_own_calls_results(self):
        a1, a2 = assert_each_pair_gets_its_own_calls_results(*ragged_pairs())
        assert a1.shape == (6, 6, 10) and a2.shape == (6, 7, 9)

    def test_random_stacks_match_each_pairs_own_call(self):
        # up to 40 wide, where numpy's pairwise sums and in-order sums
        # differ, and one pair wider than numpy's 128-entry pairwise block
        rng = np.random.default_rng(332)
        for trial in range(40):
            sizes = rng.integers(0, 41, size=(int(rng.integers(1, 7)), 2))
            if trial == 0:
                sizes = np.vstack([sizes, [[6, 150]]])
            gts = [build_gt(*random_ids(rng, cp, cc)) for cp, cc in sizes]
            ms = [rng.normal(size=(cp, cc)) * rng.uniform(0.1, 20.0) for cp, cc in sizes]
            assert_each_pair_gets_its_own_calls_results(ms, gts, float(rng.normal()))

    def test_a_lone_column_keeps_its_bits_beside_a_wider_pair(self):
        # numpy's sum adds a lone column of eight or more entries pairwise
        # but a wider stack's columns in order; with these scores the two
        # orders give A2 different last bits, so only a column sum that
        # adds in order at every width keeps the (7, 1) pair's own results
        rng = np.random.default_rng(1)
        gts = [build_gt(range(7), [4]), build_gt([1, 2, 3], [2, 3, 9])]
        ms = [rng.normal(size=(7, 1)) * 3.0, rng.normal(size=(3, 3)) * 3.0]
        assert_each_pair_gets_its_own_calls_results(ms, gts, 0.3)

    def test_padding_is_zero_and_gets_zero_gradient(self):
        ms, gts, dummy = ragged_pairs()
        gt = stack_gt(gts)
        a1, a2 = augment_and_softmax(stack_scores(ms), dummy)
        grads = loss_gradients(a1, a2, gt)

        def outside(x, k, shape):
            rest = x[k].copy()
            rest[rest.shape[0] - shape[0]:, rest.shape[1] - shape[1]:] = 0.0
            return rest

        for k, m in enumerate(ms):
            cp, cc = m.shape
            for x in (gt.g1, grads.d_m1):
                assert not outside(x, k, (cp, cc + 1)).any()
            for x in (gt.g2, grads.d_m2):
                assert not outside(x, k, (cp + 1, cc)).any()
            # a padded row leaves for certain and a padded column enters
            assert np.array_equal(outside(a1, k, (cp, cc + 1))[:, -1] > 0, ~gt.real_rows[k])
            assert not outside(a1, k, (cp, cc + 1))[:, :-1].any()
            assert np.array_equal(outside(a2, k, (cp + 1, cc))[-1] > 0, ~gt.real_cols[k])
            assert not outside(a2, k, (cp + 1, cc))[:-1].any()

    def test_stack_gradients_match_finite_differences(self):
        # every pair's own cells of M1 and M2 and the shared dummy, through
        # the stack; gated -inf cells stay gated
        ms, gts, dummy = ragged_pairs()
        gt = stack_gt(gts)
        noise = np.random.default_rng(331).normal(size=(len(ms), 7, 10)) * 0.5
        m1 = np.full(gt.g1.shape, -np.inf)
        m1[..., -1] = dummy
        m1[..., :-1][gt.cells] = stack_scores(ms)[gt.cells]
        m2 = np.full(gt.g2.shape, -np.inf)
        m2[:, -1, :] = dummy
        m2[:, :-1] = m1[..., :-1] + noise[:, :6, :9]
        grads = loss_gradients(*normalize_pair(m1, m2), gt)
        h = DEFAULT_STEP

        def totals(a, b):
            return loss_from_raw(a, b, gt).total

        worst = 0.0
        checked = 0
        for mat, d_mat, first in ((m1, grads.d_m1, True), (m2, grads.d_m2, False)):
            for idx in zip(*np.nonzero(np.isfinite(mat))):
                k = idx[0]
                cp, cc = gt.sizes[k]
                shape = (cp, cc + 1) if first else (cp + 1, cc)
                if idx[1] < mat.shape[1] - shape[0] or idx[2] < mat.shape[2] - shape[1]:
                    continue  # a padded row's or column's dummy slot
                bumped = mat.copy()
                bumped[idx] += h
                hi = totals(bumped, m2) if first else totals(m1, bumped)
                bumped[idx] -= 2 * h
                lo = totals(bumped, m2) if first else totals(m1, bumped)
                fd = (hi[k] - lo[k]) / (2 * h)
                worst = max(worst, relative_error(float(d_mat[idx]), fd))
                checked += 1
        assert checked == sum(
            cp * (cc + 1) + (cp + 1) * cc for cp, cc in gt.sizes
        ) - 2 * 5  # the gated pair's five -inf cells, in M1 and M2

        def with_dummy(value):
            a, b = m1.copy(), m2.copy()
            a[..., -1] = value
            b[:, -1, :] = value
            return totals(a, b)

        fd = (with_dummy(dummy + h) - with_dummy(dummy - h)) / (2 * h)
        for k in range(len(ms)):
            worst = max(worst, relative_error(float(grads.d_dummy[k]), float(fd[k])))
        assert worst < DEFAULT_TOLERANCE


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

    def test_stacked_targets_pad_with_zeros(self):
        # each pair's targets sit at the stack's bottom right, next to the
        # leave column and the enter row; the padding holds no target
        _, gts, _ = ragged_pairs()
        gt = stack_gt(gts)
        assert gt.g3.shape == (6, 6, 9)
        for k, pair in enumerate(gts):
            cp, cc = pair.g3.shape
            assert np.array_equal(own(gt.g1, k, (cp, cc + 1)), pair.g1)
            assert np.array_equal(own(gt.g2, k, (cp + 1, cc)), pair.g2)
            assert gt.g1[k].sum() == cp and gt.g2[k].sum() == cc
