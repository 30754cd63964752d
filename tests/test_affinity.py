"""Affinity head: compression net over gated feature pairs, then (A1, A2)."""

import numpy as np
import pytest

from cloudtrack.affinity import (
    CompressionNet,
    augment_and_softmax,
    compression_forward,
    normalize_pair,
    project,
    score_projected,
)
from cloudtrack.model import init_model
from cloudtrack.nets import init_layers, relu


def tiny_net(rng, in_dim=4):
    return CompressionNet(init_layers((in_dim, 3, 3, 2, 2, 1), rng))


def real_net():
    """The default 1024-512-256-128-64-1 stack, for 512-wide features."""
    return init_model(seed=3).compression


def cell_score(net, cell):
    """One cell's score in float64, from the net's float32 weights."""
    x = np.asarray(cell, dtype=np.float64)
    for W, b in net.layers[:-1]:
        x = relu(W.astype(np.float64) @ x + b)
    W, b = net.layers[-1]
    return (W.astype(np.float64) @ x + b)[0]


# the head runs in float32: a score is held to this many float32 epsilons
# of the float64 oracle on the same float32 features and weights (the
# default widths measured 14)
F32_TOL = 64 * np.finfo(np.float32).eps


def features(rng, size):
    return rng.normal(size=size).astype(np.float32)


class TestCompressionForward:
    def test_zero_weights_give_constant_bias(self):
        layers = []
        widths = (4, 3, 3, 2, 2, 1)
        for fan_in, fan_out in zip(widths, widths[1:]):
            layers.append((np.zeros((fan_out, fan_in)), np.zeros(fan_out)))
        layers[-1] = (np.zeros((1, 2)), np.array([0.75]))
        net = CompressionNet(layers)
        rng = np.random.default_rng(202)
        m = compression_forward(rng.normal(size=(2, 2)), rng.normal(size=(3, 2)), net)
        assert np.array_equal(m, np.full((2, 3), 0.75))

    def test_single_cell_matches_hand_computation(self):
        rng = np.random.default_rng(203)
        net = tiny_net(rng)
        v = rng.normal(size=4)
        m = compression_forward(v[None, :2], v[None, 2:], net)
        assert m.shape == (1, 1)
        assert abs(m[0, 0] - cell_score(net, v)) < 1e-12

    def test_matches_per_cell_oracle(self):
        rng = np.random.default_rng(204)
        net = tiny_net(rng)
        prev = features(rng, (3, 2))
        cur = features(rng, (4, 2))
        m = compression_forward(prev, cur, net)
        assert m.shape == (3, 4) and m.dtype == np.float64
        for i in range(3):
            for j in range(4):
                want = cell_score(net, np.concatenate([prev[i], cur[j]]))
                assert abs(m[i, j] - want) <= F32_TOL * max(1.0, abs(want))

    def test_empty_side_gives_empty_matrix(self):
        rng = np.random.default_rng(209)
        net = tiny_net(rng)
        assert compression_forward(np.empty((0, 2)), np.ones((3, 2)), net).shape == (0, 3)
        assert compression_forward(np.ones((2, 2)), np.empty((0, 2)), net).shape == (2, 0)
        # no eligible pair over non-empty sides: every cell scores -inf,
        # so every previous object leaves and every current one enters
        prev, cur = rng.normal(size=(2, 2)), rng.normal(size=(3, 2))
        none = np.zeros((2, 3), dtype=bool)
        m = compression_forward(prev, cur, net, eligible=none)
        assert m.shape == (2, 3) and np.all(m == -np.inf)
        a1, a2 = augment_and_softmax(m, 0.5)
        assert np.all(a1[:, 3] == 1.0) and np.all(a2[2, :] == 1.0)

    def test_prev_permutation_permutes_rows_bitwise(self):
        rng = np.random.default_rng(205)
        cases = [
            (tiny_net(rng), rng.normal(size=(4, 2)), rng.normal(size=(3, 2))),
            (real_net(), rng.normal(size=(37, 512)), rng.normal(size=(61, 512))),
        ]
        for net, rows, cur in cases:
            perm = rng.permutation(len(rows))
            m = compression_forward(rows, cur, net)
            mp = compression_forward(rows[perm], cur, net)
            assert mp.tobytes() == m[perm].tobytes()

    def test_masked_prev_permutation_permutes_rows_bitwise(self):
        rng = np.random.default_rng(218)
        net, rows, cur = real_net(), rng.normal(size=(37, 512)), rng.normal(size=(61, 512))
        eligible = rng.uniform(size=(37, 61)) < 0.1
        eligible[5] = False
        eligible[9] = True
        # tied previous rows: duplicated features, several of them all-zero
        # (an empty crop's feature), each carrying a different mask row
        tied = rows.copy()
        tied[20:26] = 0.0
        tied[30:34] = tied[7]
        tied_eligible = eligible.copy()
        tied_eligible[[20, 22, 30, 32]] = eligible[7]
        for feats, mask in ((rows, eligible), (tied, tied_eligible)):
            for _ in range(3):
                perm = rng.permutation(37)
                m = compression_forward(feats, cur, net, mask)
                mp = compression_forward(feats[perm], cur, net, mask[perm])
                assert mp.tobytes() == m[perm].tobytes()
                assert np.isneginf(m[~mask]).all() and np.isfinite(m[mask]).all()

    def test_small_batches_permute_bitwise_both_ways(self):
        # BLAS runs products of a few rows with other kernels (see
        # pointnet._PAD_MIN_POINTS), which round a row by its position;
        # both sides enter the batch in a canonical order, so permuting the
        # previous rows and the current columns permutes M bitwise at every
        # eligible-cell count, with one previous row or several, and with
        # tied current features whose mask columns differ
        rng = np.random.default_rng(222)
        net = real_net()
        for n_cells in range(1, 10):
            for cp, cc in ((1, n_cells + 1), (3, 4)):
                prev, cur = features(rng, (cp, 512)), features(rng, (cc, 512))
                if cc > 2:
                    cur[2] = cur[0]
                eligible = np.zeros(cp * cc, dtype=bool)
                eligible[rng.choice(cp * cc, n_cells, replace=False)] = True
                eligible = eligible.reshape(cp, cc)
                m = compression_forward(prev, cur, net, eligible)
                assert np.isfinite(m[eligible]).all() and np.isneginf(m[~eligible]).all()
                for _ in range(3):
                    pr, pc = rng.permutation(cp), rng.permutation(cc)
                    mp = compression_forward(prev[pr], cur[pc], net, eligible[pr][:, pc])
                    assert mp.tobytes() == m[pr][:, pc].tobytes(), n_cells
                # a cell's own one-cell call runs other products, so it agrees
                # with its batched score to float32 rounding, not bitwise
                for i, j in zip(*np.nonzero(eligible)):
                    own = compression_forward(prev[i : i + 1], cur[j : j + 1], net)
                    assert abs(own[0, 0] - m[i, j]) <= F32_TOL * max(1.0, abs(m[i, j]))

    def test_masked_cells_match_oracle(self):
        rng = np.random.default_rng(219)
        for net, d in ((tiny_net(rng), 2), (real_net(), 512)):
            prev = features(rng, (4, d))
            cur = features(rng, (5, d))
            eligible = rng.uniform(size=(4, 5)) < 0.5
            eligible[2] = False
            m = compression_forward(prev, cur, net, eligible)
            for i in range(4):
                for j in range(5):
                    if eligible[i, j]:
                        want = cell_score(net, np.concatenate([prev[i], cur[j]]))
                        assert abs(m[i, j] - want) <= F32_TOL * max(1.0, abs(want))
                    else:
                        assert m[i, j] == -np.inf

    def test_mask_shape_must_match(self):
        rng = np.random.default_rng(220)
        with pytest.raises(ValueError, match="eligible mask"):
            compression_forward(
                np.ones((2, 2)), np.ones((3, 2)), tiny_net(rng), np.ones((3, 2), bool)
            )

    def test_width_mismatch(self):
        rng = np.random.default_rng(207)
        net = tiny_net(rng, in_dim=6)
        with pytest.raises(ValueError, match="net input width"):
            compression_forward(np.ones((1, 2)), np.ones((1, 2)), net)

    def test_feature_width_mismatch(self):
        rng = np.random.default_rng(210)
        net = tiny_net(rng, in_dim=5)
        with pytest.raises(ValueError, match="feature widths differ"):
            compression_forward(np.ones((1, 2)), np.ones((1, 3)), net)


class TestSplitHead:
    """project, then score_projected: the head split at its first layer."""

    def test_project_permutes_bitwise_with_ties(self):
        rng = np.random.default_rng(230)
        net = real_net()
        for n in (1, 2, 5, 9, 16, 40, 70):
            rows = features(rng, (n, 512))
            # tied rows: a duplicated feature and two empty crops' zero rows
            if n > 4:
                rows[3] = rows[0]
                rows[[1, 4]] = 0.0
            prev, cur = project(rows, net)
            assert prev.dtype == cur.dtype == np.float32
            assert prev.shape == cur.shape == (n, 512)
            if n > 4:
                assert prev[3].tobytes() == prev[0].tobytes()
                assert cur[1].tobytes() == cur[4].tobytes()
            for _ in range(3):
                perm = rng.permutation(n)
                pp, pc = project(rows[perm], net)
                assert pp.tobytes() == prev[perm].tobytes(), n
                assert pc.tobytes() == cur[perm].tobytes(), n

    def test_project_is_the_first_layer(self):
        rng = np.random.default_rng(231)
        net = real_net()
        rows = features(rng, (7, 512))
        prev, cur = project(rows, net)
        w1, b1 = (a.astype(np.float64) for a in net.layers[0])
        x = rows.astype(np.float64)
        for got, w, b in ((prev, w1[:, :512], 0.0), (cur, w1[:, 512:], b1)):
            scale = np.abs(x) @ np.abs(w).T + np.abs(b)
            assert (np.abs(got - (x @ w.T + b)) <= F32_TOL * scale).all()
        # the zero row projects to exactly 0 and b1
        prev, cur = project(np.zeros((2, 512)), net)
        assert not prev.any() and (cur == net.layers[0][1]).all()

    def test_compression_forward_is_project_then_score(self):
        rng = np.random.default_rng(232)
        for net, d in ((tiny_net(rng), 2), (real_net(), 512)):
            for cp, cc in ((1, 1), (3, 4), (9, 6), (0, 3), (2, 0)):
                prev, cur = features(rng, (cp, d)), features(rng, (cc, d))
                if cp > 2 and cc > 2:
                    prev[2] = cur[1] = 0.0
                for eligible in (None, rng.uniform(size=(cp, cc)) < 0.5):
                    m = compression_forward(prev, cur, net, eligible)
                    as_prev, as_cur = project(np.concatenate([prev, cur]), net)
                    split = score_projected(as_prev[:cp], as_cur[cp:], net, eligible)
                    assert split.tobytes() == m.tobytes()
                    a = augment_and_softmax(m, 0.3)
                    b = augment_and_softmax(
                        score_projected(as_prev[:cp], as_cur[cp:], net, eligible), 0.3
                    )
                    assert a[0].tobytes() == b[0].tobytes()
                    assert a[1].tobytes() == b[1].tobytes()

    def test_score_projected_permutes_bitwise(self):
        # projections from two different batches, as the tracker pairs a
        # live row's previous half with a later window's current half
        rng = np.random.default_rng(233)
        net = real_net()
        prev, _ = project(features(rng, (6, 512)), net)
        _, cur = project(features(rng, (11, 512)), net)
        eligible = rng.uniform(size=(6, 11)) < 0.4
        m = score_projected(prev, cur, net, eligible)
        for _ in range(3):
            pr, pc = rng.permutation(6), rng.permutation(11)
            mp = score_projected(prev[pr], cur[pc], net, eligible[pr][:, pc])
            assert mp.tobytes() == m[pr][:, pc].tobytes()

    def test_overflowing_score_raises(self):
        # every weight is finite in float32, but the last layer overflows
        # to -inf, which would mark an eligible pair as one that may not
        # link: the head raises instead, with no overflow warning first
        rng = np.random.default_rng(235)
        *layers, (w5, b5) = real_net().layers
        net = CompressionNet((*layers, (np.full_like(w5, -3e37), b5)))
        prev, cur = features(rng, (4, 512)), features(rng, (3, 512))
        eligible = np.zeros((4, 3), dtype=bool)
        # no eligible cell runs, so there is nothing to refuse
        assert np.all(compression_forward(prev, cur, net, eligible) == -np.inf)
        eligible[2, 1] = True
        for mask in (eligible, None):
            with pytest.raises(ValueError, match="non-finite affinity score"):
                compression_forward(prev, cur, net, mask)
        as_prev, as_cur = project(np.concatenate([prev, cur]), net)
        with pytest.raises(ValueError, match="non-finite affinity score"):
            augment_and_softmax(
                score_projected(as_prev[:4], as_cur[4:], net, eligible), 0.0
            )

    @pytest.mark.parametrize("half", [slice(None, 512), slice(512, None)])
    def test_overflowing_projection_raises(self, half):
        # every weight is finite in float32, but one half of the first
        # layer overflows it on non-negative features: project raises
        # ValueError, with no overflow warning first
        rng = np.random.default_rng(236)
        (w1, b1), *layers = real_net().layers
        w1 = w1.copy()
        w1[:, half] = 3e36
        net = CompressionNet(((w1, b1), *layers))
        rows = np.abs(features(rng, (5, 512)))
        with pytest.raises(ValueError, match="non-finite first-layer projection"):
            project(rows, net)
        with pytest.raises(ValueError, match="non-finite first-layer projection"):
            compression_forward(rows[:2], rows[2:], net)
        # the zero row, an empty crop's feature, still projects
        prev, cur = project(np.zeros((2, 512)), net)
        assert not prev.any() and (cur == b1).all()

    def test_bad_shapes_rejected(self):
        rng = np.random.default_rng(234)
        net = tiny_net(rng)
        with pytest.raises(ValueError, match="2-D"):
            project(np.ones(2), net)
        with pytest.raises(ValueError, match="net input width"):
            project(np.ones((1, 3)), net)
        with pytest.raises(ValueError, match="first layer width"):
            score_projected(np.ones((1, 3)), np.ones((1, 2)), net)
        with pytest.raises(ValueError, match="eligible mask"):
            score_projected(np.ones((1, 3)), np.ones((2, 3)), net, np.ones((2, 1), bool))


class TestAugmentAndSoftmax:
    def test_two_way_uniform(self):
        a1, a2 = augment_and_softmax(np.zeros((1, 1)), 0.0)
        assert np.allclose(a1[0], [0.5, 0.5], atol=1e-15)
        assert np.allclose(a2[:, 0], [0.5, 0.5], atol=1e-15)

    def test_uniform_row_over_101_entries(self):
        m = np.zeros((1, 100))
        a1, _ = augment_and_softmax(m, 0.0)
        assert a1.shape == (1, 101)
        assert np.allclose(a1[0], np.full(101, 1.0 / 101.0), atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(211)
        m = rng.normal(size=(4, 5))
        dummy = 0.3
        a1, a2 = augment_and_softmax(m, dummy)
        b1, b2 = augment_and_softmax(m + 2.7, dummy + 2.7)
        assert np.allclose(a1, b1, atol=1e-12)
        assert np.allclose(a2, b2, atol=1e-12)

    def test_stochasticity(self):
        rng = np.random.default_rng(212)
        for _ in range(100):
            cp = int(rng.integers(0, 9))
            cc = int(rng.integers(0, 9))
            m = rng.normal(size=(cp, cc)) * 3
            a1, a2 = augment_and_softmax(m, float(rng.normal()))
            assert a1.shape == (cp, cc + 1)
            assert a2.shape == (cp + 1, cc)
            assert np.allclose(a1.sum(axis=1), 1.0, atol=1e-9)
            assert np.allclose(a2.sum(axis=0), 1.0, atol=1e-9)

    def test_dummy_goes_in_last_column_and_last_row(self):
        # the pair is normalize_pair of M with the dummy as A1's leave
        # column and A2's enter row, bit for bit
        rng = np.random.default_rng(213)
        m = rng.normal(size=(3, 2))
        m1 = np.hstack([m, np.full((3, 1), 0.1)])
        m2 = np.vstack([m, np.full((1, 2), 0.1)])
        a1, a2 = augment_and_softmax(m, 0.1)
        b1, b2 = normalize_pair(m1, m2)
        assert a1.tobytes() == b1.tobytes()
        assert a2.tobytes() == b2.tobytes()

    def test_prev_slot_permutation_equivariance(self):
        rng = np.random.default_rng(214)
        net = tiny_net(rng)
        rows = rng.normal(size=(4, 2))
        cur = rng.normal(size=(3, 2))
        perm = np.array([3, 1, 0, 2])
        a1, a2 = augment_and_softmax(compression_forward(rows, cur, net), 0.2)
        b1, b2 = augment_and_softmax(compression_forward(rows[perm], cur, net), 0.2)
        assert np.allclose(b1, a1[perm], atol=1e-15)
        assert np.allclose(b2[:4], a2[perm], atol=1e-15)

    def test_rejects_non_finite(self):
        for bad in (np.inf, np.nan):
            m = np.zeros((2, 2))
            m[0, 0] = bad
            with pytest.raises(ValueError):
                augment_and_softmax(m, 0.0)
        with pytest.raises(ValueError):
            augment_and_softmax(np.zeros((2, 2)), np.inf)
        with pytest.raises(ValueError):
            augment_and_softmax(np.full((2, 2), -np.inf), -np.inf)

    def test_negative_infinity_gives_exact_zeros(self):
        rng = np.random.default_rng(221)
        for _ in range(200):
            cp, cc = int(rng.integers(0, 9)), int(rng.integers(0, 9))
            m = rng.normal(size=(cp, cc)) * 3.0
            gated = rng.uniform(size=(cp, cc)) < 0.5
            if cp:
                gated[0] = True
            m[gated] = -np.inf
            dummy = float(rng.normal())
            a1, a2 = augment_and_softmax(m, dummy)
            assert (a1[:, :cc][gated] == 0.0).all()
            assert (a2[:cp, :][gated] == 0.0).all()
            assert np.allclose(a1.sum(axis=1), 1.0, atol=1e-9)
            assert np.allclose(a2.sum(axis=0), 1.0, atol=1e-9)
            shift = float(rng.uniform(-20.0, 20.0))
            b1, b2 = augment_and_softmax(m + shift, dummy + shift)
            assert np.abs(b1 - a1).max(initial=0.0) <= 1e-12
            assert np.abs(b2 - a2).max(initial=0.0) <= 1e-12


class TestCompressionNetType:
    def test_needs_five_layers(self):
        rng = np.random.default_rng(216)
        with pytest.raises(ValueError):
            CompressionNet(init_layers((4, 3, 1), rng))

    def test_needs_scalar_output(self):
        rng = np.random.default_rng(217)
        with pytest.raises(ValueError):
            CompressionNet(init_layers((4, 3, 3, 2, 2, 2), rng))
