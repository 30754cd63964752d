"""Affinity head: compression net over gated feature pairs, softmax matrices."""

import numpy as np
import pytest

from cloudtrack.affinity import (
    CompressionNet,
    affinity_from_features,
    augment_and_softmax,
    compression_forward,
)
from cloudtrack.model import init_model
from cloudtrack.nets import init_layers, relu
from cloudtrack.pointnet import FeatureSet


def tiny_net(rng, in_dim=4):
    return CompressionNet(init_layers((in_dim, 3, 3, 2, 2, 1), rng))


def real_net():
    """The default 1024-512-256-128-64-1 stack, for 512-wide features."""
    return init_model(seed=3).compression


def cell_score(net, cell):
    x = np.asarray(cell, dtype=float).copy()
    for W, b in net.layers[:-1]:
        x = relu(W @ x + b)
    W, b = net.layers[-1]
    return (W @ x + b)[0]


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
        prev = rng.normal(size=(3, 2))
        cur = rng.normal(size=(4, 2))
        m = compression_forward(prev, cur, net)
        assert m.shape == (3, 4)
        for i in range(3):
            for j in range(4):
                cell = np.concatenate([prev[i], cur[j]])
                assert abs(m[i, j] - cell_score(net, cell)) < 1e-12

    def test_empty_side_gives_empty_matrix(self):
        rng = np.random.default_rng(209)
        net = tiny_net(rng)
        assert compression_forward(np.empty((0, 2)), np.ones((3, 2)), net).shape == (0, 3)
        assert compression_forward(np.ones((2, 2)), np.empty((0, 2)), net).shape == (2, 0)

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

    def test_masked_cells_match_oracle(self):
        rng = np.random.default_rng(219)
        for net, d in ((tiny_net(rng), 2), (real_net(), 512)):
            prev = rng.normal(size=(4, d))
            cur = rng.normal(size=(5, d))
            eligible = rng.uniform(size=(4, 5)) < 0.5
            eligible[2] = False
            m = compression_forward(prev, cur, net, eligible)
            for i in range(4):
                for j in range(5):
                    if eligible[i, j]:
                        cell = np.concatenate([prev[i], cur[j]])
                        assert abs(m[i, j] - cell_score(net, cell)) < 1e-12
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


class TestAugmentAndSoftmax:
    def test_two_way_uniform(self):
        aff = augment_and_softmax(np.zeros((1, 1)), 0.0)
        assert np.allclose(aff.a1[0], [0.5, 0.5], atol=1e-15)
        assert np.allclose(aff.a2[:, 0], [0.5, 0.5], atol=1e-15)

    def test_uniform_row_over_101_entries(self):
        m = np.zeros((1, 100))
        aff = augment_and_softmax(m, 0.0)
        assert aff.a1.shape == (1, 101)
        assert np.allclose(aff.a1[0], np.full(101, 1.0 / 101.0), atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(211)
        m = rng.normal(size=(4, 5))
        dummy = 0.3
        a = augment_and_softmax(m, dummy)
        b = augment_and_softmax(m + 2.7, dummy + 2.7)
        assert np.allclose(a.a1, b.a1, atol=1e-12)
        assert np.allclose(a.a2, b.a2, atol=1e-12)

    def test_stochasticity(self):
        rng = np.random.default_rng(212)
        for _ in range(100):
            cp = int(rng.integers(0, 9))
            cc = int(rng.integers(0, 9))
            m = rng.normal(size=(cp, cc)) * 3
            aff = augment_and_softmax(m, float(rng.normal()))
            assert aff.a1.shape == (cp, cc + 1)
            assert aff.a2.shape == (cp + 1, cc)
            assert np.allclose(aff.a1.sum(axis=1), 1.0, atol=1e-9)
            assert np.allclose(aff.a2.sum(axis=0), 1.0, atol=1e-9)

    def test_trims(self):
        rng = np.random.default_rng(213)
        m = rng.normal(size=(3, 2))
        aff = augment_and_softmax(m, 0.1)
        assert np.array_equal(aff.a1_trim, aff.a1[:, :2])
        assert np.array_equal(aff.a2_trim, aff.a2[:3, :])

    def test_prev_slot_permutation_equivariance(self):
        rng = np.random.default_rng(214)
        net = tiny_net(rng)
        rows = rng.normal(size=(4, 2))
        cur = FeatureSet(rng.normal(size=(3, 2)))
        perm = np.array([3, 1, 0, 2])
        a = affinity_from_features(FeatureSet(rows), cur, net, 0.2)
        b = affinity_from_features(FeatureSet(rows[perm]), cur, net, 0.2)
        assert np.allclose(b.a1, a.a1[perm], atol=1e-15)
        assert np.allclose(b.a2[:4], a.a2[perm], atol=1e-15)

    def test_composed_path_matches_pieces(self):
        rng = np.random.default_rng(215)
        net = tiny_net(rng)
        prev = FeatureSet(rng.normal(size=(3, 2)))
        cur = FeatureSet(rng.normal(size=(2, 2)))
        direct = affinity_from_features(prev, cur, net, 0.4)
        m = compression_forward(prev.features, cur.features, net)
        composed = augment_and_softmax(m, 0.4)
        assert direct.a1.tobytes() == composed.a1.tobytes()
        assert direct.a2.tobytes() == composed.a2.tobytes()

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
            aff = augment_and_softmax(m, dummy)
            assert (aff.a1_trim[gated] == 0.0).all()
            assert (aff.a2_trim[gated] == 0.0).all()
            assert np.allclose(aff.a1.sum(axis=1), 1.0, atol=1e-9)
            assert np.allclose(aff.a2.sum(axis=0), 1.0, atol=1e-9)
            shift = float(rng.uniform(-20.0, 20.0))
            moved = augment_and_softmax(m + shift, dummy + shift)
            assert np.abs(moved.a1 - aff.a1).max(initial=0.0) <= 1e-12
            assert np.abs(moved.a2 - aff.a2).max(initial=0.0) <= 1e-12


class TestCompressionNetType:
    def test_needs_five_layers(self):
        rng = np.random.default_rng(216)
        with pytest.raises(ValueError):
            CompressionNet(init_layers((4, 3, 1), rng))

    def test_needs_scalar_output(self):
        rng = np.random.default_rng(217)
        with pytest.raises(ValueError):
            CompressionNet(init_layers((4, 3, 3, 2, 2, 2), rng))
