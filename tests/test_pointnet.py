"""Featurizer: shared MLP, max-pool, the featurizer section of model files."""

import io
import struct

import numpy as np
import pytest

from cloudtrack import pointnet
from cloudtrack.affinity import CompressionNet
from cloudtrack.cropping import crop_frame
from cloudtrack.model import AffinityModel, load_model, save_model
from cloudtrack.nets import init_layers, mlp_forward, write_layers
from cloudtrack.pointnet import (
    _CHUNK_CROPS,
    _PAD_MIN_POINTS,
    DEFAULT_POINTNET_WIDTHS,
    PointNetWeights,
    featurize_frame,
    pointnet_forward,
)
from cloudtrack.sequence_io import load_admitted_frame
from cloudtrack.synth import SynthConfig, generate


def file_section(magic, layers):
    """One model-file section of float32 layers, as save_model writes it."""
    buf = io.BytesIO()
    write_layers(buf, magic, layers)
    return buf.getvalue()


def random_weights(rng, widths=(3, 8, 16)):
    return PointNetWeights(init_layers(widths, rng))


def f64_layers(w):
    return tuple((W.astype(np.float64), b.astype(np.float64)) for W, b in w.layers)


def canonical(pts):
    return pts[np.lexsort((pts[:, 2], pts[:, 1], pts[:, 0]))]


def oracle_row(crop, w):
    """One crop's feature as a lone float32 MLP over its canonical points.

    A crop under _PAD_MIN_POINTS points is padded to that many with its
    last canonical point, so BLAS multiplies it with the kernels of longer
    products.
    """
    if len(crop) == 0:
        return np.zeros(w.feature_dim, dtype=np.float32)
    pts = canonical(crop).astype(np.float32)
    pad = max(_PAD_MIN_POINTS - len(pts), 0)
    pts = np.concatenate([pts, np.repeat(pts[-1:], pad, axis=0)])
    return mlp_forward(pts, w.layers).max(axis=0)


def real_crops(tmp_path, points_per_object):
    """The crops of one frame of a 24-object synthetic scene."""
    cfg = SynthConfig(
        n_objects=24, n_frames=2, seed=7, arena=(60.0, 60.0),
        points_per_object=points_per_object,
    )
    src = generate(cfg, tmp_path)
    crops = crop_frame(load_admitted_frame(src, 1))
    assert len(crops) >= 20
    return crops


def assert_rows_match_oracle(crops, w):
    feats = featurize_frame(crops, w)
    assert feats.shape == (len(crops), w.feature_dim)
    for slot, crop in enumerate(crops):
        assert feats[slot].tobytes() == oracle_row(crop, w).tobytes(), slot
    return feats


class TestPointnetForward:
    def test_empty_object_gives_zero_feature(self):
        rng = np.random.default_rng(101)
        w = random_weights(rng)
        out = pointnet_forward(np.empty((0, 3)), w)
        assert out.shape == (16,)
        assert not np.any(out)

    def test_identity_layer_max_pools(self):
        w = PointNetWeights(((np.eye(3), np.zeros(3)),))
        crop = np.array([[1.0, 0.0, 0.0], [0.0, 2.0, 0.0]])
        assert np.array_equal(pointnet_forward(crop, w), [1.0, 2.0, 0.0])

    def test_permutation_invariance_bitwise(self):
        rng = np.random.default_rng(102)
        w = random_weights(rng)
        pts = rng.uniform(-1.0, 1.0, size=(50, 3))
        base = pointnet_forward(pts, w)
        for _ in range(10):
            shuffled = pts[rng.permutation(50)]
            got = pointnet_forward(shuffled, w)
            assert got.tobytes() == base.tobytes()

    def test_pool_is_per_point_max(self):
        rng = np.random.default_rng(104)
        w = random_weights(rng, widths=(3, 8, 8, 4))
        pts = rng.uniform(-1.0, 1.0, size=(30, 3))
        per_point = np.stack(
            [mlp_forward(p.reshape(1, 3).astype(np.float32), w.layers)[0] for p in pts]
        )
        oracle = per_point.max(axis=0)
        got = pointnet_forward(pts, w)
        # a one-row product runs another BLAS kernel, which may round each
        # float32 output differently by an ulp or two
        tol = 4 * np.finfo(np.float32).eps * np.abs(oracle).max()
        assert np.abs(got - oracle).max() <= tol

    def test_rejects_wrong_input_width(self):
        with pytest.raises(ValueError):
            PointNetWeights(((np.zeros((4, 5)), np.zeros(4)),))

    def test_weights_held_as_float32_and_checked_after_the_cast(self):
        rng = np.random.default_rng(114)
        layers = [(W.astype(np.float64), b) for W, b in init_layers((3, 4, 6), rng)]
        w = PointNetWeights(tuple(layers))
        assert all(W.dtype == b.dtype == np.float32 for W, b in w.layers)
        # finite in float64, infinite in the type the featurizer runs in
        layers[1][0][2, 1] = 1e39
        with pytest.raises(ValueError, match="layer 1: non-finite weight entry"):
            PointNetWeights(tuple(layers))


class TestFeaturizeFrame:
    def test_empty(self):
        rng = np.random.default_rng(105)
        feats = featurize_frame((), random_weights(rng))
        assert feats.shape == (0, 16) and feats.dtype == np.float32

    def test_slots_filled_in_order(self):
        # frames around and across the MLP's chunk of C crops.  The last
        # crop of each frame of four or more repeats the first, so two batch
        # keys tie and run once: n batched crops give n - 1 distinct ones,
        # and C + 1, C + 2, 2C + 1 and 2C + 2 of them fill one chunk, spill
        # one crop into a second, fill two, and spill one into a third
        rng = np.random.default_rng(106)
        w = PointNetWeights(init_layers(DEFAULT_POINTNET_WIDTHS, rng))
        P, C = 128, _CHUNK_CROPS
        batched = (C, C + 1, C + 2, 2 * C, 2 * C + 1, 2 * C + 2)
        frames = (
            [P],
            [0, 1, P],
            [P, 17, 15, P],
            [40, 0, 9, 100, 40],
            [P, 1, 2, 16, 64, 10, P - 1, 0, P],
            *([P, *np.linspace(20, P, n - 2, dtype=int), P] for n in batched),
            [P, 3, *np.linspace(20, P, 2 * C - 1, dtype=int), 0, 16, P],
        )
        for counts in frames:
            crops = [rng.uniform(-1, 1, size=(n, 3)) for n in counts]
            if len(crops) >= 4:
                crops[-1] = crops[0]
            feats = assert_rows_match_oracle(crops, w)
            for slot, crop in enumerate(crops):
                assert feats[slot].tobytes() == pointnet_forward(crop, w).tobytes()
            for _ in range(5):
                perm = rng.permutation(len(crops))
                got = featurize_frame([crops[i] for i in perm], w)
                assert got.tobytes() == feats[perm].tobytes()

    def test_short_crop_row_is_the_same_in_every_batch(self):
        # a crop under _PAD_MIN_POINTS points is padded to that many, so
        # BLAS never multiplies it with its small-matrix kernels: its row is
        # the same alone, in a chunk of 128-point crops, in a chunk of short
        # crops (padded only to _PAD_MIN_POINTS), and with copies of its own
        # points appended up to _PAD_MIN_POINTS
        rng = np.random.default_rng(116)
        w = PointNetWeights(init_layers(DEFAULT_POINTNET_WIDTHS, rng))
        long = [rng.uniform(-1, 1, size=(128, 3)) for _ in range(_CHUNK_CROPS)]
        short = [rng.uniform(-1, 1, size=(n, 3)) for n in (3, 7, 11, 15, 2)]
        for n in range(1, _PAD_MIN_POINTS):
            crop = rng.uniform(-1, 1, size=(n, 3))
            alone = pointnet_forward(crop, w)
            assert alone.tobytes() == oracle_row(crop, w).tobytes(), n
            copies = crop[rng.integers(0, n, size=_PAD_MIN_POINTS - n)]
            rows = (
                featurize_frame([*long, crop], w)[-1],
                featurize_frame([*short, crop], w)[-1],
                pointnet_forward(np.concatenate([crop, copies]), w),
            )
            for row in rows:
                assert row.tobytes() == alone.tobytes(), n

    def test_one_batch_in_length_then_bytes_order(self, monkeypatch):
        # every non-empty crop of a call runs in one _pool_crops batch; its
        # chunks hold the distinct crops in (length, bytes) order, each chunk
        # padded with its crops' last points to its own longest crop and to
        # at least _PAD_MIN_POINTS points, in point-major rows: row p * m + c
        # of an m-crop chunk is point p of its crop c
        rng = np.random.default_rng(117)
        w = random_weights(rng)
        counts = (0, 128, 1, 5, 12, 15, 16, 17, 60, 0, 9, 128, 3, 100, 5, 40)
        crops = [rng.uniform(-1, 1, size=(n, 3)) for n in counts]
        crops.append(crops[3][::-1])  # a permuted duplicate runs once
        calls, inputs = [], []
        pool_crops = pointnet._pool_crops

        def counting(batch, layers):
            calls.append(len(batch))
            return pool_crops(batch, layers)

        class RecordingNumpy:
            def __getattr__(self, name):
                return getattr(np, name)

            def matmul(self, x, W, out):
                if x.shape[1] == 3:
                    inputs.append(x.copy())
                return np.matmul(x, W, out=out)

        monkeypatch.setattr(pointnet, "_pool_crops", counting)
        monkeypatch.setattr(pointnet, "np", RecordingNumpy())
        featurize_frame(crops, w)
        assert calls == [len(crops) - 2]

        distinct = [canonical(c).astype(np.float32) for c in crops[:-1] if len(c)]
        distinct.sort(key=lambda pts: (len(pts), pts.tobytes()))
        assert len(inputs) == -(-len(distinct) // _CHUNK_CROPS)
        for start, x in zip(range(0, len(distinct), _CHUNK_CROPS), inputs):
            chunk = distinct[start : start + _CHUNK_CROPS]
            width = max(len(chunk[-1]), _PAD_MIN_POINTS)
            want = np.stack([
                np.concatenate([pts, np.repeat(pts[-1:], width - len(pts), axis=0)])
                for pts in chunk
            ])
            assert x.tobytes() == want.transpose(1, 0, 2).tobytes()

    def test_one_sort_order_matches_oracle(self, monkeypatch):
        # one argsort of x orders every crop of a call; a crop whose x
        # repeats is ordered again by _canonical_order alone.  Tied crops:
        # rounded coordinates, duplicate points, x of +0 and -0 mixed, and a
        # permuted copy of a tied crop (which runs its own fallback before
        # the copies merge); untied ones: single points, lengths 1-200 and a
        # permuted copy
        rng = np.random.default_rng(118)
        w = PointNetWeights(init_layers(DEFAULT_POINTNET_WIDTHS, rng))
        signed_zero = rng.uniform(-1, 1, size=(40, 3))
        signed_zero[::2, 0] = 0.0
        signed_zero[1::4, 0] = -0.0
        lengths = (1, 1, 2, 9, 15, 16, 77, 128, 200)
        untied = [rng.uniform(-1, 1, size=(n, 3)) for n in lengths]
        dup = rng.uniform(-1, 1, size=(30, 3))
        tied = [
            np.round(rng.uniform(-1, 1, size=(60, 3)), 1),
            np.round(rng.uniform(-1, 1, size=(7, 3)), 0),
            dup[rng.integers(0, 30, size=50)],
            np.concatenate([dup[:12], dup[:12]]),
            signed_zero,
            np.array([[0.0, 1.0, 2.0], [-0.0, 1.0, 2.0]]),
        ]
        copies = [untied[7][rng.permutation(128)], tied[0][rng.permutation(60)]]
        crops = [*untied, *tied, np.empty((0, 3)), *copies]
        crops = [crops[i] for i in rng.permutation(len(crops))]
        calls = []

        def counting(pts):
            calls.append(len(pts))
            return canonical_order(pts)

        canonical_order = pointnet._canonical_order
        monkeypatch.setattr(pointnet, "_canonical_order", counting)
        assert_rows_match_oracle(crops, w)
        # one fallback per tied crop, the permuted copy's included
        assert sorted(calls) == sorted([len(c) for c in tied] + [60])

    @pytest.mark.parametrize("n", [3, 20])
    def test_non_finite_coordinate_raises(self, n):
        # checked before the sort: a NaN in x must not sort past the +inf
        # pad keys and vanish under the padding
        rng = np.random.default_rng(119)
        w = random_weights(rng)
        for axis in range(3):
            for value in (np.nan, np.inf, -np.inf, 1e39):
                pts = rng.uniform(-1, 1, size=(n, 3))
                pts[int(rng.integers(0, n)), axis] = value
                crops = [rng.uniform(-1, 1, size=(40, 3)), pts, np.ones((2, 3))]
                with pytest.raises(ValueError, match="non-finite point"):
                    featurize_frame(crops, w)
                with pytest.raises(ValueError, match="non-finite point"):
                    pointnet_forward(pts, w)

    def test_last_bias_added_after_max(self):
        # the last layer's bias is added after the max-pool; signed zeros in
        # the bias, and in outputs forced to zero, must round as before
        rng = np.random.default_rng(111)
        layers = [
            (W, rng.uniform(-0.5, 0.5, size=len(b)))
            for W, b in init_layers(DEFAULT_POINTNET_WIDTHS, rng)
        ]
        W, b = layers[-1]
        W[:8] = 0.0
        W[8:16] = -0.0
        b[::3] = 0.0
        b[1::3] = -0.0
        w = PointNetWeights(tuple(layers))
        assert np.signbit(w.layers[-1][1][1::3]).all()
        crops = [rng.uniform(-1, 1, size=(n, 3)) for n in (128, 70, 20, 16, 5, 1, 0)]
        assert_rows_match_oracle(crops, w)

    @pytest.mark.parametrize("points_per_object", [200, 60])
    def test_real_crops_match_oracle(self, tmp_path, points_per_object):
        crops = real_crops(tmp_path, points_per_object)
        rng = np.random.default_rng(112)
        w = PointNetWeights(init_layers(DEFAULT_POINTNET_WIDTHS, rng))
        assert_rows_match_oracle(crops, w)

    def test_real_crops_near_float64_formula(self, tmp_path):
        # float32 featurizing costs at most 1e-6 of the largest feature
        # against the float64 MLP on the float64 crop
        crops = real_crops(tmp_path, 200)
        rng = np.random.default_rng(113)
        w = PointNetWeights(init_layers(DEFAULT_POINTNET_WIDTHS, rng))
        feats = featurize_frame(crops, w)
        exact = np.stack([
            mlp_forward(canonical(crop), f64_layers(w)).max(axis=0)
            for crop in crops
        ])
        assert np.abs(feats - exact).max() <= 1e-6 * np.abs(exact).max()

    def test_overflowing_products_raise(self):
        # every weight is finite in float32, but the products are not:
        # the featurizer raises ValueError, with no overflow warning first
        rng = np.random.default_rng(115)
        layers = init_layers(DEFAULT_POINTNET_WIDTHS, rng)
        scale = (1e30, 1.0, 1e10)
        w = PointNetWeights(tuple((W * k, b) for (W, b), k in zip(layers, scale)))
        for counts in ((40, 0, 20), (5,), (3, 60)):
            crops = [rng.uniform(-1, 1, size=(n, 3)) for n in counts]
            with pytest.raises(ValueError, match="non-finite feature"):
                featurize_frame(crops, w)
        with pytest.raises(ValueError, match="non-finite feature"):
            pointnet_forward(crops[0], w)


def model_with_pointnet(w):
    """A full model whose featurizer is w, with a matching compression net."""
    rng = np.random.default_rng(0)
    net = CompressionNet(init_layers((2 * w.feature_dim, 4, 4, 2, 2, 1), rng))
    return AffinityModel(w, net, 0.0)


class TestWeightsFile:
    """The featurizer section of a model file (magic PNW1)."""

    def test_round_trip_bitwise(self, tmp_path):
        rng = np.random.default_rng(108)
        w = PointNetWeights(init_layers((3, 64, 128, 512), rng))
        path = tmp_path / "w.bin"
        save_model(model_with_pointnet(w), path)
        loaded = load_model(path).pointnet
        assert len(loaded.layers) == len(w.layers)
        for (W1, b1), (W2, b2) in zip(w.layers, loaded.layers):
            assert W1.tobytes() == W2.tobytes()
            assert b1.tobytes() == b2.tobytes()

    def test_wrong_magic(self, tmp_path):
        path = tmp_path / "w.bin"
        path.write_bytes(b"XXXX" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_model(path)

    def test_truncated(self, tmp_path):
        rng = np.random.default_rng(109)
        w = PointNetWeights(init_layers((3, 4, 6), rng))
        path = tmp_path / "w.bin"
        save_model(model_with_pointnet(w), path)
        # cut inside the featurizer section, the first one in the file
        section = len(file_section(b"PNW1", w.layers))
        path.write_bytes(path.read_bytes()[: section - 10])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_hand_built_file(self, tmp_path):
        rng = np.random.default_rng(110)
        w1 = rng.uniform(-1, 1, size=(4, 3)).astype("<f4")
        w2 = rng.uniform(-1, 1, size=(512, 4)).astype("<f4")
        blob = b"PNW1" + struct.pack("<I", 2)
        blob += struct.pack("<II", 4, 3) + w1.tobytes() + np.zeros(4, "<f4").tobytes()
        blob += struct.pack("<II", 512, 4) + w2.tobytes() + np.zeros(512, "<f4").tobytes()
        cmp_layers = init_layers((1024, 4, 4, 2, 2, 1), rng)
        blob += file_section(b"CMP1", cmp_layers) + struct.pack("<f", 0.5)
        path = tmp_path / "hand.bin"
        path.write_bytes(blob)
        loaded = load_model(path)
        assert loaded.pointnet.widths == (3, 4, 512)
        assert loaded.pointnet.layers[0][0].astype("<f4").tobytes() == w1.tobytes()
        assert loaded.pointnet.layers[1][0].astype("<f4").tobytes() == w2.tobytes()
        assert loaded.dummy_score == 0.5

    def test_broken_chain_rejected(self, tmp_path):
        blob = b"PNW1" + struct.pack("<I", 2)
        blob += struct.pack("<II", 4, 3) + np.zeros(16, "<f4").tobytes()
        blob += struct.pack("<II", 2, 9) + np.zeros(20, "<f4").tobytes()
        path = tmp_path / "bad.bin"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="does not chain"):
            load_model(path)
