"""Model container and the two-section weights file."""

import io
from dataclasses import replace

import numpy as np
import pytest

from cloudtrack.affinity import CompressionNet
from cloudtrack.model import (
    AffinityModel,
    init_model,
    load_model,
    save_model,
)
from cloudtrack.nets import init_layers, write_layers
from cloudtrack.pointnet import PointNetWeights


def file_section(magic, layers):
    """One model-file section of float32 layers, as save_model writes it."""
    buf = io.BytesIO()
    write_layers(buf, magic, layers)
    return buf.getvalue()


def layers_equal(a, b):
    return len(a) == len(b) and all(
        W1.tobytes() == W2.tobytes() and b1.tobytes() == b2.tobytes()
        for (W1, b1), (W2, b2) in zip(a, b)
    )


class TestInitModel:
    def test_default_widths(self):
        model = init_model(seed=3)
        assert model.pointnet.widths == (3, 64, 128, 512)
        assert model.compression.widths == (1024, 512, 256, 128, 64, 1)
        assert model.dummy_score == 0.0

    def test_seed_determinism(self):
        a = init_model(seed=7)
        b = init_model(seed=7)
        assert layers_equal(a.pointnet.layers, b.pointnet.layers)
        assert layers_equal(a.compression.layers, b.compression.layers)
        c = init_model(seed=8)
        assert not layers_equal(a.pointnet.layers, c.pointnet.layers)

    def test_width_consistency_enforced(self):
        rng = np.random.default_rng(401)
        pn = PointNetWeights(init_layers((3, 8), rng))
        cmp_net = CompressionNet(init_layers((10, 4, 4, 2, 2, 1), rng))
        with pytest.raises(ValueError):
            AffinityModel(pn, cmp_net, 0.0)


class TestModelFile:
    def test_round_trip_bitwise(self, tmp_path):
        model = init_model(seed=11, pointnet_widths=(3, 8, 16),
                           compression_widths=(32, 8, 4, 4, 2, 1))
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        assert layers_equal(model.pointnet.layers, loaded.pointnet.layers)
        assert layers_equal(model.compression.layers, loaded.compression.layers)
        assert loaded.dummy_score == model.dummy_score

    def test_trained_dummy_round_trips_through_f32(self, tmp_path):
        model = init_model(seed=12, pointnet_widths=(3, 4),
                           compression_widths=(8, 4, 4, 2, 2, 1))
        moved = replace(model, dummy_score=0.3712)
        path = tmp_path / "model.bin"
        save_model(moved, path)
        first = load_model(path)
        save_model(first, path)
        second = load_model(path)
        assert first.dummy_score == second.dummy_score
        assert abs(first.dummy_score - 0.3712) < 1e-6

    def test_missing_second_section(self, tmp_path):
        model = init_model(seed=14, pointnet_widths=(3, 4),
                           compression_widths=(8, 4, 4, 2, 2, 1))
        path = tmp_path / "only_pn.bin"
        path.write_bytes(file_section(b"PNW1", model.pointnet.layers))
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_truncated_dummy(self, tmp_path):
        model = init_model(seed=15, pointnet_widths=(3, 4),
                           compression_widths=(8, 4, 4, 2, 2, 1))
        path = tmp_path / "model.bin"
        save_model(model, path)
        path.write_bytes(path.read_bytes()[:-2])
        with pytest.raises(ValueError, match="truncated"):
            load_model(path)

    def test_trailing_bytes_rejected(self, tmp_path):
        a = init_model(seed=16, pointnet_widths=(3, 4),
                       compression_widths=(8, 4, 4, 2, 2, 1))
        b = init_model(seed=17, pointnet_widths=(3, 4),
                       compression_widths=(8, 4, 4, 2, 2, 1))
        pa, pb = tmp_path / "a.bin", tmp_path / "b.bin"
        save_model(a, pa)
        save_model(b, pb)
        both = tmp_path / "both.bin"
        both.write_bytes(pa.read_bytes() + pb.read_bytes())
        extra = pb.stat().st_size
        message = f"{extra} trailing bytes after the dummy score"
        with pytest.raises(ValueError, match=message):
            load_model(both)
        pa.write_bytes(pa.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="1 trailing bytes"):
            load_model(pa)

    def test_values_beyond_float32_refused_before_writing(self, tmp_path):
        # finite in float64, infinite in float32: the compression net refuses
        # it when built, as PointNetWeights does, so no model holds a weight
        # its file could not
        model = init_model(seed=18, pointnet_widths=(3, 4),
                           compression_widths=(8, 4, 4, 2, 2, 1))
        assert all(W.dtype == b.dtype == np.float32 for W, b in model.compression.layers)
        layers = [(W.astype(np.float64), b) for W, b in model.compression.layers]
        layers[0][0][1, 2] = 1e39
        with pytest.raises(ValueError, match="layer 0: non-finite weight entry"):
            CompressionNet(layers)
        path = tmp_path / "model.bin"
        with pytest.raises(ValueError, match="dummy score outside the float32 range"):
            save_model(replace(model, dummy_score=-1e39), path)
        assert not path.exists()

    def test_loads_float32_views_and_names_the_file_of_a_bad_weight(self, tmp_path):
        model = init_model(seed=19, pointnet_widths=(3, 4),
                           compression_widths=(8, 4, 4, 2, 2, 1))
        path = tmp_path / "model.bin"
        save_model(model, path)
        loaded = load_model(path)
        for W, b in (*loaded.pointnet.layers, *loaded.compression.layers):
            assert W.dtype == b.dtype == np.float32
            assert W.flags.c_contiguous and not W.flags.writeable
        # the compression section's layer 1 weight starts after its magic,
        # count, layer 0 (8 header bytes, 4x8 weights, 4 biases) and header
        pn = len(file_section(b"PNW1", model.pointnet.layers))
        at = pn + 8 + 8 + 4 * (32 + 4) + 8
        blob = bytearray(path.read_bytes())
        blob[at : at + 4] = np.float32(np.nan).tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match=r"model\.bin: layer 1: non-finite weight"):
            load_model(path)
