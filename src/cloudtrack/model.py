"""Model container and the on-disk weights format.

One file holds two sections back to back: the point-feature MLP (magic
``PNW1``) and the compression net (magic ``CMP1``), followed by a single
f32 dummy score.  Sections use the layer
codec from nets.py; everything is little-endian f32, the type both
networks hold, so a save/load cycle is bit-exact and loading reads the
weights in place.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .affinity import DEFAULT_COMPRESSION_WIDTHS, CompressionNet
from .nets import init_layers, unpack_layers, validate_layers, write_layers
from .pointnet import DEFAULT_POINTNET_WIDTHS, PointNetWeights

MAGIC_POINTNET = b"PNW1"
MAGIC_COMPRESSION = b"CMP1"


@dataclass(frozen=True, eq=False)
class AffinityModel:
    """Frozen point featurizer, trainable compression net, dummy score."""

    pointnet: PointNetWeights
    compression: CompressionNet
    dummy_score: float = 0.0

    def __post_init__(self):
        if 2 * self.pointnet.feature_dim != self.compression.in_dim:
            raise ValueError(
                f"pair width {2 * self.pointnet.feature_dim} != "
                f"compression input {self.compression.in_dim}"
            )
        if not np.isfinite(self.dummy_score):
            raise ValueError("dummy_score must be finite")


def init_model(
    seed: int = 0,
    pointnet_widths=DEFAULT_POINTNET_WIDTHS,
    compression_widths=DEFAULT_COMPRESSION_WIDTHS,
) -> AffinityModel:
    """Fresh model; weights land on the f32 grid so files round-trip exactly."""
    rng = np.random.default_rng(seed)
    return AffinityModel(
        pointnet=PointNetWeights(init_layers(pointnet_widths, rng)),
        compression=CompressionNet(init_layers(compression_widths, rng)),
        dummy_score=0.0,
    )


def save_model(model: AffinityModel, path) -> None:
    """Write both sections and the dummy score; refuse what float32 cannot hold.

    Everything is validated before the file is opened, and the file is
    written array by array, without building it in memory.
    """
    sections = (
        (MAGIC_POINTNET, validate_layers(model.pointnet.layers)),
        (MAGIC_COMPRESSION, validate_layers(model.compression.layers)),
    )
    with np.errstate(over="ignore"):
        dummy = np.float32(model.dummy_score)
    if not np.isfinite(dummy):
        raise ValueError("dummy score outside the float32 range")
    with open(path, "wb") as file:
        for magic, layers in sections:
            write_layers(file, magic, layers)
        file.write(struct.pack("<f", dummy))


def load_model(path) -> AffinityModel:
    """Read a full model file (both sections required, nothing after).

    The weights are float32 views of the file's bytes, validated once,
    by the network that holds them, before the next section is read.
    """
    buf = Path(path).read_bytes()
    origin = str(path)

    def network(kind, magic, offset):
        layers, offset = unpack_layers(buf, offset, magic, origin)
        try:
            return kind(layers), offset
        except ValueError as exc:
            raise ValueError(f"{origin}: {exc}") from None

    pointnet, offset = network(PointNetWeights, MAGIC_POINTNET, 0)
    compression, offset = network(CompressionNet, MAGIC_COMPRESSION, offset)
    if offset + 4 > len(buf):
        raise ValueError(f"{origin}: truncated at byte {offset}")
    (dummy,) = struct.unpack_from("<f", buf, offset)
    extra = len(buf) - (offset + 4)
    if extra:
        raise ValueError(f"{origin}: {extra} trailing bytes after the dummy score")
    return AffinityModel(pointnet, compression, float(dummy))
