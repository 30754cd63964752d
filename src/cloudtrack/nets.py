"""Shared dense-layer plumbing: validation, forward pass, init, file codec.

Every network in the package is a stack of (weight, bias) pairs applied
pointwise with ReLU between layers and no activation after the last.
Weight matrices are out_dim x in_dim, applied as x @ W.T + b.

On disk a stack is one section: a 4-byte magic, a u32 layer count, then
per layer u32 out_dim, u32 in_dim, row-major f32 weights, f32 biases.
Everything is little-endian.  In memory weights are float64; files are
float32, so freshly initialized weights are generated on the f32 grid
to make save/load round trips bit-exact.
"""

from __future__ import annotations

import math
import struct

import numpy as np

Layers = tuple[tuple[np.ndarray, np.ndarray], ...]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def validate_layers(layers, in_dim: int | None = None) -> Layers:
    """Normalize to float64 and check the dimension chain; returns a tuple."""
    if not layers:
        raise ValueError("network needs at least one layer")
    prev = in_dim
    out = []
    for k, (W, b) in enumerate(layers):
        W = np.ascontiguousarray(W, dtype=np.float64)
        b = np.ascontiguousarray(b, dtype=np.float64)
        if W.ndim != 2:
            raise ValueError(f"layer {k}: weight must be 2-D, got {W.shape}")
        if b.shape != (W.shape[0],):
            raise ValueError(f"layer {k}: bias shape {b.shape} != ({W.shape[0]},)")
        if prev is not None and W.shape[1] != prev:
            raise ValueError(
                f"layer {k}: input width {W.shape[1]} does not chain from {prev}"
            )
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise ValueError(f"layer {k}: non-finite weight entry")
        prev = W.shape[0]
        out.append((W, b))
    return tuple(out)


def layer_widths(layers: Layers) -> tuple[int, ...]:
    return (layers[0][0].shape[1],) + tuple(W.shape[0] for W, _ in layers)


def mlp_forward(x: np.ndarray, layers: Layers) -> np.ndarray:
    """Apply the stack to rows of x; ReLU between layers, none after last."""
    return mlp_forward_cached(x, layers)[0]


def mlp_forward_cached(x: np.ndarray, layers: Layers):
    """Forward pass keeping each layer's input; returns (output, inputs)."""
    inputs = [x]
    for W, b in layers[:-1]:
        x = relu(x @ W.T + b)
        inputs.append(x)
    W, b = layers[-1]
    return x @ W.T + b, inputs


def mlp_backward(inputs, layers: Layers, d_out: np.ndarray):
    """Gradient of a scalar objective w.r.t. every weight, bias and the input.

    inputs comes from mlp_forward_cached; d_out is the objective's
    gradient at the stack's output.  Returns (layer gradients, gradient
    at the stack's input).  The ReLU derivative at exactly zero is taken
    as zero.
    """
    grads: list = [None] * len(layers)
    dz = np.asarray(d_out, dtype=np.float64)
    for k in reversed(range(len(layers))):
        W, _ = layers[k]
        a = inputs[k]
        grads[k] = (dz.T @ a, dz.sum(axis=0))
        dz = dz @ W
        if k:
            dz = dz * (a > 0.0)
    return tuple(grads), dz


def init_layers(widths, rng: np.random.Generator) -> Layers:
    """He-style uniform init, zero biases, values exactly on the f32 grid."""
    out = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        limit = math.sqrt(6.0 / fan_in)
        W = rng.uniform(-limit, limit, size=(fan_out, fan_in))
        W = W.astype(np.float32).astype(np.float64)
        out.append((W, np.zeros(fan_out)))
    return tuple(out)


def pack_layers(magic: bytes, layers: Layers) -> bytes:
    parts = [magic, struct.pack("<I", len(layers))]
    for W, b in layers:
        parts.append(struct.pack("<II", W.shape[0], W.shape[1]))
        parts.append(W.astype("<f4").tobytes())
        parts.append(b.astype("<f4").tobytes())
    return b"".join(parts)


def unpack_layers(buf: bytes, offset: int, magic: bytes, origin: str):
    """Parse one section starting at offset; returns (layers, next offset)."""

    def need(n):
        if offset_box[0] + n > len(buf):
            raise ValueError(f"{origin}: truncated at byte {offset_box[0]}")
        start = offset_box[0]
        offset_box[0] += n
        return buf[start : start + n]

    offset_box = [offset]
    got = need(4)
    if got != magic:
        raise ValueError(f"{origin}: bad magic {got!r}, expected {magic!r}")
    (count,) = struct.unpack("<I", need(4))
    layers = []
    for _ in range(count):
        out_dim, in_dim = struct.unpack("<II", need(8))
        W = np.frombuffer(need(4 * out_dim * in_dim), dtype="<f4")
        b = np.frombuffer(need(4 * out_dim), dtype="<f4")
        layers.append(
            (
                W.astype(np.float64).reshape(out_dim, in_dim),
                b.astype(np.float64),
            )
        )
    try:
        return validate_layers(layers), offset_box[0]
    except ValueError as exc:
        raise ValueError(f"{origin}: {exc}") from None
