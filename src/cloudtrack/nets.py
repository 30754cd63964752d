"""Shared dense-layer plumbing: validation, forward pass, init, file codec.

Every network in the package is a stack of (weight, bias) pairs applied
pointwise with ReLU between layers and no activation after the last.
Weight matrices are out_dim x in_dim, applied as x @ W.T + b.

On disk a stack is one section: a 4-byte magic, a u32 layer count, then
per layer u32 out_dim, u32 in_dim, row-major f32 weights, f32 biases.
Everything is little-endian.  In memory every network's weights are
float32, the type files store and both networks run in: a file loads
straight into its layers, and freshly initialized weights are drawn on
the f32 grid.  A weight that float32 cannot hold is refused when the
layers are validated, so every network held in memory can be written
and loads again bit for bit.
"""

from __future__ import annotations

import math
import struct

import numpy as np

Layers = tuple[tuple[np.ndarray, np.ndarray], ...]


def relu(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def validate_layers(layers, in_dim: int | None = None) -> Layers:
    """Cast to float32, then check the chain and finiteness (overflow is inf)."""
    if not layers:
        raise ValueError("network needs at least one layer")
    prev = in_dim
    out = []
    for k, (W, b) in enumerate(layers):
        with np.errstate(over="ignore"):
            W = np.ascontiguousarray(W, dtype=np.float32)
            b = np.ascontiguousarray(b, dtype=np.float32)
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


def distinct_rows(*parts) -> tuple[np.ndarray, np.ndarray]:
    """Canonical batch order: np.unique's (first, inverse) over the rows' bytes.

    Each row's key is its bytes in every part, in turn, so the order of
    the distinct rows depends on their values alone, not on where they
    stood in the input.
    """
    key = np.concatenate([np.ascontiguousarray(a).view(np.uint8) for a in parts], axis=1)
    key = key.view(np.dtype((np.void, key.shape[1])))[:, 0]
    _, first, inverse = np.unique(key, return_index=True, return_inverse=True)
    return first, inverse


def layer_widths(layers: Layers) -> tuple[int, ...]:
    return (layers[0][0].shape[1],) + tuple(W.shape[0] for W, _ in layers)


def mlp_forward(x: np.ndarray, layers: Layers) -> np.ndarray:
    """Apply the stack to rows of x; ReLU between layers, none after last."""
    return mlp_forward_cached(x, layers)[0]


def mlp_forward_cached(x: np.ndarray, layers: Layers):
    """Forward pass keeping each layer's input; returns (output, inputs)."""
    inputs = [x]
    for W, b in layers[:-1]:
        x = x @ W.T
        x += b
        np.maximum(x, 0.0, out=x)
        inputs.append(x)
    W, b = layers[-1]
    return x @ W.T + b, inputs


def mlp_backward(inputs, layers: Layers, d_out: np.ndarray):
    """Gradient of a scalar objective w.r.t. every weight, bias and the input.

    inputs comes from mlp_forward_cached; d_out is the objective's
    gradient at the stack's output.  Returns (layer gradients, gradient
    at the stack's input), in d_out's type when the layers and inputs
    share it.  The ReLU derivative at exactly zero is taken as zero.
    """
    grads: list = [None] * len(layers)
    dz = np.asarray(d_out)
    for k in reversed(range(len(layers))):
        W, _ = layers[k]
        a = inputs[k]
        grads[k] = (dz.T @ a, dz.sum(axis=0))
        dz = dz @ W
        if k:
            np.multiply(dz, a > 0.0, out=dz)
    return tuple(grads), dz


def init_layers(widths, rng: np.random.Generator) -> Layers:
    """He-style uniform init rounded to float32, zero biases."""
    out = []
    for fan_in, fan_out in zip(widths, widths[1:]):
        limit = math.sqrt(6.0 / fan_in)
        W = rng.uniform(-limit, limit, size=(fan_out, fan_in)).astype(np.float32)
        out.append((W, np.zeros(fan_out, dtype=np.float32)))
    return tuple(out)


def write_layers(file, magic: bytes, layers: Layers) -> None:
    """Write one file section of validated layers, array by array.

    Each float32 array is written from its own buffer (a copy only on a
    big-endian machine), so no section is built in memory.
    """
    file.write(magic + struct.pack("<I", len(layers)))
    for W, b in layers:
        file.write(struct.pack("<II", W.shape[0], W.shape[1]))
        file.write(W.astype("<f4", copy=False).data)
        file.write(b.astype("<f4", copy=False).data)


def unpack_layers(buf: bytes, offset: int, magic: bytes, origin: str):
    """Parse one section starting at offset; returns (layers, next offset).

    The layers are float32 views of buf, neither copied nor validated:
    the network built from them validates them once.
    """
    view = memoryview(buf)

    def take(n):
        nonlocal offset
        if offset + n > len(view):
            raise ValueError(f"{origin}: truncated at byte {offset}")
        offset += n
        return offset - n

    start = take(4)
    got = bytes(view[start:offset])
    if got != magic:
        raise ValueError(f"{origin}: bad magic {got!r}, expected {magic!r}")
    (count,) = struct.unpack_from("<I", view, take(4))
    layers = []
    for _ in range(count):
        out_dim, in_dim = struct.unpack_from("<II", view, take(8))
        size = out_dim * in_dim
        W = np.frombuffer(view, "<f4", size, take(4 * size)).reshape(out_dim, in_dim)
        b = np.frombuffer(view, "<f4", out_dim, take(4 * out_dim))
        layers.append((W, b))
    return tuple(layers), offset
