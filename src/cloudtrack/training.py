"""Plain gradient descent on the affinity head.

The point featurizer stays frozen; only the compression stack and the
dummy score learn.  Every step samples a batch of frame pairs from a
labeled sequence (gap drawn from frame_gap_range), pushes the cached
features through the compression net, and descends the four-part
association loss.  As in the tracker, the net's first layer projects
features instead of acting on concatenated pairs: the batch's
previous-frame features are stacked and projected with one product, and
so are its current-frame features.  Layers 2-5 see the whole batch in
one forward and one backward pass.  The first layer's gradient is summed
per feature row, so each half of it is one low-rank product of the
stacked row sums with the stacked features, subtracted from a copy of
W1.  Each step reports the loss measured before its update, so a
shrinking log means the updates help.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .affinity import CompressionNet, augment_and_softmax
from .cropping import crop_frame
from .losses import (
    GroundTruthAssignment,
    LossBreakdown,
    build_gt,
    loss_breakdown,
    loss_gradients,
)
from .model import AffinityModel, init_model, save_model
from .nets import mlp_backward, mlp_forward_cached, relu
from .pointnet import FeatureSet, featurize_frame
from .sequence_io import SequenceSource, format_float, load_admitted_frame

LOG_HEADER = "step,l_f,l_b,l_c,l_a,total"


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    learning_rate: float = 1e-2
    batch_pairs: int = 4
    seed: int = 0
    frame_gap_range: tuple = (1, 3)

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.learning_rate <= 0.0 or not np.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_pairs < 1:
            raise ValueError("batch_pairs must be >= 1")
        lo, hi = self.frame_gap_range
        if not 1 <= lo <= hi:
            raise ValueError("frame_gap_range must satisfy 1 <= lo <= hi")
        object.__setattr__(self, "frame_gap_range", (int(lo), int(hi)))


@dataclass(frozen=True)
class PairSample:
    """One training example: features of both frames plus the true links."""

    prev: FeatureSet
    cur: FeatureSet
    gt: GroundTruthAssignment


def train_step(
    model: AffinityModel, batch, cfg: TrainConfig
) -> tuple[AffinityModel, LossBreakdown]:
    """One descent step over a batch; returns the pre-step batch loss.

    The first layer is applied to each frame's features separately: pair
    (i, j) gets the hidden row relu(prev[i] @ w_prev + cur[j] @ w_cur + b1).
    The batch's previous-frame features are stacked into one matrix and its
    current-frame features into another, and each stack is projected with
    one product; a sample's hidden block is built from its slices of the
    two projections.  The hidden rows of every pair then go through layers
    2-5 in one forward and one backward pass.  Back at the first layer, the
    gradient of pair (i, j) is dz_ij [prev_i; cur_j]^T, so each half of the
    W1 gradient is one product of the stacked per-row sums of dz with the
    stacked features, of rank at most the number of rows, and is subtracted
    from a copy of W1 in place.
    """
    batch = tuple(batch)
    if not batch:
        raise ValueError("batch must contain at least one pair")
    layers = model.compression.layers
    w_prev, w_cur, b1 = model.compression.split_first_layer()
    width = len(b1)
    prev_x = np.concatenate([s.prev.features for s in batch])
    cur_x = np.concatenate([s.cur.features for s in batch])
    prev_splits = np.cumsum([s.prev.count for s in batch])[:-1]
    cur_splits = np.cumsum([s.cur.count for s in batch])[:-1]
    prev_h = np.split(prev_x @ w_prev, prev_splits)
    cur_h = np.split(cur_x @ w_cur + b1, cur_splits)
    hidden = np.concatenate([
        relu(p[:, None, :] + c[None, :, :]).reshape(-1, width)
        for p, c in zip(prev_h, cur_h)
    ])
    out, acts = mlp_forward_cached(hidden, layers[1:])
    if not np.isfinite(out).all():
        raise RuntimeError("non-finite affinity score")
    splits = np.cumsum([s.prev.count * s.cur.count for s in batch])[:-1]
    sums = np.zeros(4)
    d_scores = []
    d_dummy = 0.0
    for s, scores in zip(batch, np.split(out[:, 0], splits)):
        cp, cc = s.prev.count, s.cur.count
        a1, a2 = augment_and_softmax(scores.reshape(cp, cc), model.dummy_score)
        losses = loss_breakdown(a1, a2, s.gt)
        if not np.isfinite(losses.total):
            raise RuntimeError("non-finite loss")
        sums += (losses.l_f, losses.l_b, losses.l_c, losses.l_a)
        grads = loss_gradients(a1, a2, s.gt)
        d_scores.append((grads.d_m1[:, :cc] + grads.d_m2[:cp, :]).reshape(-1, 1))
        d_dummy += grads.d_dummy
    rest_grads, d_hidden = mlp_backward(acts, layers[1:], np.concatenate(d_scores))
    d_z = d_hidden * (hidden > 0.0)
    blocks = [
        dz.reshape(s.prev.count, s.cur.count, width)
        for s, dz in zip(batch, np.split(d_z, splits))
    ]
    d_prev = np.concatenate([dz.sum(axis=1) for dz in blocks])
    d_cur = np.concatenate([dz.sum(axis=0) for dz in blocks])
    n = len(batch)
    lr = cfg.learning_rate
    w1 = layers[0][0].copy()
    d = w_prev.shape[0]
    for half, d_rows, x in ((w1[:, :d], d_prev, prev_x), (w1[:, d:], d_cur, cur_x)):
        # lr / n scales the thin row-sum factor, not the width x D product
        half -= (d_rows * (lr / n)).T @ x
    new_layers = ((w1, b1 - lr * d_z.sum(axis=0) / n),) + tuple(
        (W - lr * dW / n, b - lr * db / n)
        for (W, b), (dW, db) in zip(layers[1:], rest_grads)
    )
    try:
        net = CompressionNet(new_layers)
    except ValueError:
        raise RuntimeError("training diverged: non-finite weight") from None
    new_dummy = model.dummy_score - lr * d_dummy / n
    if not np.isfinite(new_dummy):
        raise RuntimeError("training diverged: non-finite dummy score")
    losses = LossBreakdown(*(sums / n))
    return model.with_compression(net, new_dummy), losses


def training_pairs(
    src: SequenceSource, model: AffinityModel, cfg: TrainConfig
) -> tuple:
    """All candidate PairSamples for the configured frame gaps.

    Features are computed once per frame with the frozen featurizer and
    the same crop call as the tracker, so training sees exactly what the
    tracker will see.
    """
    frames = [load_admitted_frame(src, i) for i in range(src.frame_count)]
    feats = [
        featurize_frame(
            crop_frame(f, seed=cfg.seed), model.pointnet, frame_index=f.index
        )
        for f in frames
    ]
    ids = [[det.gt_id for det in f.detections] for f in frames]
    lo, hi = cfg.frame_gap_range
    samples = []
    for cur in range(src.frame_count):
        for gap in range(lo, hi + 1):
            prev = cur - gap
            if prev < 0:
                continue
            try:
                gt = build_gt(ids[prev], ids[cur])
            except ValueError as exc:
                raise ValueError(f"frames {prev}->{cur}: {exc}") from None
            samples.append(PairSample(feats[prev], feats[cur], gt))
    if not samples:
        raise ValueError("sequence too short for the configured frame gaps")
    return tuple(samples)


def train(
    src: SequenceSource,
    cfg: TrainConfig,
    model: AffinityModel | None = None,
    weights_out=None,
    log_out=None,
) -> tuple[AffinityModel, tuple[LossBreakdown, ...]]:
    """Run the descent loop; optionally write the model and the loss log."""
    if model is None:
        model = init_model(cfg.seed)
    pool = training_pairs(src, model, cfg)
    rng = np.random.default_rng(cfg.seed)
    log = []
    for step in range(cfg.steps):
        picks = rng.integers(0, len(pool), size=cfg.batch_pairs)
        batch = [pool[int(i)] for i in picks]
        try:
            model, losses = train_step(model, batch, cfg)
        except RuntimeError as exc:
            raise RuntimeError(f"step {step}: {exc}") from None
        log.append(losses)
    if weights_out is not None:
        save_model(model, weights_out)
    if log_out is not None:
        write_loss_log(log_out, log)
    return model, tuple(log)


def write_loss_log(path, log) -> None:
    lines = [LOG_HEADER]
    for step, b in enumerate(log):
        lines.append(
            f"{step},"
            + ",".join(format_float(v) for v in (b.l_f, b.l_b, b.l_c, b.l_a, b.total))
        )
    Path(path).write_text("\n".join(lines) + "\n")
