"""Plain gradient descent on the affinity head.

The point featurizer stays frozen; only the compression stack and the
dummy score learn.  training_pairs loads, crops and featurizes the
sequence one frame at a time, keeping only each frame's gt ids and
features, and pairs every frame with the frames FRAME_GAPS before it.
Its crops are the tracker's: they depend on the frame alone, and the
run seed draws only the initial weights and the batches.
train() builds one TrainState from init_model(seed): a mutable copy of
the compression weights and the dummy score, holding the first layer as
its two contiguous halves, the columns that act on previous-frame
features and those that act on current-frame features.  Every step is
one train_step, which descends the state in place over a batch of
sampled pairs; the model is built from the state once, at the end.  As
in the tracker, the first layer projects features instead of acting on
concatenated pairs: the batch's previous-frame features are stacked and
projected through their half with one product, and so are its
current-frame features.  Layers 2-5 see the whole batch in one forward
and one backward pass.  The first layer's gradient is summed per
feature row, so each half's update is one low-rank product of the
stacked row sums with the stacked features, subtracted in place.  Each
step reports the loss measured before its update, so a shrinking log
means the updates help.
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

# Each frame is paired with the frames this many steps before it.
FRAME_GAPS = range(1, 4)


@dataclass(frozen=True)
class TrainConfig:
    steps: int
    learning_rate: float = 1e-2
    batch_pairs: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.steps < 0:
            raise ValueError("steps must be >= 0")
        if self.learning_rate <= 0.0 or not np.isfinite(self.learning_rate):
            raise ValueError("learning_rate must be positive and finite")
        if self.batch_pairs < 1:
            raise ValueError("batch_pairs must be >= 1")


@dataclass(frozen=True)
class PairSample:
    """One training example: features of both frames plus the true links."""

    prev: FeatureSet
    cur: FeatureSet
    gt: GroundTruthAssignment


class TrainState:
    """Mutable compression weights and dummy score, descended by train_step.

    Built from a model, whose arrays it copies: W1 as its two contiguous
    out x D halves, w_prev and w_cur (from split_first_layer), b1 and
    layers 2-5 as they are.  Neither the model it was built from nor any
    model it returns changes when a later step descends it.
    """

    def __init__(self, model: AffinityModel):
        w_prev, w_cur, b1 = model.compression.split_first_layer()
        self.pointnet = model.pointnet
        self.w_prev = w_prev.T.copy()
        self.w_cur = w_cur.T.copy()
        self.b1 = b1.copy()
        self.rest = tuple((W.copy(), b.copy()) for W, b in model.compression.layers[1:])
        self.dummy_score = model.dummy_score

    def model(self) -> AffinityModel:
        """The current weights as a model, sharing no array with the state."""
        w1 = np.concatenate((self.w_prev, self.w_cur), axis=1)
        rest = tuple((W.copy(), b.copy()) for W, b in self.rest)
        net = CompressionNet(((w1, self.b1.copy()), *rest))
        return AffinityModel(self.pointnet, net, self.dummy_score)


def train_step(state: TrainState, batch, learning_rate: float) -> LossBreakdown:
    """Descend state in place over a batch; returns the pre-step batch loss.

    The first layer is applied to each frame's features separately:
    pair (i, j) gets the hidden row relu(w_prev prev_i + w_cur cur_j + b1).
    The batch's previous-frame features are stacked into one matrix and
    its current-frame features into another, and each stack is
    projected with one product; a sample's hidden block is built from
    its slices of the two projections.  The hidden rows of every pair
    then go through layers 2-5 in one forward and one backward pass.
    Back at the first layer, the gradient of pair (i, j) is
    dz_ij [prev_i; cur_j]^T, so each half's gradient is one product of
    the stacked per-row sums of dz with the stacked features, of rank at
    most the number of rows, and is subtracted from the half in place.
    A non-finite weight or dummy score after the update raises
    RuntimeError and leaves the state unusable.
    """
    batch = tuple(batch)
    if not batch:
        raise ValueError("batch must contain at least one pair")
    width = len(state.b1)
    prev_x = np.concatenate([s.prev.features for s in batch])
    cur_x = np.concatenate([s.cur.features for s in batch])
    prev_splits = np.cumsum([s.prev.count for s in batch])[:-1]
    cur_splits = np.cumsum([s.cur.count for s in batch])[:-1]
    prev_h = np.split(prev_x @ state.w_prev.T, prev_splits)
    cur_h = np.split(cur_x @ state.w_cur.T + state.b1, cur_splits)
    hidden = np.concatenate([
        relu(p[:, None, :] + c[None, :, :]).reshape(-1, width)
        for p, c in zip(prev_h, cur_h)
    ])
    out, acts = mlp_forward_cached(hidden, state.rest)
    if not np.isfinite(out).all():
        raise RuntimeError("non-finite affinity score")
    splits = np.cumsum([s.prev.count * s.cur.count for s in batch])[:-1]
    sums = np.zeros(4)
    d_scores = []
    d_dummy = 0.0
    for s, scores in zip(batch, np.split(out[:, 0], splits)):
        cp, cc = s.prev.count, s.cur.count
        a1, a2 = augment_and_softmax(scores.reshape(cp, cc), state.dummy_score)
        losses = loss_breakdown(a1, a2, s.gt)
        if not np.isfinite(losses.total):
            raise RuntimeError("non-finite loss")
        sums += (losses.l_f, losses.l_b, losses.l_c, losses.l_a)
        grads = loss_gradients(a1, a2, s.gt)
        d_scores.append((grads.d_m1[:, :cc] + grads.d_m2[:cp, :]).reshape(-1, 1))
        d_dummy += grads.d_dummy
    rest_grads, d_hidden = mlp_backward(acts, state.rest, np.concatenate(d_scores))
    d_z = d_hidden * (hidden > 0.0)
    blocks = [
        dz.reshape(s.prev.count, s.cur.count, width)
        for s, dz in zip(batch, np.split(d_z, splits))
    ]
    d_prev = np.concatenate([dz.sum(axis=1) for dz in blocks])
    d_cur = np.concatenate([dz.sum(axis=0) for dz in blocks])
    n = len(batch)
    lr = learning_rate
    halves = ((state.w_prev, d_prev, prev_x), (state.w_cur, d_cur, cur_x))
    for half, d_rows, x in halves:
        # lr / n scales the thin row-sum factor, not the width x D product
        half -= (d_rows * (lr / n)).T @ x
    state.b1 -= lr * d_z.sum(axis=0) / n
    for (W, b), (dW, db) in zip(state.rest, rest_grads):
        W -= lr * dW / n
        b -= lr * db / n
    weights = (state.w_prev, state.w_cur, state.b1, *(a for wb in state.rest for a in wb))
    if not all(np.isfinite(a).all() for a in weights):
        raise RuntimeError("training diverged: non-finite weight") from None
    state.dummy_score = state.dummy_score - lr * d_dummy / n
    if not np.isfinite(state.dummy_score):
        raise RuntimeError("training diverged: non-finite dummy score") from None
    return LossBreakdown(*(sums / n))


def training_pairs(
    src: SequenceSource, model: AffinityModel, cfg: TrainConfig
) -> tuple:
    """All PairSamples whose frames lie FRAME_GAPS apart.

    Frames are loaded, cropped and featurized one at a time, with the
    frozen featurizer and the same crop call as the tracker; only each
    frame's gt ids and features are kept.  A crop depends on its frame
    alone, so training sees exactly the features the tracker will see,
    whatever cfg.seed is.
    """
    ids, feats = [], []
    for i in range(src.frame_count):
        frame = load_admitted_frame(src, i)
        ids.append([det.gt_id for det in frame.detections])
        feats.append(featurize_frame(crop_frame(frame), model.pointnet))
    if all(gid is None for frame_ids in ids for gid in frame_ids):
        raise ValueError(
            "no admitted detection in any frame has a gt_id; "
            "training needs a labeled sequence"
        )
    samples = []
    for cur in range(src.frame_count):
        for gap in FRAME_GAPS:
            prev = cur - gap
            if prev < 0:
                continue
            try:
                gt = build_gt(ids[prev], ids[cur])
            except ValueError as exc:
                raise ValueError(f"frames {prev}->{cur}: {exc}") from None
            samples.append(PairSample(feats[prev], feats[cur], gt))
    if not samples:
        raise ValueError("sequence too short to pair any two frames")
    return tuple(samples)


def train(
    src: SequenceSource,
    cfg: TrainConfig,
    weights_out=None,
    log_out=None,
) -> tuple[AffinityModel, tuple[LossBreakdown, ...]]:
    """Descend init_model(cfg.seed), one train_step per step; optionally write."""
    model = init_model(cfg.seed)
    pool = training_pairs(src, model, cfg)
    state = TrainState(model)
    del model  # the loop keeps only the state's weights alive
    rng = np.random.default_rng(cfg.seed)
    log = []
    for step in range(cfg.steps):
        picks = rng.integers(0, len(pool), size=cfg.batch_pairs)
        batch = [pool[int(i)] for i in picks]
        try:
            log.append(train_step(state, batch, cfg.learning_rate))
        except RuntimeError as exc:
            raise RuntimeError(f"step {step}: {exc}") from None
    model = state.model()
    del state  # its arrays are not needed while the model is saved
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
