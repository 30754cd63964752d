"""Plain gradient descent on the affinity head.

The point featurizer stays frozen; only the compression stack and the
dummy score learn.  Every step samples a batch of frame pairs from a
labeled sequence (gap drawn from frame_gap_range), pushes the cached
features through the compression net, and descends the four-part
association loss.  Each step reports the loss measured before its
update, so a shrinking log means the updates help.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .affinity import CompressionNet, augment_and_softmax
from .association import TrackerConfig
from .cropping import crop_frame
from .losses import (
    GroundTruthAssignment,
    LossBreakdown,
    build_gt,
    loss_breakdown,
    loss_gradients,
)
from .model import AffinityModel, init_model, save_model
from .nets import mlp_backward, mlp_forward_cached
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


def _pair_loss_and_grads(model: AffinityModel, sample: PairSample):
    """Loss, compression-layer gradients, and dummy gradient for one pair."""
    prev, cur = sample.prev.features, sample.cur.features
    cp, cc = len(prev), len(cur)
    d = sample.prev.dim
    layers = model.compression.layers
    m = np.zeros((cp, cc))
    acts = None
    if cp and cc:
        cells = np.empty((cp * cc, 2 * d))
        cells[:, :d] = np.repeat(prev, cc, axis=0)
        cells[:, d:] = np.tile(cur, (cp, 1))
        out, acts = mlp_forward_cached(cells, layers)
        if not np.isfinite(out).all():
            raise RuntimeError("non-finite affinity score")
        m = out.reshape(cp, cc)
    aff = augment_and_softmax(m, model.dummy_score)
    losses = loss_breakdown(aff, sample.gt)
    if not np.isfinite(losses.total):
        raise RuntimeError("non-finite loss")
    grads = loss_gradients(aff.m1, aff.m2, sample.gt, dummy_score=model.dummy_score)
    d_m = grads.d_m1[:, :cc] + grads.d_m2[:cp, :]
    if cp and cc:
        layer_grads = mlp_backward(acts, layers, d_m.reshape(-1, 1))
    else:
        layer_grads = tuple(
            (np.zeros_like(W), np.zeros_like(b)) for W, b in layers
        )
    return losses, layer_grads, grads.d_dummy


def train_step(
    model: AffinityModel, batch, cfg: TrainConfig
) -> tuple[AffinityModel, LossBreakdown]:
    """One descent step over a batch; returns the pre-step batch loss."""
    batch = tuple(batch)
    if not batch:
        raise ValueError("batch must contain at least one pair")
    layers = model.compression.layers
    sums = np.zeros(4)
    acc = [(np.zeros_like(W), np.zeros_like(b)) for W, b in layers]
    d_dummy = 0.0
    for sample in batch:
        losses, layer_grads, dd = _pair_loss_and_grads(model, sample)
        sums += (losses.l_f, losses.l_b, losses.l_c, losses.l_a)
        for k, (dW, db) in enumerate(layer_grads):
            acc[k] = (acc[k][0] + dW, acc[k][1] + db)
        d_dummy += dd
    n = len(batch)
    lr = cfg.learning_rate
    new_layers = tuple(
        (W - lr * dW / n, b - lr * db / n)
        for (W, b), (dW, db) in zip(layers, acc)
    )
    for W, b in new_layers:
        if not (np.isfinite(W).all() and np.isfinite(b).all()):
            raise RuntimeError("training diverged: non-finite weight")
    new_dummy = model.dummy_score - lr * d_dummy / n
    if not np.isfinite(new_dummy):
        raise RuntimeError("training diverged: non-finite dummy score")
    mean = sums / n
    losses = LossBreakdown(
        mean[0], mean[1], mean[2], mean[3],
        (mean[0] + mean[1] + mean[2] + mean[3]) / 4.0,
    )
    net = CompressionNet(new_layers)
    return model.with_compression(net, new_dummy), losses


def training_pairs(
    src: SequenceSource, model: AffinityModel, cfg: TrainConfig, threads: int = 1
) -> tuple:
    """All candidate PairSamples for the configured frame gaps.

    Features are computed once per frame with the frozen featurizer and
    the tracker's cropping defaults, so training sees exactly what the
    tracker will see.
    """
    crop_defaults = TrackerConfig(seed=cfg.seed)
    frames = [load_admitted_frame(src, i) for i in range(src.frame_count)]
    feats = [
        featurize_frame(
            crop_frame(f, P=crop_defaults.points_per_object, seed=cfg.seed),
            model.pointnet,
            frame_index=f.index,
            threads=threads,
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
    threads: int = 1,
) -> tuple[AffinityModel, tuple[LossBreakdown, ...]]:
    """Run the descent loop; optionally write the model and the loss log."""
    if model is None:
        model = init_model(cfg.seed)
    pool = training_pairs(src, model, cfg, threads=threads)
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
