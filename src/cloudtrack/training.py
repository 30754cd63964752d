"""Plain gradient descent on the affinity head.

The point featurizer stays frozen; only the compression stack and the
dummy score learn.  training_pairs reads the tracker's windows
(association.featurized_windows), keeping only each frame's gt ids and
its slice of its window's features, and pairs every frame with the
frames FRAME_GAPS before it.  So training sees the tracker's own
feature rows, and the run seed draws only the initial weights and the
batches.

Because the featurizer is frozen, every feature row a step sees is one
of the pool's R rows, and a first-layer update, a sum of outer products
with those rows, changes each D-wide half of W1 only inside their span.
So train() takes an orthonormal basis Q of that span (D x min(R, D),
reduce_pool), maps the pool's features to x Q, and descends each half
as w Q instead.  In real arithmetic this is the full-width descent
exactly; on a 4-object, 40-frame scene (R = 150, D = 512) it makes
the first layer's products, update and finiteness check about a
third as wide.  The basis rests on the frozen featurizer: if the
point MLP ever trains with the head, its features move every step and
the basis goes with it.

train() builds one TrainState from init_model(seed) and the basis, and
every step is one train_step, which descends the state in place over a
batch of sampled pairs; the model is lifted from the state once, at
the end.  As in the tracker, the first layer projects features instead
of acting on concatenated pairs: the batch's previous-frame features
are stacked and projected through their half with one product, and so
are its current-frame features.  Layers 2-5 see the whole batch in one
forward and one backward pass, and so does the loss: the batch's
scores are padded into one stack (losses.stack_masks), and
augment_and_softmax, loss_breakdown and loss_gradients each run once
per step, with no loop over the pairs.  Their sums add in index order,
and the padding adds only zeros, so each pair's loss and gradients are
its own call's.  The first layer's gradient is summed per feature row,
so each half's update is one low-rank product of the stacked row sums
with the stacked features, subtracted in place.
Each step reports the loss measured before its update, so a shrinking
log means the updates help.

The compression stack trains in float32, the type the tracker runs it
in and model files store: the mapped features, the reduced halves, b1
and layers 2-5 are float32, and each step casts its scaled score
gradient to float32 once.  The scores, softmaxes, losses, their
gradients and the dummy score stay float64, and the model is lifted
from the state in float64 and rounded to float32 once.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .affinity import CompressionNet, augment_and_softmax, first_layer_halves
from .association import featurized_windows
from .losses import (
    GroundTruthAssignment,
    LossBreakdown,
    build_gt,
    loss_breakdown,
    loss_gradients,
    stack_gt,
)
from .model import AffinityModel, init_model, save_model
from .nets import mlp_backward, mlp_forward_cached
from .sequence_io import SequenceSource, format_float

LOG_HEADER = "step,l_f,l_b,l_c,l_a,total"

# Each frame is paired with the frames this many steps before it.
FRAME_GAPS = range(1, 4)

# TrainState.model() lifts W1 this many rows at a time.
LIFT_ROWS = 64


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


@dataclass(frozen=True, eq=False)
class PairSample:
    """One training example: both frames' float32 features plus the true links."""

    prev: np.ndarray
    cur: np.ndarray
    gt: GroundTruthAssignment


class TrainState:
    """Compression weights and dummy score, descended in place by train_step.

    Built from a model and an orthonormal basis Q of the training
    features' span (D x k, from reduce_pool): W1's halves are held as
    w_prev = W1_prev Q and w_cur = W1_cur Q, each out x k, and b1 and
    layers 2-5 as copies, all float32 with reduce_pool's float32 Q (the
    halves take the product's type).  train_step must see the features
    as x Q.  The state keeps the model's W1, which it never writes, and
    model() lifts each half back in float64 as
    W1_half + (w - W1_half Q) Q^T, with W1_half Q the product the half
    started from: every update lies in the span of Q, so this is the
    full-width weight, and a half no step has moved lifts to exactly the
    columns it came from.  With Q = I the halves are W1's own columns.
    Neither the model it was built from nor any model it returns
    changes when a later step descends it.
    """

    def __init__(self, model: AffinityModel, basis: np.ndarray):
        w1, b1 = model.compression.layers[0]
        self.pointnet = model.pointnet
        self.w1 = w1
        self.basis = basis
        self.w_prev, self.w_cur = (
            w1[:, cols] @ basis for cols in first_layer_halves(w1)
        )
        self.b1 = b1.copy()
        self.rest = tuple((W.copy(), b.copy()) for W, b in model.compression.layers[1:])
        self.dummy_score = model.dummy_score
        self.zeros = np.zeros(max(a.size for a in self.weights()), dtype=b1.dtype)

    def weights(self) -> tuple:
        """Every array train_step descends."""
        return (self.w_prev, self.w_cur, self.b1, *(a for wb in self.rest for a in wb))

    def weights_finite(self) -> bool:
        """Whether every weight is finite, by one dot with zeros per array.

        A finite entry times zero is zero and a non-finite one is NaN,
        which the dot's sum carries; this reads each array once and
        builds no mask.
        """
        with np.errstate(invalid="ignore"):
            dots = [a.ravel() @ self.zeros[: a.size] for a in self.weights()]
        return not np.isnan(sum(dots))

    def model(self) -> AffinityModel:
        """The current weights as a model, sharing no array with the state.

        W1 is lifted LIFT_ROWS rows at a time: each block is lifted in
        float64 and rounded into one float32 W1, so no full-size float64
        copy is made.  A lift that overflows float32 raises RuntimeError,
        as a divergent step does.
        """
        w1 = np.empty_like(self.w1)
        basis = self.basis.astype(np.float64)
        for cols, half in zip(first_layer_halves(w1), (self.w_prev, self.w_cur)):
            # the float32 product the state was built with, so an
            # undescended half lifts to exactly the columns it came from
            start = self.w1[:, cols] @ self.basis
            for top in range(0, len(w1), LIFT_ROWS):
                rows = slice(top, top + LIFT_ROWS)
                lifted = self.w1[rows, cols].astype(np.float64)
                lifted += (half[rows].astype(np.float64) - start[rows]) @ basis.T
                with np.errstate(over="ignore"):
                    w1[rows, cols] = lifted
        if not np.isfinite(w1).all():
            raise RuntimeError("training diverged: non-finite weight")
        rest = tuple((W.copy(), b.copy()) for W, b in self.rest)
        net = CompressionNet(((w1, self.b1.copy()), *rest))
        return AffinityModel(self.pointnet, net, self.dummy_score)


def reduce_pool(pool) -> tuple[np.ndarray, tuple]:
    """(Q, the pool with every feature row x mapped to x Q), in float32.

    Q is an orthonormal basis, D x min(R, D), of the span of the pool's
    R feature rows, with each features array counted once however many
    samples share it, and no rank cut-off.  The QR and the map run in
    float64, and Q and each mapped row are rounded to float32 once.
    Each array is mapped once, and samples that shared one share its
    image.
    """
    arrays = {id(x): x for s in pool for x in (s.prev, s.cur)}
    rows = np.concatenate(list(arrays.values())).astype(np.float64)
    basis = np.linalg.qr(rows.T)[0]
    mapped = {key: (x @ basis).astype(np.float32) for key, x in arrays.items()}
    return basis.astype(np.float32), tuple(
        PairSample(mapped[id(s.prev)], mapped[id(s.cur)], s.gt) for s in pool
    )


def train_step(state: TrainState, batch, learning_rate: float) -> LossBreakdown:
    """Descend state in place over a batch; returns the pre-step batch loss.

    The batch's features are in the state's basis (reduce_pool).  The
    first layer is applied to each frame's features separately: pair
    (i, j) gets the hidden row relu(w_prev prev_i + w_cur cur_j + b1).
    The batch's previous-frame features are stacked into one matrix and
    its current-frame features into another, each stack is projected
    with one product, and every pair's hidden row is gathered from the
    two projections.  The hidden rows of every pair then go through
    layers 2-5 in one forward and one backward pass.  Their scores are
    padded into one stack as large as the batch's largest pair, -inf in
    the padding (stack_gt pads the targets with zeros), and the loss and
    its gradients come from one call each over the stack; each pair's
    are its own call's, and the batch adds them in batch order.  The
    score gradient is scaled by learning_rate / len(batch) before
    the backward pass, so every gradient it yields is already the step
    and each weight takes it with one in-place subtraction.  Back at the
    first layer, the gradient of pair (i, j) is dz_ij [prev_i; cur_j]^T,
    so each half's step is one product of the stacked per-row sums of
    dz with the stacked features, of rank at most the number of rows.
    A non-finite weight or dummy score after the update raises
    RuntimeError and leaves the state unusable.
    """
    batch = tuple(batch)
    if not batch:
        raise ValueError("batch must contain at least one pair")
    width = len(state.b1)
    gt = stack_gt([s.gt for s in batch])
    prev_x = np.concatenate([s.prev for s in batch])
    cur_x = np.concatenate([s.cur for s in batch])
    cells = gt.cells
    # the stack's cell (k, i, j), in cell order, pairs the previous row i
    # and the current row j of sample k, counted from the stack's far
    # edges: sample k's last feature rows sit at cumsum(sizes)[k] - 1
    which, i, j = np.nonzero(cells)
    last = np.cumsum(gt.sizes, axis=0) - cells.shape[1:]
    hidden = (prev_x @ state.w_prev.T)[last[which, 0] + i]
    hidden += (cur_x @ state.w_cur.T + state.b1)[last[which, 1] + j]
    np.maximum(hidden, 0.0, out=hidden)
    out, acts = mlp_forward_cached(hidden, state.rest)
    if not np.isfinite(out).all():
        raise RuntimeError("non-finite affinity score")
    scores = np.full(cells.shape, -np.inf)
    scores[cells] = out[:, 0]
    a1, a2 = augment_and_softmax(scores, state.dummy_score)
    losses = loss_breakdown(a1, a2, gt)
    if not np.isfinite(losses.total).all():
        raise RuntimeError("non-finite loss")
    grads = loss_gradients(a1, a2, gt)
    n = len(batch)
    lr = learning_rate
    cp, cc = cells.shape[1:]
    d_scores = (grads.d_m1[..., :cc] + grads.d_m2[..., :cp, :])[cells]
    d_out = (d_scores[:, None] * (lr / n)).astype(hidden.dtype)
    rest_steps, d_hidden = mlp_backward(acts, state.rest, d_out)
    # layers 2-5 take their steps while the steps are still in cache
    for (W, b), (dW, db) in zip(state.rest, rest_steps):
        W -= dW
        b -= db
    del rest_steps
    d_z = np.multiply(d_hidden, hidden > 0.0, out=d_hidden)
    # per-row sums over each row's pairs, in pair order; padding adds zeros
    d_pairs = np.zeros((*cells.shape, width), dtype=d_z.dtype)
    d_pairs[cells] = d_z
    state.w_prev -= d_pairs.sum(axis=2)[gt.real_rows].T @ prev_x
    state.w_cur -= d_pairs.sum(axis=1)[gt.real_cols].T @ cur_x
    state.b1 -= d_z.sum(axis=0)
    if not state.weights_finite():
        raise RuntimeError("training diverged: non-finite weight") from None
    # the samples' dummy gradients and loss terms are added from zero in
    # batch order; like Python floats, the sums overflow without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        d_dummy = 0.0 + float(np.cumsum(grads.d_dummy)[-1])
        sums = 0.0 + np.cumsum([losses.l_f, losses.l_b, losses.l_c, losses.l_a], axis=1)
    state.dummy_score = state.dummy_score - lr * d_dummy / n
    if not np.isfinite(state.dummy_score):
        raise RuntimeError("training diverged: non-finite dummy score") from None
    return LossBreakdown(*(sums[:, -1] / n).tolist())


def training_pairs(src: SequenceSource, model: AffinityModel) -> tuple:
    """All PairSamples whose frames lie FRAME_GAPS apart.

    Each frame's gt ids and feature rows come from the tracker's windows
    (association.featurized_windows), so training sees exactly the
    features the tracker sees, whatever the run seed is.  A frame's rows
    are one slice of its window's features, shared by every sample that
    uses the frame.
    """
    ids, feats = [], []
    for frames, features in featurized_windows(src, model.pointnet):
        start = 0
        for _, detections in frames:
            ids.append([det.gt_id for det in detections])
            feats.append(features[start:start + len(detections)])
            start += len(detections)
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
    """Descend init_model(cfg.seed), one train_step per step; optionally write.

    The steps run in the span of the pool's features (reduce_pool).
    """
    model = init_model(cfg.seed)
    basis, pool = reduce_pool(training_pairs(src, model))
    state = TrainState(model, basis)
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
