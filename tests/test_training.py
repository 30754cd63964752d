import tracemalloc
import weakref
from dataclasses import replace

import numpy as np
import pytest

from cloudtrack import association, training
from cloudtrack.losses import LossGradients, build_gt, loss_breakdown, loss_gradients
from cloudtrack.model import init_model, load_model, save_model
from cloudtrack.affinity import augment_and_softmax, first_layer_halves
from cloudtrack.association import WINDOW_DETECTIONS
from cloudtrack.cropping import CROP_POINTS, crop_frame
from cloudtrack.geometry import box_contains
from cloudtrack.pointnet import featurize_frame
from cloudtrack.nets import (
    init_layers,
    mlp_backward,
    mlp_forward,
    mlp_forward_cached,
)
from cloudtrack.sequence_io import load_admitted_frame, load_frame, write_detections
from cloudtrack.synth import SynthConfig, generate, perturb
from cloudtrack.training import (
    LOG_HEADER,
    PairSample,
    TrainConfig,
    TrainState,
    reduce_pool,
    train,
    train_step,
    training_pairs,
    write_loss_log,
)
from cloudtrack.verification import DEFAULT_STEP

from test_association import windows


EPS32 = float(np.finfo(np.float32).eps)
# The compression head trains in float32.  Its weights and losses are held
# to this many float32 epsilons of a float64 oracle, or of another float32
# path that rounds differently, scaled by the reference's largest entry
# (measured: at most 14)
F32_TOL = 64
# The float32 step's weight gradients against float64 central differences,
# in float32 epsilons of each array's largest gradient (measured: 4.8)
GRADIENT_TOL = 32


def f32_error(got, want):
    """Largest |got - want|, in float32 epsilons of want's largest entry."""
    want = np.asarray(want, dtype=np.float64)
    err = np.abs(np.asarray(got, dtype=np.float64) - want).max(initial=0.0)
    return err / (EPS32 * np.abs(want).max(initial=0.0))


def f64_layers(layers):
    return [(W.astype(np.float64), b.astype(np.float64)) for W, b in layers]


class TestMlpBackward:
    def test_matches_finite_differences(self):
        # in float64, so central differences resolve the derivatives
        rng = np.random.default_rng(31)
        layers = f64_layers(init_layers((4, 6, 5, 1), rng))
        x = rng.normal(size=(3, 4))
        coef = rng.normal(size=(3, 1))

        def objective(ls):
            return float((mlp_forward(x, ls) * coef).sum())

        out, acts = mlp_forward_cached(x, layers)
        grads, d_x = mlp_backward(acts, layers, coef)
        assert d_x.shape == x.shape
        checks = [(x, d_x)]
        for (W, b), (dW, db) in zip(layers, grads):
            checks += [(W, dW), (b, db)]
        h = 1e-6
        for arr, g in checks:
            flat = arr.reshape(-1)
            for idx in range(flat.size):
                keep = flat[idx]
                flat[idx] = keep + h
                up = objective(layers)
                flat[idx] = keep - h
                down = objective(layers)
                flat[idx] = keep
                fd = (up - down) / (2 * h)
                ref = g.reshape(-1)[idx]
                assert abs(ref - fd) <= 1e-6 * max(1.0, abs(fd))

    def test_keeps_the_float32_type(self):
        rng = np.random.default_rng(37)
        layers = init_layers((4, 6, 5, 1), rng)
        x = rng.normal(size=(3, 4)).astype(np.float32)
        _, acts = mlp_forward_cached(x, layers)
        d_out = rng.normal(size=(3, 1)).astype(np.float32)
        grads, d_x = mlp_backward(acts, layers, d_out)
        assert d_x.dtype == np.float32
        assert all(dW.dtype == db.dtype == np.float32 for dW, db in grads)

    def test_cached_forward_matches_plain(self):
        rng = np.random.default_rng(32)
        layers = init_layers((5, 8, 2), rng)
        x = rng.normal(size=(7, 5))
        out, acts = mlp_forward_cached(x, layers)
        assert np.array_equal(out, mlp_forward(x, layers))
        assert len(acts) == 2 and acts[0] is x


def feature_rows(rng, n, dim=3):
    """n random float32 feature rows, as featurize_frame returns a frame's."""
    return rng.normal(size=(n, dim)).astype(np.float32)


def batch_from(src, model, size=4, seed=0):
    """(basis, batch, the same batch in the basis), drawn as train() draws."""
    pool = training_pairs(src, model)
    basis, reduced = reduce_pool(pool)
    rng = np.random.default_rng(seed)
    picks = [int(i) for i in rng.integers(0, len(pool), size=size)]
    return basis, [pool[i] for i in picks], [reduced[i] for i in picks]


@pytest.fixture(scope="module")
def scene(tmp_path_factory):
    cfg = SynthConfig(n_objects=3, n_frames=20, seed=101, points_per_object=150)
    return generate(cfg, tmp_path_factory.mktemp("train-scene"))


@pytest.fixture(scope="module")
def ragged(tmp_path_factory):
    """CI's ragged recipe: frames of 3 to 9 admitted detections, 173 in all.

    An object leaves and one enters, misses drop some detections, and
    admitted clutter adds unlabeled ones.
    """
    cfg = SynthConfig(
        n_objects=5, n_frames=30, seed=31, points_per_object=60,
        events=(("leave", 12, 1), ("enter", 20)),
    )
    src = generate(cfg, tmp_path_factory.mktemp("ragged-scene"))
    return perturb(src, fn_rate=0.2, fp_rate=0.5, conf_model=(0.3, 0.9), seed=31)


def pair_cells(sample):
    """Every (previous, current) feature pair concatenated, row-major."""
    prev, cur = sample.prev, sample.cur
    return np.hstack([np.repeat(prev, len(cur), axis=0), np.tile(cur, (len(prev), 1))])


def batch_loss(model, batch):
    return batch_loss64(f64_layers(model.compression.layers), model.dummy_score, batch)


def batch_loss64(layers, dummy_score, batch):
    """batch_loss in float64, through float64 layers, of the widened features."""
    totals = []
    for sample in batch:
        cp, cc = len(sample.prev), len(sample.cur)
        cells = pair_cells(sample).astype(np.float64)
        a1, a2 = augment_and_softmax(mlp_forward(cells, layers).reshape(cp, cc), dummy_score)
        totals.append(loss_breakdown(a1, a2, sample.gt).total)
    return float(np.mean(totals))


def terms(b):
    return b.l_f, b.l_b, b.l_c, b.l_a, b.total


def explicit_cell_step(model, batch, lr):
    """Reference update in float64: every pair concatenated into one 2D-wide cell."""
    layers = f64_layers(model.compression.layers)
    acc = [(np.zeros_like(W), np.zeros_like(b)) for W, b in layers]
    d_dummy = 0.0
    for sample in batch:
        cp, cc = len(sample.prev), len(sample.cur)
        out, acts = mlp_forward_cached(pair_cells(sample).astype(np.float64), layers)
        a1, a2 = augment_and_softmax(out.reshape(cp, cc), model.dummy_score)
        g = loss_gradients(a1, a2, sample.gt)
        d_m = g.d_m1[:, :cc] + g.d_m2[:cp, :]
        grads, _ = mlp_backward(acts, layers, d_m.reshape(-1, 1))
        acc = [(aW + dW, ab + db) for (aW, ab), (dW, db) in zip(acc, grads)]
        d_dummy += g.d_dummy
    n = len(batch)
    new_layers = [
        (W - lr * dW / n, b - lr * db / n) for (W, b), (dW, db) in zip(layers, acc)
    ]
    return new_layers, model.dummy_score - lr * d_dummy / n


class TestTrainStep:
    def test_matches_explicit_cell_oracle(self):
        model = init_model(
            seed=33, pointnet_widths=(3, 4, 3), compression_widths=(6, 5, 4, 3, 2, 1)
        )
        model = replace(model, dummy_score=0.3)
        rng = np.random.default_rng(33)
        links = [
            ([1, 2, 3], [2, None, 1, 4]),
            ([], [5]),
            ([7, None], [7]),
            ([8, 9], [9, 8]),
        ]
        batch = [
            PairSample(
                feature_rows(rng, len(p)),
                feature_rows(rng, len(c)),
                build_gt(p, c),
            )
            for p, c in links
        ]
        lr = 1.0
        basis, reduced = reduce_pool(batch)
        state = TrainState(model, basis)
        train_step(state, reduced, lr)
        updated = state.model()
        want_layers, want_dummy = explicit_cell_step(model, batch, lr)
        for (W, b), (w_ref, b_ref) in zip(updated.compression.layers, want_layers):
            assert f32_error(W, w_ref) <= F32_TOL
            assert f32_error(b, b_ref) <= F32_TOL
        assert f32_error(updated.dummy_score, want_dummy) <= F32_TOL
        changed = updated.compression.layers[0][0] - model.compression.layers[0][0]
        assert np.abs(changed).max() > 1e-3

    def test_matches_explicit_cell_oracle_in_a_square_basis(self):
        # a pool of five frames holds 12 distinct feature rows in 3
        # dimensions, so its basis is square; the batch draws from the pool
        model = init_model(
            seed=35, pointnet_widths=(3, 4, 3), compression_widths=(6, 5, 4, 3, 2, 1)
        )
        model = replace(model, dummy_score=0.1)
        rng = np.random.default_rng(35)
        ids = [[1, 2, 3], [2, 3, None, 4], [4, 2], [], [2, 5, 4]]
        frames = [feature_rows(rng, len(f)) for f in ids]
        pool = [
            PairSample(frames[i], frames[j], build_gt(ids[i], ids[j]))
            for i, j in ((0, 1), (1, 2), (0, 2), (2, 3), (1, 4), (3, 4), (2, 4))
        ]
        basis, reduced = reduce_pool(pool)
        assert basis.shape == (3, 3)
        picks = [4, 0, 6, 4, 1]
        lr = 0.5
        state = TrainState(model, basis)
        train_step(state, [reduced[i] for i in picks], lr)
        updated = state.model()
        want_layers, want_dummy = explicit_cell_step(model, [pool[i] for i in picks], lr)
        for (W, b), (w_ref, b_ref) in zip(updated.compression.layers, want_layers):
            assert f32_error(W, w_ref) <= F32_TOL
            assert f32_error(b, b_ref) <= F32_TOL
        assert f32_error(updated.dummy_score, want_dummy) <= F32_TOL
        changed = updated.compression.layers[0][0] - model.compression.layers[0][0]
        assert np.abs(changed[:, :3]).max() > 1e-3 and np.abs(changed[:, 3:]).max() > 1e-3

    def test_matches_explicit_cell_oracle_at_default_widths(self, scene):
        model = init_model(seed=7)
        lr = 0.5
        pool = training_pairs(scene, model)
        basis, reduced = reduce_pool(pool)
        assert basis.shape[1] < basis.shape[0]
        # the pool runs gap by gap within each current frame, so neighbours
        # can hold the very same features array
        k = next(i for i in range(len(pool) - 1) if pool[i].cur is pool[i + 1].cur)
        assert reduced[k].cur is reduced[k + 1].cur
        picks = [k, 0, k + 1, k]
        snapshot = [(W.copy(), b1.copy()) for W, b1 in model.compression.layers]
        dummy = model.dummy_score
        state = TrainState(model, basis)
        train_step(state, [reduced[i] for i in picks], lr)
        updated = state.model()
        want_layers, want_dummy = explicit_cell_step(model, [pool[i] for i in picks], lr)
        for (W, b1), (w_ref, b_ref) in zip(updated.compression.layers, want_layers):
            assert f32_error(W, w_ref) <= F32_TOL
            assert f32_error(b1, b_ref) <= F32_TOL
        assert f32_error(updated.dummy_score, want_dummy) <= F32_TOL
        d = model.compression.in_dim // 2
        changed = updated.compression.layers[0][0] - snapshot[0][0]
        assert np.abs(changed[:, :d]).max() > 1e-6
        assert np.abs(changed[:, d:]).max() > 1e-6
        for (W, b1), (w0, b0) in zip(model.compression.layers, snapshot):
            assert np.array_equal(W, w0) and np.array_equal(b1, b0)
        assert model.dummy_score == dummy

    def test_weight_gradients_match_finite_differences(self):
        # the weight gradients of a float32 step, in the pool's basis as
        # train() takes it, against central differences of the float64 loss
        # through a float64 copy of the same weights
        model = init_model(
            seed=34, pointnet_widths=(3, 4, 3), compression_widths=(6, 5, 4, 3, 2, 1)
        )
        model = replace(model, dummy_score=-0.2)
        rng = np.random.default_rng(34)
        links = [
            ([1, 2, 3], [3, None, 1]),
            ([], [5, 6]),
            ([4, 7], []),
            ([8, 9], [9, 10]),
        ]
        batch = [
            PairSample(
                feature_rows(rng, len(p)),
                feature_rows(rng, len(c)),
                build_gt(p, c),
            )
            for p, c in links
        ]
        # lr / n is not 1, so a step that drops the scale is caught
        lr = 1.0
        basis, reduced = reduce_pool(batch)
        state = TrainState(model, basis)
        train_step(state, reduced, lr)
        updated = state.model()
        n = len(batch)
        layers = f64_layers(model.compression.layers)

        # the step descends the batch mean, so (old - new) * n / lr is the
        # gradient of the batch's summed loss
        def grad(old, new):
            return (np.asarray(old, np.float64) - new) * n / lr

        def summed_loss(moved, dummy=model.dummy_score):
            return n * batch_loss64(moved, dummy, batch)

        def central(arr, idx):
            keep = arr[idx]
            arr[idx] = keep + DEFAULT_STEP
            up = summed_loss(layers)
            arr[idx] = keep - DEFAULT_STEP
            down = summed_loss(layers)
            arr[idx] = keep
            return (up - down) / (2 * DEFAULT_STEP)

        worst = 0.0
        for k, ((W, b), (new_w, new_b)) in enumerate(
            zip(layers, updated.compression.layers)
        ):
            for arr, new in ((W, new_w), (b, new_b)):
                fd = np.array([central(arr, idx) for idx in np.ndindex(arr.shape)])
                analytic = grad(arr, new).ravel()
                assert np.abs(fd).max() > 1e-3, k
                worst = max(worst, f32_error(analytic, fd))
        d_w1 = grad(layers[0][0], updated.compression.layers[0][0])
        assert np.abs(d_w1[:, :3]).max() > 1e-3 and np.abs(d_w1[:, 3:]).max() > 1e-3
        h = DEFAULT_STEP
        up = summed_loss(layers, model.dummy_score + h)
        down = summed_loss(layers, model.dummy_score - h)
        d_dummy = grad(model.dummy_score, updated.dummy_score)
        assert abs(d_dummy) > 1e-3
        worst = max(worst, f32_error(d_dummy, (up - down) / (2 * h)))
        assert worst <= GRADIENT_TOL

    def test_overflowing_update_raises_divergence(self, scene):
        model = init_model(seed=7)
        basis, _, batch = batch_from(scene, model)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError) as caught:
                train_step(TrainState(model, basis), batch, 1e308)
        assert str(caught.value) == "training diverged: non-finite weight"
        assert caught.value.__cause__ is None and caught.value.__suppress_context__

    def test_weights_finite_finds_each_non_finite_entry(self):
        model = init_model(
            seed=36, pointnet_widths=(3, 4, 2), compression_widths=(4, 3, 3, 2, 2, 1)
        )
        state = TrainState(model, np.eye(2, dtype=np.float32))
        for a in state.weights():
            assert a.dtype == np.float32
            a[...] = np.finfo(np.float32).max
        assert state.weights_finite()
        for a in state.weights():
            for index in (0, a.size - 1):
                for bad in (np.inf, -np.inf, np.nan):
                    kept = a.flat[index]
                    a.flat[index] = bad
                    assert not state.weights_finite()
                    a.flat[index] = kept
        assert state.weights_finite()

    def test_overflowing_lift_raises_divergence(self):
        # every reduced weight is finite, but lifting them through a basis
        # whose rows sum past 1 overflows: a divergence, not a bad model
        model = init_model(
            seed=36, pointnet_widths=(3, 4, 2), compression_widths=(4, 3, 3, 2, 2, 1)
        )
        basis = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
        state = TrainState(model, basis)
        state.w_prev[:] = 1.7e308
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(RuntimeError, match="^training diverged: non-finite weight$"):
                state.model()

    def test_non_finite_dummy_raises_divergence(self, scene, monkeypatch):
        # zero score gradients leave every weight finite; only the dummy blows up
        def dummy_only(a1, a2, gt):
            g = loss_gradients(a1, a2, gt)
            return LossGradients(np.zeros_like(g.d_m1), np.zeros_like(g.d_m2), 1e308)

        monkeypatch.setattr(training, "loss_gradients", dummy_only)
        model = init_model(seed=7)
        basis, _, batch = batch_from(scene, model)
        with pytest.raises(RuntimeError, match="training diverged: non-finite dummy"):
            train_step(TrainState(model, basis), batch, 10.0)

    def test_fixed_batch_descends(self, scene):
        model = init_model(seed=7)
        lr = 1e-4
        basis, batch, reduced = batch_from(scene, model)
        losses = [batch_loss(model, batch)]
        state = TrainState(model, basis)
        for _ in range(100):
            reported = train_step(state, reduced, lr)
            losses.append(batch_loss(state.model(), batch))
            assert f32_error(reported.total, losses[-2]) <= F32_TOL
        drops = sum(b < a for a, b in zip(losses, losses[1:]))
        assert drops >= 0.95 * (len(losses) - 1)

    def test_pre_step_loss_reported(self, scene):
        model = init_model(seed=7)
        basis, batch, reduced = batch_from(scene, model)
        before = batch_loss(model, batch)
        reported = train_step(TrainState(model, basis), reduced, 0.5)
        assert f32_error(reported.total, before) <= F32_TOL

    def test_updates_only_compression_and_dummy(self, scene):
        model = init_model(seed=7)
        basis, _, batch = batch_from(scene, model)
        state = TrainState(model, basis)
        train_step(state, batch, 1e-2)
        updated = state.model()
        for (w0, b0), (w1, b1) in zip(
            model.pointnet.layers, updated.pointnet.layers
        ):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)
        changed = any(
            not np.array_equal(w0, w1)
            for (w0, _), (w1, _) in zip(
                model.compression.layers, updated.compression.layers
            )
        )
        assert changed
        assert updated.dummy_score != model.dummy_score

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            train_step(TrainState(init_model(seed=1), np.eye(512)), [], 1e-2)

    def test_models_share_no_array_with_the_state(self, scene):
        # a model taken from the state keeps its weights through later steps
        model = init_model(seed=7)
        basis, _, batch = batch_from(scene, model)
        state = TrainState(model, basis)
        train_step(state, batch, 1e-2)
        taken = state.model()
        snapshot = [(W.copy(), b.copy()) for W, b in taken.compression.layers]
        dummy = taken.dummy_score
        train_step(state, batch, 1e-2)
        for (W, b), (w0, b0) in zip(taken.compression.layers, snapshot):
            assert np.array_equal(W, w0) and np.array_equal(b, b0)
        assert taken.dummy_score == dummy
        moved = state.model()
        assert all(
            not np.array_equal(W, w0)
            for (W, _), (w0, _) in zip(moved.compression.layers, snapshot)
        )


def descended_state(seed, k):
    """A default-width TrainState in a random k-wide basis, both halves moved."""
    rng = np.random.default_rng(seed)
    model = init_model(seed=seed)
    d = model.pointnet.feature_dim
    basis = np.linalg.qr(rng.standard_normal((d, k)))[0].astype(np.float32)
    state = TrainState(model, basis)
    for half in (state.w_prev, state.w_cur):
        half += rng.standard_normal(half.shape).astype(np.float32) * 1e-2
    return state


class TestLift:
    def test_blocked_lift_matches_the_full_lift(self):
        # the full-size float64 lift, rounded once, is the oracle; the
        # widths straddle the block size and the basis widths the pool's
        for k in (1, 7, 64, 150, 512):
            state = descended_state(40 + k, k)
            w1 = state.w1.astype(np.float64)
            basis = state.basis.astype(np.float64)
            for cols, half in zip(first_layer_halves(w1), (state.w_prev, state.w_cur)):
                start = state.w1[:, cols] @ state.basis
                w1[:, cols] += (half.astype(np.float64) - start) @ basis.T
            lifted = state.model().compression.layers[0][0]
            assert len(lifted) > training.LIFT_ROWS
            assert lifted.tobytes() == w1.astype(np.float32).tobytes(), k

    def test_lift_and_save_allocate_little(self, tmp_path):
        # NumPy reports its buffers to tracemalloc: the lift makes no
        # full-size float64 copy of W1, and the file is not built in memory
        state = descended_state(41, 150)
        tracemalloc.start()
        try:
            lifted = state.model()
            lift_peak = tracemalloc.get_traced_memory()[1]
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            save_model(lifted, tmp_path / "w.bin")
            save_peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        net_bytes = sum(W.nbytes + b.nbytes for W, b in lifted.compression.layers)
        assert lift_peak <= 2 * net_bytes
        assert save_peak <= 1 << 20
        assert load_model(tmp_path / "w.bin").compression.layers[0][0].tobytes() == (
            lifted.compression.layers[0][0].tobytes()
        )


def frame_of(pool, scene, model):
    """id of each features array in pool -> the frame whose features it holds."""
    ref = [
        featurize_frame(crop_frame(load_admitted_frame(scene, i)), model.pointnet)
        for i in range(scene.frame_count)
    ]
    found = {id(x): x for sample in pool for x in (sample.prev, sample.cur)}
    out = {}
    for key, x in found.items():
        [index] = [i for i, r in enumerate(ref) if np.array_equal(x, r)]
        out[key] = index
    return out


class TestTrainingPairs:
    def test_pool_counts_and_feature_caching(self, scene):
        model = init_model(seed=7)
        pool = training_pairs(scene, model)
        n = scene.frame_count
        expected = sum(min(cur, 3) for cur in range(n))
        assert len(pool) == expected
        # one features array per frame, shared by every sample using it
        assert sorted(frame_of(pool, scene, model).values()) == list(range(n))

    def test_reduce_pool_spans_each_frame_once(self, scene):
        model = init_model(seed=7)
        pool = training_pairs(scene, model)
        basis, reduced = reduce_pool(pool)
        frames = {id(x): x for sample in pool for x in (sample.prev, sample.cur)}
        rows = np.concatenate(list(frames.values())).astype(np.float64)
        # R distinct rows under D: a thin basis, not one column per sample row.
        # The QR runs in float64, and Q is rounded to float32 once
        q = np.linalg.qr(rows.T)[0]
        assert basis.shape == (model.pointnet.feature_dim, len(rows))
        assert basis.dtype == np.float32
        assert basis.tobytes() == q.astype(np.float32).tobytes()
        assert np.abs(q.T @ q - np.eye(len(rows))).max() < 1e-12
        assert np.abs(rows @ q @ q.T - rows).max() < 1e-12 * np.abs(rows).max()
        # so is each mapped row, after a float64 product
        images = {id(x): x for sample in reduced for x in (sample.prev, sample.cur)}
        assert len(images) == len(frames)
        for sample, image in zip(pool, reduced):
            assert image.gt is sample.gt
            for x, x_image in ((sample.prev, image.prev), (sample.cur, image.cur)):
                want = (x @ q).astype(np.float32)
                assert x_image.tobytes() == want.tobytes()

    def test_features_are_the_trackers_whatever_the_seed(self, tmp_path):
        # 200 points per object: crops are thinned, and the run seed must not
        # change which points are kept
        src = generate(
            SynthConfig(n_objects=3, n_frames=6, seed=44, points_per_object=200),
            tmp_path / "seq",
        )
        frames = [load_admitted_frame(src, i) for i in range(src.frame_count)]
        assert any(
            box_contains(det.box, frame.points).sum() > CROP_POINTS
            for frame in frames
            for det in frame.detections
        )
        model = init_model(seed=5)
        want = [featurize_frame(crop_frame(f), model.pointnet) for f in frames]
        pool = training_pairs(src, model)
        pairs = [
            (cur - gap, cur)
            for cur in range(src.frame_count)
            for gap in training.FRAME_GAPS
            if cur >= gap
        ]
        assert len(pool) == len(pairs)
        for (prev, cur), sample in zip(pairs, pool):
            assert sample.prev.tobytes() == want[prev].tobytes()
            assert sample.cur.tobytes() == want[cur].tobytes()

    def test_reads_the_trackers_windows(self, ragged, monkeypatch):
        # the tracker's windows split this scene mid-sequence and admit
        # clutter: one featurizer call per window, and each frame's rows
        # are one array, a slice of its window's, and its own bit for bit
        model = init_model(seed=7)
        featurized = []

        def recording_featurize(crops, w):
            featurized.append(featurize_frame(crops, w))
            return featurized[-1]

        with monkeypatch.context() as patch:
            patch.setattr(association, "featurize_frame", recording_featurize)
            pool = training_pairs(ragged, model)
        frames = [load_admitted_frame(ragged, f) for f in range(ragged.frame_count)]
        counts = [len(frame.detections) for frame in frames]
        assert sum(counts) == 173
        assert any(d.gt_id is None for frame in frames for d in frame.detections)
        assert [len(x) for x in featurized] == windows(counts, WINDOW_DETECTIONS)
        assert len(featurized) == 3
        pairs = [
            (cur - gap, cur)
            for cur in range(ragged.frame_count)
            for gap in training.FRAME_GAPS
            if cur >= gap
        ]
        assert len(pool) == len(pairs)
        arrays = {}
        for (prev, cur), sample in zip(pairs, pool):
            arrays.setdefault(prev, set()).add(id(sample.prev))
            arrays.setdefault(cur, set()).add(id(sample.cur))
        assert all(len(found) == 1 for found in arrays.values())
        by_id = {id(x): x for sample in pool for x in (sample.prev, sample.cur)}
        for index, frame in enumerate(frames):
            [key] = arrays[index]
            x = by_id[key]
            assert any(x.base is window for window in featurized)
            want = featurize_frame(crop_frame(frame), model.pointnet)
            assert x.dtype == want.dtype and x.tobytes() == want.tobytes()

    def test_loads_one_frame_at_a_time(self, scene, monkeypatch):
        # each frame is cropped before the next one loads, and a window
        # keeps no frame: when a frame loads, at most the frame just
        # cropped may still be alive
        refs, alive = [], []

        def load(src, index):
            alive.append(sum(ref() is not None for ref in refs))
            frame = load_admitted_frame(src, index)
            refs.append(weakref.ref(frame))
            return frame

        monkeypatch.setattr(association, "load_admitted_frame", load)
        training_pairs(scene, init_model(seed=7))
        assert len(refs) == scene.frame_count
        assert max(alive) <= 1

    def test_unlabeled_detections_train(self, tmp_path):
        # admitted false detections carry no gt_id; they are leave/enter
        # targets, not a reason to stop
        src = generate(
            SynthConfig(n_objects=3, n_frames=8, seed=5, points_per_object=60),
            tmp_path / "seq",
        )
        noisy = perturb(
            src, fp_rate=0.3, conf_model=(0.5, 0.9), seed=5, out_dir=tmp_path / "noisy"
        )
        unlabeled = sum(
            det.gt_id is None
            for i in range(noisy.frame_count)
            for det in load_admitted_frame(noisy, i).detections
        )
        assert unlabeled > 0
        _, log = train(noisy, TrainConfig(steps=3, seed=1))
        assert len(log) == 3
        assert all(np.isfinite(b.total) for b in log)

    def test_sequence_without_labels_rejected(self, tmp_path):
        src = generate(
            SynthConfig(n_objects=4, n_frames=12, seed=5, points_per_object=60),
            tmp_path / "seq",
        )
        for i in range(src.frame_count):
            write_detections(src.root, i, load_frame(src, i).detections, with_gt=False)
        with pytest.raises(ValueError, match="no admitted detection in any frame has a gt_id"):
            training_pairs(src, init_model(seed=1))

    def test_too_short_sequence_rejected(self, tmp_path):
        cfg = SynthConfig(n_objects=1, n_frames=1, seed=1, points_per_object=20)
        src = generate(cfg, tmp_path)
        with pytest.raises(ValueError, match="too short"):
            training_pairs(src, init_model(seed=1))


class TestTrain:
    def test_zero_steps_writes_initialization(self, scene, tmp_path):
        out = tmp_path / "w.bin"
        model, log = train(
            scene, TrainConfig(steps=0, seed=3), weights_out=out
        )
        init = init_model(3)
        assert log == ()
        # the lift adds an exact zero to W1 when no step has run
        for (w0, b0), (w1, b1) in zip(
            init.compression.layers, model.compression.layers
        ):
            assert np.array_equal(w0, w1) and np.array_equal(b0, b1)
        loaded = load_model(out)
        assert loaded.dummy_score == init.dummy_score
        save_model(init, tmp_path / "init.bin")
        assert out.read_bytes() == (tmp_path / "init.bin").read_bytes()

    def test_matches_full_width_descent(self, scene):
        # train() descends W1 in the span of the pool's features; with the
        # identity basis the same steps run on the full-width halves
        cfg = TrainConfig(steps=20, seed=4)
        trained, log = train(scene, cfg)
        model = init_model(cfg.seed)
        pool = training_pairs(scene, model)
        assert reduce_pool(pool)[0].shape[1] < model.pointnet.feature_dim
        state = TrainState(model, np.eye(model.pointnet.feature_dim, dtype=np.float32))
        rng = np.random.default_rng(cfg.seed)
        full = []
        for _ in range(cfg.steps):
            picks = rng.integers(0, len(pool), size=cfg.batch_pairs)
            full.append(
                train_step(state, [pool[int(i)] for i in picks], cfg.learning_rate)
            )
        # the two paths round differently in float32, and 20 steps carry it
        assert len(log) == len(full) == cfg.steps
        for got, want in zip(log, full):
            for a, b in zip(terms(got), terms(want)):
                assert f32_error(a, b) <= F32_TOL
        wide = state.model()
        for (w0, b0), (w1, b1) in zip(trained.compression.layers, wide.compression.layers):
            assert f32_error(w0, w1) <= F32_TOL and f32_error(b0, b1) <= F32_TOL
        assert f32_error(trained.dummy_score, wide.dummy_score) <= F32_TOL
        moved = trained.compression.layers[0][0] - model.compression.layers[0][0]
        assert np.abs(moved).max() > 1e-4

    def test_deterministic_given_seed(self, scene, tmp_path):
        cfg = TrainConfig(steps=8, seed=5)
        a, log_a = train(scene, cfg, weights_out=tmp_path / "a.bin")
        b, log_b = train(scene, cfg, weights_out=tmp_path / "b.bin")
        assert log_a == log_b
        assert (tmp_path / "a.bin").read_bytes() == (tmp_path / "b.bin").read_bytes()

    def test_loss_log_format(self, scene, tmp_path):
        path = tmp_path / "log.csv"
        _, log = train(scene, TrainConfig(steps=5, seed=2), log_out=path)
        lines = path.read_text().splitlines()
        assert lines[0] == LOG_HEADER
        assert len(lines) == 6
        for step, line in enumerate(lines[1:]):
            parts = line.split(",")
            assert int(parts[0]) == step
            vals = [float(v) for v in parts[1:]]
            assert len(vals) == 5
            assert abs(vals[4] - sum(vals[:4]) / 4.0) < 1e-12

    def test_divergence_raises(self, scene, tmp_path):
        weights, log = tmp_path / "w.bin", tmp_path / "log.csv"
        cfg = TrainConfig(steps=5, learning_rate=1e308, seed=2)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(
                RuntimeError, match=r"^step \d+: training diverged: non-finite weight$"
            ) as caught:
                train(scene, cfg, weights_out=weights, log_out=log)
        assert caught.value.__cause__ is None and caught.value.__suppress_context__
        assert not weights.exists() and not log.exists()

    def test_steps_through_train_step(self, scene, monkeypatch):
        cfg = TrainConfig(steps=6, seed=4)
        _, want = train(scene, cfg)
        calls = []

        def counted(state, batch, learning_rate):
            calls.append(learning_rate)
            return train_step(state, batch, learning_rate)

        monkeypatch.setattr(training, "train_step", counted)
        _, log = train(scene, cfg)
        assert calls == [cfg.learning_rate] * cfg.steps
        assert log == want

    def test_matches_folded_train_step(self, scene):
        # train() descends one state for all its steps; a fresh state per
        # step, built in the same basis from the model the previous one
        # lifted, must take the same steps.  Each lift and reduction
        # rounds, so the two agree to rounding, not bitwise
        cfg = TrainConfig(steps=6, seed=4)
        trained, log = train(scene, cfg)
        model = init_model(cfg.seed)
        basis, pool = reduce_pool(training_pairs(scene, model))
        rng = np.random.default_rng(cfg.seed)
        folded = []
        for _ in range(cfg.steps):
            picks = rng.integers(0, len(pool), size=cfg.batch_pairs)
            state = TrainState(model, basis)
            folded.append(
                train_step(state, [pool[int(i)] for i in picks], cfg.learning_rate)
            )
            model = state.model()
        for got, want in zip(log, folded, strict=True):
            for a, b in zip(terms(got), terms(want)):
                assert f32_error(a, b) <= F32_TOL
        for (w0, b0), (w1, b1) in zip(trained.compression.layers, model.compression.layers):
            assert f32_error(w0, w1) <= F32_TOL and f32_error(b0, b1) <= F32_TOL
        assert f32_error(trained.dummy_score, model.dummy_score) <= F32_TOL

    def test_five_hundred_steps_reach_low_loss(self, scene):
        model, log = train(scene, TrainConfig(steps=500, seed=11))
        assert log[-1].total < 0.1
        assert log[-1].total < log[0].total
