"""Acceptance gate: eleven pipeline-level criteria at fixed tolerances.

Each test prints exactly one ``criterion N ...: PASS|FAIL`` line (shown
with ``pytest -s``, or in the captured output of a failing run) and then
asserts the same condition, so the suite is green iff every criterion
holds.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from cloudtrack import association
from cloudtrack.affinity import augment_and_softmax
from cloudtrack.association import (
    TrackerConfig,
    solve_assignment,
    track_sequence,
    write_tracks_csv,
)
from cloudtrack.cli import run
from cloudtrack.losses import GroundTruthAssignment, loss_from_raw
from cloudtrack.metrics import evaluate, read_center_tracks
from cloudtrack.model import init_model
from cloudtrack.pointnet import pointnet_forward
from cloudtrack.sequence_io import open_sequence
from cloudtrack.synth import GT_TRACKS_NAME, SynthConfig, generate, perturb
from cloudtrack.training import TrainConfig, train
from cloudtrack.verification import fd_gradient_check, random_instance


def verdict(name: str, ok: bool, detail: str) -> str:
    line = f"criterion {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    print(line)
    return line


def test_c1_analytic_gradients_match_finite_differences():
    rng = np.random.default_rng(2024)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(20):
        m1, m2, gt, _ = random_instance(rng, max_count=8)
        worst = max(worst, fd_gradient_check(m1, m2, gt))
    elapsed = time.perf_counter() - started
    ok = worst < 1e-4 and elapsed < 10.0
    line = verdict(
        "1 gradient check", ok, f"max rel err {worst:.3e}, {elapsed:.2f}s"
    )
    assert ok, line


def test_c2_loss_identities():
    cap = 100
    gt = GroundTruthAssignment(np.eye(cap))

    sharp = loss_from_raw(
        np.where(gt.g1 > 0.5, 80.0, 0.0), np.where(gt.g2 > 0.5, 80.0, 0.0), gt
    )
    perfect_err = max(abs(v) for v in (sharp.l_f, sharp.l_b, sharp.l_c, sharp.l_a, sharp.total))
    flat = loss_from_raw(np.zeros((cap, cap + 1)), np.zeros((cap + 1, cap)), gt)
    uniform_err = abs(flat.l_f - math.log(cap + 1.0))

    ok = perfect_err <= 1e-12 and uniform_err <= 1e-9
    line = verdict(
        "2 loss identities",
        ok,
        f"perfect err {perfect_err:.1e}, flat l_f {flat.l_f:.5f} vs ln(101), "
        f"err {uniform_err:.1e}",
    )
    assert ok, line


def test_c3_softmax_contracts():
    rng = np.random.default_rng(7)
    worst_sum = 0.0
    worst_shift = 0.0
    for _ in range(1000):
        cp, cc = int(rng.integers(0, 9)), int(rng.integers(0, 9))
        m = rng.normal(size=(cp, cc)) * 3.0
        dummy = float(rng.normal())
        a1, a2 = augment_and_softmax(m, dummy)
        if cp:
            worst_sum = max(worst_sum, np.abs(a1.sum(axis=1) - 1.0).max())
        if cc:
            worst_sum = max(worst_sum, np.abs(a2.sum(axis=0) - 1.0).max())
        shift = float(rng.uniform(-20.0, 20.0))
        moved1, moved2 = augment_and_softmax(m + shift, dummy + shift)
        worst_shift = max(
            worst_shift,
            np.abs(moved1 - a1).max(initial=0.0),
            np.abs(moved2 - a2).max(initial=0.0),
        )
    ok = worst_sum <= 1e-9 and worst_shift <= 1e-12
    line = verdict(
        "3 softmax contracts",
        ok,
        f"worst sum err {worst_sum:.1e}, worst shift err {worst_shift:.1e}",
    )
    assert ok, line


def brute_force_best(s: np.ndarray, birth_threshold: float) -> float:
    cp, cc = s.shape[0], s.shape[1] - 1

    @lru_cache(maxsize=None)
    def best(i: int, used: int) -> float:
        if i == cp:
            return 0.0
        top = best(i + 1, used)
        for j in range(cc):
            if used >> j & 1:
                continue
            if s[i, j] > s[i, cc] and s[i, j] > birth_threshold:
                top = max(top, s[i, j] + best(i + 1, used | 1 << j))
        return top

    return best(0, 0)


def test_c4_assignment_optimality():
    rng = np.random.default_rng(31)
    started = time.perf_counter()
    worst = 0.0
    for _ in range(200):
        cp = int(rng.integers(1, 8))
        cc = int(rng.integers(1, 8))
        s = rng.uniform(0.0, 1.0, size=(cp, cc + 1))
        rows, cols = solve_assignment(s, birth_threshold=0.3)
        total = s[rows, cols].sum()
        worst = max(worst, abs(total - brute_force_best(s, 0.3)))
    elapsed = time.perf_counter() - started
    ok = worst <= 1e-12 and elapsed < 5.0
    line = verdict(
        "4 assignment optimality", ok, f"worst gap {worst:.1e}, {elapsed:.2f}s"
    )
    assert ok, line


def test_c5_feature_permutation_invariance():
    rng = np.random.default_rng(99)
    weights = init_model(seed=0).pointnet
    mismatches = 0
    for _ in range(100):
        n = int(rng.integers(4, 129))
        pts = np.zeros((128, 3))
        pts[:n] = rng.normal(size=(n, 3)) * 2.0
        base = pointnet_forward(pts[:n], weights)
        for _ in range(10):
            shuffled = np.zeros_like(pts)
            shuffled[:n] = pts[:n][rng.permutation(n)]
            other = pointnet_forward(shuffled[:n], weights)
            if base.tobytes() != other.tobytes():
                mismatches += 1
    ok = mismatches == 0
    line = verdict(
        "5 permutation invariance",
        ok,
        f"{mismatches} mismatches over 100 objects x 10 permutations",
    )
    assert ok, line


@pytest.fixture(scope="module")
def trained_setup(tmp_path_factory):
    """Synthetic train/eval scenes plus a model trained on the former."""
    root = tmp_path_factory.mktemp("acceptance")
    train_src = generate(
        SynthConfig(
            n_objects=4, n_frames=40, seed=800,
            events=(("leave", 15, 1), ("enter", 25)),
        ),
        root / "train",
    )
    eval_src = generate(
        SynthConfig(
            n_objects=5, n_frames=30, seed=900,
            events=(("leave", 10, 2), ("enter", 18)),
        ),
        root / "eval",
    )
    steps = 500
    started = time.perf_counter()
    model, _ = train(train_src, TrainConfig(steps=steps, learning_rate=1e-2, seed=0))
    train_seconds = time.perf_counter() - started
    return root, eval_src, model, steps, train_seconds


def test_c6_end_to_end_synthetic_tracking(trained_setup):
    root, eval_src, model, steps, train_seconds = trained_setup
    ts = track_sequence(eval_src, model, TrackerConfig())
    pred_path = root / "pred.csv"
    write_tracks_csv(pred_path, ts)
    report = evaluate(
        read_center_tracks(eval_src.root / GT_TRACKS_NAME),
        read_center_tracks(pred_path),
        match_radius=1.0,
    )
    ok = (
        steps <= 2000
        and train_seconds < 300.0
        and report.mota >= 0.90
        and report.id_switches <= 2
    )
    line = verdict(
        "6 end-to-end tracking",
        ok,
        f"{steps} steps in {train_seconds:.1f}s, MOTA {report.mota:.4f}, "
        f"IDS {report.id_switches}",
    )
    assert ok, line


def tracked_report(src, model, path):
    write_tracks_csv(path, track_sequence(src, model, TrackerConfig()))
    return evaluate(
        read_center_tracks(src.root / GT_TRACKS_NAME),
        read_center_tracks(path),
        match_radius=1.0,
    )


def test_c11_head_links_without_the_motion_gate(trained_setup, monkeypatch):
    # c6 passes on the gate alone, untrained weights included; with the
    # gate's reach beyond the arena only the trained head can link
    root, eval_src, model, _, _ = trained_setup
    monkeypatch.setattr(association, "GATE_RADIUS_M", 1e6)
    trained = tracked_report(eval_src, model, root / "gate_off.csv")
    untrained = tracked_report(eval_src, init_model(0), root / "gate_off_init.csv")
    ok = (
        trained.mota >= 0.90
        and trained.id_switches <= 2
        and untrained.mota < 0.5
    )
    line = verdict(
        "11 head links without the gate",
        ok,
        f"trained MOTA {trained.mota:.4f}, IDS {trained.id_switches}; "
        f"init_model(0) MOTA {untrained.mota:.4f}, IDS {untrained.id_switches}",
    )
    assert ok, line


def test_c7_confidence_filter_contract(trained_setup, tmp_path):
    root, eval_src, model, _, _ = trained_setup
    noisy_src = perturb(
        eval_src, fp_rate=0.6, conf_model=(0.0, 0.4), seed=77,
        out_dir=tmp_path / "noisy",
    )
    injected = 0
    for index in range(noisy_src.frame_count):
        raw = (noisy_src.root / "detections" / f"{index}.csv").read_text()
        injected += sum(1 for row in raw.splitlines()[1:] if row.endswith(","))
    paths = []
    for name, src in (("clean", eval_src), ("noisy", noisy_src)):
        ts = track_sequence(src, model, TrackerConfig())
        path = tmp_path / f"{name}.csv"
        write_tracks_csv(path, ts)
        paths.append(path)
    identical = paths[0].read_bytes() == paths[1].read_bytes()
    ok = injected > 0 and identical
    line = verdict(
        "7 confidence filter",
        ok,
        f"{injected} injected detections at conf <= 0.4, "
        f"output identical: {identical}",
    )
    assert ok, line


def random_mot_scenario(rng: np.random.Generator):
    """Ground truth plus a degraded prediction for the MOTA identity check."""
    n_frames = int(rng.integers(2, 8))
    n_objects = int(rng.integers(1, 5))
    gt = {}
    pred = {}
    starts = rng.uniform(-40.0, 40.0, size=(n_objects, 3))
    vels = rng.uniform(-0.5, 0.5, size=(n_objects, 3))
    relabel = {i: i + 50 if rng.random() < 0.3 else i for i in range(n_objects)}
    for f in range(n_frames):
        gt[f] = {i: starts[i] + f * vels[i] for i in range(n_objects)}
        pred[f] = {}
        for i in range(n_objects):
            if rng.random() < 0.2:
                continue
            pid = relabel[i] if f >= n_frames // 2 else i
            pred[f][pid] = gt[f][i] + rng.normal(size=3) * 0.1
        if rng.random() < 0.3:
            pred[f][900 + f] = rng.uniform(200.0, 300.0, size=3)
    return gt, pred


def test_c8_mota_self_consistency():
    rng = np.random.default_rng(5)
    worst = 0.0
    for _ in range(30):
        gt, pred = random_mot_scenario(rng)
        report = evaluate(gt, pred)
        errors = report.false_neg + report.false_pos + report.id_switches
        worst = max(worst, abs(report.mota - (1.0 - errors / report.gt_count)))

    a, b = np.zeros(3), np.array([5.0, 0.0, 0.0])
    gt = {f: {0: a, 1: b} for f in range(3)}
    pred = {0: {10: a, 11: b}, 1: {11: a, 10: b}, 2: {11: a, 10: b}}
    swap = evaluate(gt, pred)

    ok = (
        worst <= 1e-12
        and swap.id_switches == 2
        and swap.false_pos == 0
        and swap.false_neg == 0
        and swap.mota == 2.0 / 3.0
    )
    line = verdict(
        "8 MOTA self-consistency",
        ok,
        f"worst identity err {worst:.1e}, swap case IDS {swap.id_switches}, "
        f"MOTA {swap.mota!r}",
    )
    assert ok, line


def test_c10_dense_scene_tracking(trained_setup, tmp_path):
    _, _, model, _, _ = trained_setup
    dense_src = generate(
        SynthConfig(n_objects=40, n_frames=8, seed=11, arena=(60.0, 60.0)),
        tmp_path / "dense",
    )
    started = time.perf_counter()
    ts = track_sequence(dense_src, model, TrackerConfig())
    elapsed = time.perf_counter() - started
    pred_path = tmp_path / "pred.csv"
    write_tracks_csv(pred_path, ts)
    report = evaluate(
        read_center_tracks(dense_src.root / GT_TRACKS_NAME),
        read_center_tracks(pred_path),
        match_radius=1.0,
    )
    ok = report.mota >= 0.99 and report.id_switches <= 1 and elapsed < 30.0
    line = verdict(
        "10 dense tracking",
        ok,
        f"40 objects x 8 frames, MOTA {report.mota:.4f}, "
        f"IDS {report.id_switches}, {elapsed:.2f}s",
    )
    assert ok, line


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


def test_c9_determinism_across_reruns_and_threads(tmp_path):
    synth_flags = ["--objects", "3", "--frames", "8", "--seed", "21",
                   "--points-per-object", "80"]
    seqs = []
    for name in ("a", "b"):
        out = tmp_path / f"seq_{name}"
        assert run(["synth", "--out", str(out), *synth_flags]) == 0
        seqs.append(out)
    synth_same = tree_bytes(seqs[0]) == tree_bytes(seqs[1])

    weights = []
    for name, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / f"model_{name}.bin"
        assert run([
            "train", "--seq", str(seqs[0]), "--out", str(out),
            "--steps", "15", "--seed", "6", "--threads", threads,
        ]) == 0
        weights.append(out)
    train_same = weights[0].read_bytes() == weights[1].read_bytes()

    tracks = []
    for name, threads in (("a", "1"), ("b", "4")):
        out = tmp_path / f"tracks_{name}.csv"
        assert run([
            "track", "--seq", str(seqs[0]), "--weights", str(weights[0]),
            "--out", str(out), "--threads", threads,
        ]) == 0
        tracks.append(out)
    track_same = tracks[0].read_bytes() == tracks[1].read_bytes()

    ok = synth_same and train_same and track_same
    line = verdict(
        "9 determinism",
        ok,
        f"synth identical: {synth_same}, train identical: {train_same}, "
        f"track identical: {track_same}",
    )
    assert ok, line
