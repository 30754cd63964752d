import hashlib
from dataclasses import replace

import numpy as np
import pytest

from cloudtrack import (
    AssignmentResult,
    FeatureSet,
    LiveTracks,
    TrackerConfig,
    TrackRow,
    init_model,
    open_sequence,
    score_matrix,
    solve_assignment,
    track_sequence,
    update_tracks,
    write_frame,
    write_sequence_meta,
    write_tracks_csv,
)
from cloudtrack.affinity import CompressionNet, augment_and_softmax
from cloudtrack.association import GATE_RADIUS_M, motion_gate
from cloudtrack.geometry import Detection, Frame, OrientedBox3, PointCloud
from cloudtrack.sequence_io import load_admitted_frame
from cloudtrack.synth import SynthConfig, generate, perturb


def brute_force_total(s: np.ndarray, birth: float) -> float:
    """Best total score over all partial matchings that respect the gate."""
    cp, cc = s.shape[0], s.shape[1] - 1
    memo = {}

    def rec(i, used):
        if i == cp:
            return 0.0
        key = (i, used)
        if key not in memo:
            best = rec(i + 1, used)
            for j in range(cc):
                if used >> j & 1:
                    continue
                if s[i, j] > s[i, cc] and s[i, j] > birth:
                    best = max(best, s[i, j] + rec(i + 1, used | (1 << j)))
            memo[key] = best
        return memo[key]

    return rec(0, 0)


def random_scores(rng, cp, cc):
    s = rng.uniform(0.0, 1.0, size=(cp, cc + 1))
    s /= s.sum(axis=1, keepdims=True)
    return s


def matched_total(s, result):
    return sum(s[i, j] for i, j in result.matches)


class TestSolveAssignment:
    def test_single_pair_above_gate(self):
        s = np.array([[0.9, 0.1]])
        r = solve_assignment(s, 0.3)
        assert r.matches == frozenset({(0, 0)})
        assert r.births == frozenset() and r.deaths == frozenset()

    def test_leave_score_blocks_match(self):
        # real score never beats the leave column, so the object dies
        s = np.array([[0.4, 0.6]])
        r = solve_assignment(s, 0.3)
        assert r.matches == frozenset()
        assert r.deaths == frozenset({0}) and r.births == frozenset({0})

    def test_birth_threshold_blocks_match(self):
        s = np.array([[0.25, 0.1]])
        r = solve_assignment(s, 0.3)
        assert r.matches == frozenset()

    def test_threshold_is_strict(self):
        s = np.array([[0.3, 0.1]])
        assert solve_assignment(s, 0.3).matches == frozenset()
        s = np.array([[0.30000001, 0.1]])
        assert solve_assignment(s, 0.3).matches == frozenset({(0, 0)})

    def test_greedy_would_lose(self):
        # row 0 prefers column 0, but the global optimum routes it to
        # column 1 so that row 1 can keep column 0
        s = np.array([
            [0.60, 0.55, 0.01],
            [0.59, 0.05, 0.01],
        ])
        r = solve_assignment(s, 0.3)
        assert r.matches == frozenset({(0, 1), (1, 0)})

    def test_empty_sides(self):
        r = solve_assignment(np.empty((0, 4)), 0.3)
        assert r.matches == frozenset()
        assert r.births == frozenset({0, 1, 2})
        r = solve_assignment(np.array([[0.5], [0.5]]), 0.3)
        assert r.deaths == frozenset({0, 1})

    def test_matches_brute_force_totals(self):
        rng = np.random.default_rng(11)
        for _ in range(120):
            cp = int(rng.integers(1, 8))
            cc = int(rng.integers(1, 8))
            s = random_scores(rng, cp, cc)
            r = solve_assignment(s, 0.1)
            expect = brute_force_total(s, 0.1)
            assert abs(matched_total(s, r) - expect) < 1e-12

    def test_partition_property(self):
        rng = np.random.default_rng(12)
        for _ in range(60):
            cp = int(rng.integers(0, 8))
            cc = int(rng.integers(0, 8))
            s = random_scores(rng, cp, cc) if cp else np.empty((0, cc + 1))
            r = solve_assignment(s, 0.25)
            prev_used = {i for i, _ in r.matches}
            cur_used = {j for _, j in r.matches}
            assert prev_used | r.deaths == set(range(cp))
            assert prev_used & r.deaths == set()
            assert cur_used | r.births == set(range(cc))
            assert cur_used & r.births == set()

    def test_column_permutation_equivariance(self):
        rng = np.random.default_rng(13)
        for _ in range(40):
            cp, cc = 5, 6
            s = random_scores(rng, cp, cc)
            perm = rng.permutation(cc)
            sp = np.empty_like(s)
            sp[:, :cc] = s[:, perm]
            sp[:, cc] = s[:, cc]
            base = solve_assignment(s, 0.1)
            moved = solve_assignment(sp, 0.1)
            inverse = np.argsort(perm)
            assert moved.matches == frozenset(
                (i, int(inverse[j])) for i, j in base.matches
            )

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            solve_assignment(np.array([[np.nan, 0.5]]), 0.3)
        with pytest.raises(ValueError):
            solve_assignment(np.array([[0.5, 0.5]]), 1.5)
        with pytest.raises(ValueError):
            solve_assignment(np.empty((2, 0)), 0.3)


class TestScoreMatrix:
    def test_fuses_and_appends_leave_column(self):
        rng = np.random.default_rng(3)
        cp, cc = 3, 4
        m = rng.normal(size=(cp, cc))
        a1, a2 = augment_and_softmax(m, 0.2)
        s = score_matrix(a1, a2)
        assert s.shape == (cp, cc + 1)
        expect = (a1[:, :cc] + a2[:cp, :]) / 2.0
        assert np.array_equal(s[:, :cc], expect)
        assert np.array_equal(s[:, cc], a1[:, cc])

    def test_rows_bounded_by_one(self):
        rng = np.random.default_rng(4)
        m = rng.normal(size=(5, 7))
        s = score_matrix(*augment_and_softmax(m, -0.4))
        assert (s >= 0.0).all() and (s <= 1.0).all()


def frame_with(index, n):
    """A frame with n detections, slot k centred at x = 10 * index + k."""
    dets = tuple(
        Detection(box_at(10.0 * index + k, 0.0), 0.5 + 0.05 * k) for k in range(n)
    )
    return Frame(index, PointCloud(np.empty((0, 3))), dets)


def links(rows):
    """track_id -> ((frame, slot), ...); rows come frame by frame in slot order."""
    out, slots = {}, {}
    for row in rows:
        slot = slots[row.frame] = slots.get(row.frame, -1) + 1
        out.setdefault(row.track_id, []).append((row.frame, slot))
    return {tid: tuple(entries) for tid, entries in out.items()}


def result(matches=(), births=(), deaths=()):
    return AssignmentResult(frozenset(matches), frozenset(births), frozenset(deaths))


def feats(n):
    return FeatureSet(np.zeros((n, 4)))


EMPTY = LiveTracks(feats(0))


def ids(live):
    return tuple(row.track_id for row in live.rows)


def step(live, res, frame):
    return update_tracks(live, res, frame, feats(len(frame.detections)))


def drive(*steps):
    """Run (result, frame) steps from the empty table: (last table, all rows)."""
    live, rows = EMPTY, []
    for res, frame in steps:
        live, new = step(live, res, frame)
        rows.extend(new)
    return live, rows


class TestUpdateTracks:
    def test_initial_births(self):
        frame = frame_with(0, 2)
        fs = feats(2)
        live, rows = update_tracks(EMPTY, result(births={0, 1}), frame, fs)
        assert links(rows) == {0: ((0, 0),), 1: ((0, 1),)}
        assert live.next_id == 2
        assert rows[1].detection is frame.detections[1]
        assert live.rows is rows and live.features is fs
        assert tuple(row.detection for row in rows) == frame.detections
        assert {row.frame for row in rows} == {0}

    def test_match_extends_track(self):
        live, first = step(EMPTY, result(births={0}), frame_with(0, 1))
        assert ids(live) == (0,)
        frame = frame_with(1, 2)
        live, second = step(live, result(matches={(0, 1)}, births={0}), frame)
        assert links(first + second) == {0: ((0, 0), (1, 1)), 1: ((1, 0),)}
        assert second == (TrackRow(1, 1, frame.detections[0]),
                          TrackRow(1, 0, frame.detections[1]))
        assert ids(live) == (1, 0)

    def test_death_then_birth_uses_fresh_id(self):
        live, rows = drive(
            (result(births={0}), frame_with(0, 1)),
            (result(deaths={0}), frame_with(1, 0)),
            (result(births={0}), frame_with(2, 1)),
        )
        assert set(links(rows)) == {0, 1}
        assert links(rows)[1] == ((2, 0),)
        assert live.next_id == 2

    def test_dead_track_never_reactivates(self):
        # track 0 ends at frame 1; the object on slot 0 of frame 2 is new
        live, rows = step(EMPTY, result(births={0}), frame_with(0, 1))
        assert ids(live) == (0,)
        live, more = step(live, result(deaths={0}), frame_with(1, 0))
        assert live.rows == () and more == ()
        rows += more
        live, more = step(live, result(births={0}), frame_with(2, 1))
        assert ids(live) == (1,)
        rows += more
        live, more = step(live, result(matches={(0, 0)}), frame_with(3, 1))
        assert ids(live) == (1,)
        rows += more
        assert links(rows) == {0: ((0, 0),), 1: ((2, 0), (3, 0))}

    def test_live_follows_slot_order(self):
        live, _ = step(EMPTY, result(births={0, 1, 2}), frame_with(0, 3))
        assert ids(live) == (0, 1, 2)
        frame, fs = frame_with(1, 4), feats(4)
        live, rows = update_tracks(
            live, result(matches={(0, 2), (2, 0)}, births={1, 3}, deaths={1}),
            frame, fs,
        )
        assert live.rows is rows
        assert ids(live) == (2, 3, 0, 4)
        assert tuple(row.detection for row in rows) == frame.detections
        assert live.features is fs
        assert ({row.frame for row in rows}, live.next_id) == ({1}, 5)

    def test_input_table_unchanged(self):
        live, _ = step(EMPTY, result(births={0}), frame_with(0, 1))
        before = (live.features, live.rows, live.next_id)
        step(live, result(matches={(0, 0)}, births={1}), frame_with(1, 2))
        after = (live.features, live.rows, live.next_id)
        assert after == before

    def test_unassigned_current_slot_rejected(self):
        # slot 0 of frame 1 is neither matched nor born
        live, _ = step(EMPTY, result(births={0}), frame_with(0, 1))
        with pytest.raises(ValueError, match="does not partition"):
            step(live, result(matches={(0, 1)}), frame_with(1, 2))

    def test_match_beyond_live_table_rejected(self):
        live, _ = step(EMPTY, result(births={0}), frame_with(0, 1))
        with pytest.raises(ValueError, match="does not partition"):
            step(live, result(matches={(1, 0)}, deaths={0}), frame_with(1, 1))
        with pytest.raises(ValueError, match="does not partition"):
            step(EMPTY, result(matches={(0, 0)}), frame_with(0, 1))

    def test_death_outside_live_table_rejected(self):
        live, _ = step(EMPTY, result(births={0}), frame_with(0, 1))
        with pytest.raises(ValueError, match="does not partition"):
            step(live, result(matches={(0, 0)}, deaths={7}), frame_with(1, 1))

    def test_unended_live_track_rejected(self):
        # previous slot 1 is neither matched nor dead
        live, _ = step(EMPTY, result(births={0, 1}), frame_with(0, 2))
        with pytest.raises(ValueError, match="does not partition"):
            step(live, result(matches={(0, 0)}), frame_with(1, 1))

    def test_feature_rows_must_match_detections(self):
        with pytest.raises(ValueError, match="feature rows"):
            update_tracks(EMPTY, result(births={0, 1}), frame_with(0, 2), feats(1))

    def test_ten_frame_lineage(self):
        # one object tracked 0..4, replaced by a newcomer from frame 5 on
        _, rows = drive(
            (result(births={0}), frame_with(0, 1)),
            *((result(matches={(0, 0)}), frame_with(f, 1)) for f in range(1, 5)),
            (result(births={0}, deaths={0}), frame_with(5, 1)),
            *((result(matches={(0, 0)}), frame_with(f, 1)) for f in range(6, 10)),
        )
        assert links(rows)[0] == tuple((f, 0) for f in range(5))
        assert links(rows)[1] == tuple((f, 0) for f in range(5, 10))

    def test_long_run_keeps_only_the_live_slots(self):
        # 5 objects matched for 2 000 frames: the table never grows
        frames = [frame_with(f, 5) for f in range(2000)]
        same = result(matches={(k, k) for k in range(5)})
        live, rows = drive(
            (result(births=set(range(5))), frames[0]),
            *((same, frame) for frame in frames[1:]),
        )
        assert (len(live.rows), live.features.count) == (5, 5)
        assert ids(live) == (0, 1, 2, 3, 4) and live.next_id == 5
        assert {row.frame for row in live.rows} == {1999}
        assert len(rows) == 10_000
        assert {row.track_id for row in rows} == set(range(5))
        assert links(rows)[3] == tuple((f, 3) for f in range(2000))

    def test_result_validation(self):
        with pytest.raises(ValueError):
            AssignmentResult(frozenset({(0, 0), (0, 1)}), frozenset(), frozenset())
        with pytest.raises(ValueError):
            AssignmentResult(frozenset({(0, 0)}), frozenset({0}), frozenset())


def box_at(x, y):
    return OrientedBox3(np.array([x, y, 1.0]), 2.0, 1.5, 1.2, 0.0)


def shell_points(rng, box, n=60):
    # points on the box faces, shrunk a little so containment is safe
    h = box.half_extents * 0.9
    local = rng.uniform(-1.0, 1.0, size=(n, 3)) * h
    axis = rng.integers(0, 3, size=n)
    side = rng.choice([-1.0, 1.0], size=n)
    local[np.arange(n), axis] = side * h[axis]
    return local + box.center


def write_toy_sequence(root, positions, rng):
    """positions[f] is a list of (x, y) object centers."""
    root.mkdir(parents=True, exist_ok=True)
    for f, centers in enumerate(positions):
        boxes = [box_at(x, y) for x, y in centers]
        pts = (
            np.vstack([shell_points(rng, b) for b in boxes])
            if boxes
            else np.empty((0, 3))
        )
        frame = Frame(
            index=f,
            cloud=PointCloud(pts.astype(np.float32).astype(np.float64)),
            detections=tuple(Detection(b, 1.0) for b in boxes),
        )
        write_frame(root, frame)
    write_sequence_meta(root, len(positions), "toy")
    return open_sequence(root)


@pytest.fixture(scope="module")
def toy(tmp_path_factory):
    rng = np.random.default_rng(77)
    positions = [
        [(0.0, 0.0), (8.0, 0.0)],
        [(0.3, 0.0), (8.3, 0.0)],
        [(0.6, 0.0), (8.6, 0.0)],
        [(0.9, 0.0), (8.9, 0.0)],
    ]
    src = write_toy_sequence(tmp_path_factory.mktemp("seq"), positions, rng)
    return src, init_model(seed=5)


class TestTrackSequence:
    def test_every_slot_lands_in_exactly_one_track(self, toy):
        src, model = toy
        rows = track_sequence(src, model, TrackerConfig())
        seen = set()
        for entries in links(rows).values():
            for entry in entries:
                assert entry not in seen
                seen.add(entry)
        assert seen == {(f, s) for f in range(4) for s in range(2)}

    def test_deterministic_across_reruns(self, toy):
        src, model = toy
        runs = [track_sequence(src, model, TrackerConfig()) for _ in range(3)]
        assert links(runs[0]) == links(runs[1]) == links(runs[2])
        assert len(runs[0]) == len(runs[1]) == len(runs[2])

    def test_empty_frames_take_the_same_path(self, tmp_path):
        # frame 0 and frame 2 have no detections
        rng = np.random.default_rng(78)
        src = write_toy_sequence(tmp_path / "seq", [
            [],
            [(0.0, 0.0), (8.0, 0.0)],
            [],
            [(0.6, 0.0), (8.6, 0.0), (16.0, 0.0)],
            [(0.9, 0.0), (8.9, 0.0), (16.3, 0.0)],
        ], rng)
        rows = track_sequence(src, init_model(seed=5), TrackerConfig())
        owner = [(e, tid) for tid, entries in links(rows).items() for e in entries]
        assert sorted(entry for entry, _ in owner) == [
            (1, 0), (1, 1), (3, 0), (3, 1), (3, 2), (4, 0), (4, 1), (4, 2)
        ]
        ids = sorted({row.track_id for row in rows})
        assert ids == list(range(len(ids)))
        # the empty frame 2 ends both frame-1 tracks
        assert links(rows)[0] == ((1, 0),) and links(rows)[1] == ((1, 1),)
        # rows come frame by frame, each frame's in slot order
        want = [(f, tuple(d.box.center))
                for f in range(src.frame_count)
                for d in load_admitted_frame(src, f).detections]
        assert [(row.frame, tuple(row.detection.box.center)) for row in rows] == want

    def test_csv_round_trip_and_order(self, toy, tmp_path):
        src, model = toy
        rows = track_sequence(src, model, TrackerConfig())
        out = tmp_path / "tracks.csv"
        write_tracks_csv(out, rows)
        lines = out.read_text().splitlines()
        assert lines[0] == "frame,track_id,cx,cy,cz,l,w,h,yaw,conf"
        keys = []
        for line in lines[1:]:
            parts = line.split(",")
            assert len(parts) == 10
            keys.append((int(parts[0]), int(parts[1])))
            assert float(parts[9]) == 1.0
        assert keys == sorted(keys)
        write_tracks_csv(tmp_path / "again.csv", rows)
        assert (tmp_path / "again.csv").read_bytes() == out.read_bytes()

    def test_writing_reads_no_frames(self, toy, tmp_path):
        src, model = toy
        rows = track_sequence(src, model, TrackerConfig())
        before = tmp_path / "before.csv"
        write_tracks_csv(before, rows)
        moved = tmp_path / "moved"
        src.root.rename(moved)
        try:
            after = tmp_path / "after.csv"
            write_tracks_csv(after, rows)
        finally:
            moved.rename(src.root)
        assert after.read_bytes() == before.read_bytes()
        assert after.read_text().count("\n") == 1 + len(rows)

    @pytest.mark.parametrize("noisy, digest", [
        (False, "0967833a28370ce74071a51021ab93ceb7bb3ecf5a39901fd221d7d50c026ac1"),
        (True, "2dbfd3b152b9a5e850991d327efd77d1053596dd2de928c7d3036f779fc9b00b"),
    ])
    def test_tracks_csv_bytes_are_pinned(self, tmp_path, noisy, digest):
        # the acceptance suite's c6 scene, and a scene of the same recipe
        # perturbed as the benchmark's paper5_noisy workload perturbs it.
        # In every frame of both, each gated row and column has at most
        # one candidate and every score clears the leave and birth bars by
        # 0.05 or more, so the gate and the decisions, not the last bits
        # of a BLAS sum, fix the bytes
        seed = 901 if noisy else 900
        src = generate(
            SynthConfig(5, 30, seed=seed, events=(("leave", 10, 2), ("enter", 18))),
            tmp_path / "clean",
        )
        if noisy:
            src = perturb(
                src, det_noise_sigma=0.05, fn_rate=0.1, fp_rate=0.3,
                conf_model=(0.0, 0.4), seed=seed, out_dir=tmp_path / "noisy",
            )
        out = tmp_path / "tracks.csv"
        write_tracks_csv(out, track_sequence(src, init_model(0), TrackerConfig()))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestMotionGate:
    def test_radius_is_inclusive_and_scales_with_gap(self):
        r = GATE_RADIUS_M
        prev = [[0.0, 0.0, 0.0]]
        cur = [[r, 0.0, 0.0], [np.nextafter(r, 2 * r), 0.0, 0.0],
               [0.0, 1.5 * r, 0.0], [0.0, 2 * r, 0.0]]
        assert motion_gate(prev, cur, [1]).tolist() == [[True, False, False, False]]
        assert motion_gate(prev, cur, [2]).tolist() == [[True, True, True, True]]
        # each previous row reaches as far as its own gap
        assert motion_gate(prev * 2, cur, [1, 2]).tolist() == [
            [True, False, False, False], [True, True, True, True]
        ]

    def test_xy_distance_ignores_height(self):
        prev = [[3.0, 4.0, 0.0]]
        cur = [[3.0 + 0.6 * GATE_RADIUS_M, 4.0 + 0.8 * GATE_RADIUS_M, 50.0]]
        assert motion_gate(prev, cur, [1]).tolist() == [[True]]

    def test_shape_follows_counts(self):
        assert motion_gate([], [[0.0, 0.0, 0.0]] * 3, []).shape == (0, 3)
        assert motion_gate([[0.0, 0.0, 0.0]] * 2, [], [1, 1]).shape == (2, 0)


GRID = np.array(
    [(x, y, z) for x in (-0.75, -0.25, 0.25, 0.75)
     for y in (-0.5, 0.0, 0.5) for z in (-0.5, 0.0, 0.5)]
)


def write_grid_sequence(root, positions):
    """positions[f] lists (x, y) centers; every object has the same points.

    The grid and the centers are exact binary fractions, so each crop is
    the same local point set and every object gets the same feature.
    """
    root.mkdir(parents=True, exist_ok=True)
    for f, centers in enumerate(positions):
        boxes = [box_at(x, y) for x, y in centers]
        pts = np.vstack([GRID + b.center for b in boxes])
        write_frame(root, Frame(
            index=f,
            cloud=PointCloud(pts),
            detections=tuple(Detection(b, 1.0) for b in boxes),
        ))
    write_sequence_meta(root, len(positions), "grid")
    return open_sequence(root)


def constant_net(score):
    """A compression net that gives every pair the same raw score."""
    widths = (1024, 512, 256, 128, 64, 1)
    layers = [(np.zeros((o, i)), np.zeros(o)) for i, o in zip(widths, widths[1:])]
    layers[-1] = (layers[-1][0], np.array([score]))
    return CompressionNet(layers)


class TestGatedTracking:
    def test_same_size_objects_keep_ids_when_slots_swap(self, tmp_path):
        # features tie exactly, so only the positions tell the objects apart
        src = write_grid_sequence(tmp_path / "seq", [
            [(0.0, 0.0), (8.0, 0.0)],
            [(8.25, 0.0), (0.25, 0.0)],
            [(0.5, 0.0), (8.5, 0.0)],
        ])
        base = init_model(seed=5)
        model = replace(base, dummy_score=-10.0)
        rows = track_sequence(src, model, TrackerConfig())
        assert links(rows) == {
            0: ((0, 0), (1, 1), (2, 0)),
            1: ((0, 1), (1, 0), (2, 1)),
        }

    def test_pair_out_of_reach_never_links(self, tmp_path):
        # object A jumps 1.5 radii; B moves a little.  Every pair scores
        # 30 against a dummy of 0, so ungated A would link at score ~0.5
        jump = 1.5 * GATE_RADIUS_M
        src = write_grid_sequence(tmp_path / "seq", [
            [(0.0, 0.0), (20.0, 0.0)],
            [(jump, 0.0), (20.25, 0.0)],
        ])
        model = replace(init_model(seed=5), compression=constant_net(30.0))
        rows = track_sequence(src, model, TrackerConfig(birth_threshold=0.0))
        assert links(rows) == {0: ((0, 0),), 1: ((0, 1), (1, 1)), 2: ((1, 0),)}
