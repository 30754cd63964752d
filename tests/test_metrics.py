import json

import numpy as np
import pytest
from scipy.optimize import linear_sum_assignment
from test_acceptance import random_mot_scenario

from cloudtrack import metrics
from cloudtrack.metrics import (
    MotReport,
    evaluate,
    read_center_tracks,
    report_json,
    report_table,
)


def tracks(rows):
    """rows of (frame, id, x, y, z) -> frame -> id -> center."""
    out = {}
    for frame, tid, x, y, z in rows:
        out.setdefault(frame, {})[tid] = np.array([x, y, z], dtype=np.float64)
    return out


def straight_line(tid, n_frames, y, start_id_at=0):
    return [(f + start_id_at, tid, float(f), y, 0.0) for f in range(n_frames)]


class TestEvaluateBasics:
    def test_perfect_identity(self):
        gt = tracks(straight_line(0, 5, 0.0) + straight_line(1, 5, 4.0))
        report = evaluate(gt, gt)
        assert report.mota == 1.0
        assert report.motp == 0.0
        assert report.id_switches == 0
        assert report.false_pos == 0 and report.false_neg == 0
        assert report.matches == 10 and report.gt_count == 10

    def test_empty_prediction_counts_all_misses(self):
        gt = tracks([(0, i, float(3 * i), 0.0, 0.0) for i in range(10)])
        report = evaluate(gt, {})
        assert report.false_neg == 10
        assert report.false_pos == 0 and report.id_switches == 0
        assert report.mota == 0.0
        assert report.motp == 0.0

    def test_swap_counts_two_switches(self):
        gt = tracks(straight_line(0, 3, 0.0) + straight_line(1, 3, 5.0))
        pred = tracks(
            [(0, 10, 0.0, 0.0, 0.0), (0, 11, 0.0, 5.0, 0.0)]
            + [(f, 10, float(f), 5.0, 0.0) for f in (1, 2)]
            + [(f, 11, float(f), 0.0, 0.0) for f in (1, 2)]
        )
        report = evaluate(gt, pred)
        assert report.id_switches == 2
        assert report.false_pos == 0 and report.false_neg == 0
        assert report.mota == 2.0 / 3.0

    def test_offset_prediction_sets_motp(self):
        gt = tracks(straight_line(0, 4, 0.0))
        pred = tracks([(f, 7, float(f), 0.5, 0.0) for f in range(4)])
        report = evaluate(gt, pred)
        assert abs(report.motp - 0.5) < 1e-12
        assert report.mota == 1.0

    def test_out_of_radius_prediction_is_fp_plus_fn(self):
        gt = tracks([(0, 0, 0.0, 0.0, 0.0)])
        pred = tracks([(0, 9, 10.0, 0.0, 0.0)])
        report = evaluate(gt, pred)
        assert report.false_pos == 1 and report.false_neg == 1
        assert report.mota == -1.0

    def test_radius_is_inclusive(self):
        gt = tracks([(0, 0, 0.0, 0.0, 0.0)])
        pred = tracks([(0, 9, 1.0, 0.0, 0.0)])
        assert evaluate(gt, pred, match_radius=1.0).matches == 1

    def test_every_gated_pair_matches_at_any_scale(self):
        # all three pairs within a 5e8 radius can match at once, although
        # their distances sum past 1e9: the most pairs comes first
        gt = tracks(
            [(0, k, x, 0.0, 0.0) for k, x in enumerate((0.0, 4.9e8, 9.8e8 + 1))]
        )
        pred = tracks(
            [(0, 10 + k, x, 0.0, 0.0) for k, x in enumerate((-4.9e8, 1.0, 4.9e8 + 1))]
        )
        report = evaluate(gt, pred, match_radius=5e8)
        assert report.matches == 3
        assert report.false_neg == 0 and report.false_pos == 0

    def test_continuation_preferred_over_closer_newcomer(self):
        # track 7 matched gt 0 in frame 0; in frame 1 a new id sits a
        # little closer but the continuation is still inside the radius
        gt = tracks([(0, 0, 0.0, 0.0, 0.0), (1, 0, 1.0, 0.0, 0.0)])
        pred = tracks(
            [
                (0, 7, 0.0, 0.0, 0.0),
                (1, 7, 1.0, 0.4, 0.0),
                (1, 8, 1.0, 0.1, 0.0),
            ]
        )
        report = evaluate(gt, pred)
        assert report.id_switches == 0
        assert report.false_pos == 1


class TestEvaluateErrors:
    def test_empty_ground_truth_rejected(self):
        with pytest.raises(ValueError, match="no objects"):
            evaluate({}, {})
        with pytest.raises(ValueError, match="no objects"):
            evaluate({0: {}}, {})

    def test_prediction_outside_frame_range_rejected(self):
        gt = tracks([(0, 0, 0.0, 0.0, 0.0), (1, 0, 1.0, 0.0, 0.0)])
        pred = tracks([(5, 1, 0.0, 0.0, 0.0)])
        with pytest.raises(ValueError, match="outside"):
            evaluate(gt, pred)

    def test_bad_radius_rejected(self):
        gt = tracks([(0, 0, 0.0, 0.0, 0.0)])
        with pytest.raises(ValueError):
            evaluate(gt, gt, match_radius=0.0)

    def test_non_finite_radius_rejected(self):
        gt = tracks([(0, 0, 0.0, 0.0, 0.0)])
        for radius in (np.nan, np.inf):
            with pytest.raises(ValueError, match="finite"):
                evaluate(gt, gt, match_radius=radius)


def random_scenario(rng, n_objects=6, n_frames=8, drop=0.2, relabel=None):
    gt_rows, pred_rows = [], []
    starts = rng.uniform(-20.0, 20.0, size=(n_objects, 3))
    vels = rng.uniform(-0.5, 0.5, size=(n_objects, 3))
    for f in range(n_frames):
        for k in range(n_objects):
            c = starts[k] + f * vels[k]
            gt_rows.append((f, k, c[0], c[1], c[2]))
            if rng.uniform() > drop:
                pid = k if relabel is None else relabel[k]
                noise = rng.uniform(-0.2, 0.2, size=3)
                pred_rows.append((f, pid, *(c + noise)))
    return tracks(gt_rows), tracks(pred_rows)


class TestEvaluateProperties:
    def test_mota_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            gt, pred = random_scenario(rng)
            r = evaluate(gt, pred)
            expected = 1.0 - (r.false_neg + r.false_pos + r.id_switches) / r.gt_count
            assert abs(r.mota - expected) < 1e-12

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            seed = int(rng.integers(0, 2**32))
            relabel = {k: 1000 + 7 * k for k in range(6)}
            gt_a, pred_a = random_scenario(np.random.default_rng(seed))
            gt_b, pred_b = random_scenario(
                np.random.default_rng(seed), relabel=relabel
            )
            ra = evaluate(gt_a, pred_a)
            rb = evaluate(gt_b, pred_b)
            assert ra == rb

    def test_deleting_far_false_positives_never_hurts(self):
        rng = np.random.default_rng(23)
        for _ in range(20):
            gt, pred = random_scenario(rng)
            noisy = {f: dict(objs) for f, objs in pred.items()}
            # clutter far beyond every trajectory and the match radius
            for f in gt:
                for k in range(int(rng.integers(1, 4))):
                    noisy.setdefault(f, {})[5000 + k] = np.array(
                        [500.0 + 10 * k, 500.0, 0.0]
                    )
            clean_r = evaluate(gt, pred)
            noisy_r = evaluate(gt, noisy)
            assert clean_r.mota >= noisy_r.mota
            assert noisy_r.false_pos > clean_r.false_pos


def match_frame_loop(gt_objs, pred_objs, last_match, radius):
    """Reference matcher: one norm per gt/pred pair in a double loop."""
    pairs = []
    used_pred = set()
    remaining_gt = []
    for gid in sorted(gt_objs):
        pid = last_match.get(gid)
        if pid is not None and pid in pred_objs and pid not in used_pred:
            d = float(np.linalg.norm(gt_objs[gid] - pred_objs[pid]))
            if d <= radius:
                pairs.append((gid, pid, d))
                used_pred.add(pid)
                continue
        remaining_gt.append(gid)
    remaining_pred = [pid for pid in sorted(pred_objs) if pid not in used_pred]
    if remaining_gt and remaining_pred:
        # a pair out of reach costs more than any matching's gated pairs
        # can sum to, so scipy's full assignment keeps the most pairs
        unmatchable = (min(len(remaining_gt), len(remaining_pred)) + 1) * radius
        cost = np.empty((len(remaining_gt), len(remaining_pred)))
        for a, gid in enumerate(remaining_gt):
            for b, pid in enumerate(remaining_pred):
                d = float(np.linalg.norm(gt_objs[gid] - pred_objs[pid]))
                cost[a, b] = d if d <= radius else unmatchable
        rows, cols = linear_sum_assignment(cost)
        for a, b in zip(rows, cols):
            if cost[a, b] <= radius:
                pairs.append((remaining_gt[a], remaining_pred[b], cost[a, b]))
    return pairs


def crowded_scenario(rng, n_objects=12, n_frames=10):
    """Objects within a match radius of each other, ids that swap and drop."""
    gt_rows, pred_rows = [], []
    starts = rng.uniform(-2.0, 2.0, size=(n_objects, 3))
    vels = rng.uniform(-0.3, 0.3, size=(n_objects, 3))
    for f in range(n_frames):
        pids = rng.permutation(n_objects) if rng.uniform() < 0.3 else range(n_objects)
        for k, pid in zip(range(n_objects), pids):
            c = starts[k] + f * vels[k]
            gt_rows.append((f, k, *c))
            if rng.uniform() > 0.15:
                pred_rows.append((f, int(pid), *(c + rng.normal(size=3) * 0.3)))
    return tracks(gt_rows), tracks(pred_rows)


class TestMatchFrameOracle:
    """The distance-matrix matcher agrees with the per-pair loop."""

    def assert_same_report(self, monkeypatch, gt, pred):
        fast = evaluate(gt, pred)
        with monkeypatch.context() as patch:
            patch.setattr(metrics, "_match_frame", match_frame_loop)
            slow = evaluate(gt, pred)
        for field in ("false_neg", "false_pos", "id_switches", "matches", "mota"):
            assert getattr(fast, field) == getattr(slow, field), field
        assert abs(fast.motp - slow.motp) <= 1e-12

    def test_c8_scenarios(self, monkeypatch):
        rng = np.random.default_rng(5)
        for _ in range(30):
            self.assert_same_report(monkeypatch, *random_mot_scenario(rng))

    def test_random_and_crowded_scenes(self, monkeypatch):
        rng = np.random.default_rng(24)
        for _ in range(20):
            self.assert_same_report(monkeypatch, *random_scenario(rng))
            self.assert_same_report(monkeypatch, *crowded_scenario(rng))


class TestReportFormats:
    def report(self):
        gt = tracks(straight_line(0, 3, 0.0))
        return evaluate(gt, gt)

    def test_json_field_names(self):
        data = json.loads(report_json(self.report()))
        assert set(data) == {
            "mota",
            "motp",
            "id_switches",
            "false_pos",
            "false_neg",
            "gt_count",
            "matches",
        }
        assert data["mota"] == 1.0
        assert data["matches"] == 3

    def test_table_mentions_every_metric(self):
        table = report_table(self.report())
        labels = [line.split("  ")[0] for line in table.splitlines()]
        assert labels == ["MOTA", "MOTP", "ID switches", "False positives",
                          "False negatives", "GT objects", "Matches"]

    def test_report_validation(self):
        with pytest.raises(ValueError):
            MotReport(1.0, 0.0, 0, 0, 0, 0, 0)
        with pytest.raises(ValueError):
            MotReport(0.9, 0.0, 0, 0, 0, 10, 10)
        with pytest.raises(ValueError):
            MotReport(1.0, -0.1, 0, 0, 0, 10, 10)


class TestReadCenterTracks:
    def test_reads_track_csv(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text(
            "frame,track_id,cx,cy,cz,l,w,h,yaw,conf\n"
            "0,3,1.0,2.0,3.0,4.0,1.8,1.6,0.0,1.0\n"
            "1,3,1.5,2.0,3.0,4.0,1.8,1.6,0.0,1.0\n"
        )
        out = read_center_tracks(path)
        assert set(out) == {0, 1}
        assert np.array_equal(out[0][3], [1.0, 2.0, 3.0])
        assert np.array_equal(out[1][3], [1.5, 2.0, 3.0])

    def test_rejects_bad_header_and_rows(self, tmp_path):
        bad = tmp_path / "bad.csv"
        bad.write_text("nope\n")
        with pytest.raises(ValueError, match="not a tracks CSV"):
            read_center_tracks(bad)
        dup = tmp_path / "dup.csv"
        dup.write_text(
            "frame,track_id,cx,cy,cz,l,w,h,yaw,conf\n"
            "0,3,1.0,2.0,3.0,4.0,1.8,1.6,0.0,1.0\n"
            "0,3,9.0,2.0,3.0,4.0,1.8,1.6,0.0,1.0\n"
        )
        with pytest.raises(ValueError, match="repeats"):
            read_center_tracks(dup)
        short = tmp_path / "short.csv"
        short.write_text("frame,track_id,cx,cy,cz,l,w,h,yaw,conf\n0,3,1.0\n")
        with pytest.raises(ValueError, match="short.csv:2"):
            read_center_tracks(short)
