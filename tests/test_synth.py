import numpy as np
import pytest

from cloudtrack.geometry import box_contains
from cloudtrack.metrics import evaluate, read_center_tracks
from cloudtrack.sequence_io import load_frame, open_sequence
from cloudtrack.synth import GT_TRACKS_NAME, SynthConfig, generate, perturb


def tree_bytes(root):
    return {
        p.relative_to(root).as_posix(): p.read_bytes()
        for p in sorted(root.rglob("*"))
        if p.is_file()
    }


@pytest.fixture(scope="module")
def small_scene(tmp_path_factory):
    cfg = SynthConfig(n_objects=3, n_frames=6, seed=42, points_per_object=150)
    root = tmp_path_factory.mktemp("scene")
    return cfg, generate(cfg, root)


class TestGenerate:
    def test_deterministic_bytes(self, small_scene, tmp_path):
        cfg, src = small_scene
        again = generate(cfg, tmp_path / "again")
        assert tree_bytes(src.root) == tree_bytes(again.root)

    def test_every_frame_has_labeled_full_confidence_detections(self, small_scene):
        cfg, src = small_scene
        for f in range(src.frame_count):
            frame = load_frame(src, f)
            assert len(frame.detections) == cfg.n_objects
            for det in frame.detections:
                assert det.confidence == 1.0
                assert det.gt_id is not None

    def test_points_stay_inside_their_boxes(self, small_scene):
        cfg, src = small_scene
        for f in range(src.frame_count):
            frame = load_frame(src, f)
            for det in frame.detections:
                inside = box_contains(det.box, frame.points)
                assert inside.sum() == cfg.points_per_object

    def test_separation_at_least_twice_the_diagonal(self, small_scene):
        cfg, src = small_scene
        for f in range(src.frame_count):
            dets = load_frame(src, f).detections
            diag = max(d.box.diagonal() for d in dets)
            for a in range(len(dets)):
                for b in range(a + 1, len(dets)):
                    gap = np.linalg.norm(dets[a].box.center - dets[b].box.center)
                    assert gap >= 2.0 * diag

    def test_centers_stay_in_arena(self, small_scene):
        cfg, src = small_scene
        for f in range(src.frame_count):
            for det in load_frame(src, f).detections:
                assert abs(det.box.center[0]) <= cfg.arena[0]
                assert abs(det.box.center[1]) <= cfg.arena[1]

    def test_sizes_are_distinct(self, small_scene):
        cfg, src = small_scene
        lengths = sorted(d.box.length for d in load_frame(src, 0).detections)
        assert all(b - a > 0.05 for a, b in zip(lengths, lengths[1:]))

    def test_gt_tracks_file_matches_detections(self, small_scene):
        cfg, src = small_scene
        gt = read_center_tracks(src.root / GT_TRACKS_NAME)
        assert set(gt) == set(range(cfg.n_frames))
        for f in range(cfg.n_frames):
            frame = load_frame(src, f)
            assert set(gt[f]) == {d.gt_id for d in frame.detections}
            for det in frame.detections:
                assert np.allclose(gt[f][det.gt_id], det.box.center, atol=1e-12)
        report = evaluate(gt, gt)
        assert report.mota == 1.0 and report.motp == 0.0


class TestEvents:
    def test_leave_removes_object_permanently(self, tmp_path):
        cfg = SynthConfig(
            n_objects=3, n_frames=8, seed=3, points_per_object=50,
            events=(("leave", 4, 1),),
        )
        src = generate(cfg, tmp_path)
        for f in range(8):
            ids = {d.gt_id for d in load_frame(src, f).detections}
            assert (1 in ids) == (f < 4)

    def test_enter_adds_fresh_identity(self, tmp_path):
        cfg = SynthConfig(
            n_objects=2, n_frames=8, seed=4, points_per_object=50,
            events=(("enter", 5),),
        )
        src = generate(cfg, tmp_path)
        for f in range(8):
            ids = {d.gt_id for d in load_frame(src, f).detections}
            assert (2 in ids) == (f >= 5)
            assert {0, 1} <= ids

    def test_leave_and_enter_together(self, tmp_path):
        cfg = SynthConfig(
            n_objects=2, n_frames=10, seed=5, points_per_object=50,
            events=(("leave", 3, 0), ("enter", 6)),
        )
        src = generate(cfg, tmp_path)
        counts = [len(load_frame(src, f).detections) for f in range(10)]
        assert counts == [2, 2, 2, 1, 1, 1, 2, 2, 2, 2]

    def test_bad_events_rejected(self):
        with pytest.raises(ValueError, match="leave frame"):
            SynthConfig(n_objects=2, n_frames=5, events=(("leave", 0, 0),))
        with pytest.raises(ValueError, match="does not exist"):
            SynthConfig(n_objects=2, n_frames=5, events=(("leave", 2, 7),))
        with pytest.raises(ValueError, match="enter frame"):
            SynthConfig(n_objects=2, n_frames=5, events=(("enter", 5),))
        with pytest.raises(ValueError, match="unknown event"):
            SynthConfig(n_objects=2, n_frames=5, events=(("teleport", 2),))

    def test_bad_config_rejected(self):
        with pytest.raises(ValueError):
            SynthConfig(n_objects=0, n_frames=5)
        with pytest.raises(ValueError):
            SynthConfig(n_objects=1, n_frames=1, speed_range=(0.3, 0.1))

    def test_non_finite_arena_rejected(self):
        for arena in ((np.nan, 30.0), (30.0, np.nan), (np.inf, 30.0)):
            with pytest.raises(ValueError, match="finite"):
                SynthConfig(n_objects=1, n_frames=1, arena=arena)

    def test_non_finite_speed_rejected(self):
        for speeds in ((0.0, np.inf), (0.0, np.nan), (np.nan, 0.2), (np.inf, np.inf)):
            with pytest.raises(ValueError, match="finite"):
                SynthConfig(n_objects=1, n_frames=1, speed_range=speeds)


class TestPerturb:
    def test_zero_rates_change_nothing(self, small_scene, tmp_path):
        cfg, src = small_scene
        clean = generate(cfg, tmp_path / "c")
        before = tree_bytes(clean.root)
        perturb(clean, seed=9)
        assert tree_bytes(clean.root) == before

    def test_deterministic(self, small_scene, tmp_path):
        cfg, src = small_scene
        a = perturb(src, det_noise_sigma=0.1, fp_rate=0.4, fn_rate=0.2,
                    seed=11, out_dir=tmp_path / "a")
        b = perturb(src, det_noise_sigma=0.1, fp_rate=0.4, fn_rate=0.2,
                    seed=11, out_dir=tmp_path / "b")
        assert tree_bytes(a.root) == tree_bytes(b.root)

    def test_false_positives_are_unlabeled_and_low_confidence(
        self, small_scene, tmp_path
    ):
        cfg, src = small_scene
        noisy = perturb(src, fp_rate=0.9, seed=13, out_dir=tmp_path / "n")
        injected = 0
        for f in range(noisy.frame_count):
            for det in load_frame(noisy, f).detections:
                if det.gt_id is None:
                    injected += 1
                    assert det.confidence <= 0.4
                else:
                    assert det.confidence == 1.0
        assert injected > 0

    def test_false_positives_leave_admitted_frames_unchanged(
        self, small_scene, tmp_path
    ):
        cfg, src = small_scene
        noisy = perturb(src, fp_rate=0.8, seed=14, out_dir=tmp_path / "n")
        for f in range(src.frame_count):
            clean_frame = load_frame(src, f)
            kept = [d for d in load_frame(noisy, f).detections
                    if d.confidence > 0.4]
            assert len(kept) == len(clean_frame.detections)
            for a, b in zip(kept, clean_frame.detections):
                assert a.gt_id == b.gt_id
                assert np.array_equal(a.box.center, b.box.center)

    def test_false_positives_spread_over_the_scene(self, tmp_path):
        cfg = SynthConfig(
            n_objects=10, n_frames=3, seed=17, points_per_object=20,
            arena=(100.0, 100.0),
        )
        noisy = perturb(generate(cfg, tmp_path / "c"), fp_rate=1.0, seed=17,
                        out_dir=tmp_path / "n")
        reach = 0.0
        for f in range(noisy.frame_count):
            frame = load_frame(noisy, f)
            half = np.abs(frame.points[:, :2]).max(axis=0)
            for det in frame.detections:
                if det.gt_id is None:
                    xy = np.abs(det.box.center[:2])
                    assert (xy <= half).all()
                    reach = max(reach, xy.max())
        assert reach > 30.0

    def test_drop_rate_one_removes_everything(self, small_scene, tmp_path):
        cfg, src = small_scene
        noisy = perturb(src, fn_rate=1.0, seed=15, out_dir=tmp_path / "n")
        for f in range(noisy.frame_count):
            assert load_frame(noisy, f).detections == ()

    def test_points_and_ground_truth_untouched(self, small_scene, tmp_path):
        cfg, src = small_scene
        noisy = perturb(src, det_noise_sigma=0.5, fp_rate=0.5, fn_rate=0.5,
                        seed=16, out_dir=tmp_path / "n")
        for f in range(src.frame_count):
            assert noisy.point_path(f).read_bytes() == src.point_path(f).read_bytes()
        assert (noisy.root / GT_TRACKS_NAME).read_bytes() == (
            src.root / GT_TRACKS_NAME
        ).read_bytes()

    def test_jitter_magnitude_monte_carlo(self, tmp_path):
        # mean |delta| of a centered normal is sigma * sqrt(2/pi)
        sigma = 0.2
        cfg = SynthConfig(n_objects=4, n_frames=25, seed=21, points_per_object=20)
        src = generate(cfg, tmp_path / "c")
        noisy = perturb(src, det_noise_sigma=sigma, seed=22, out_dir=tmp_path / "n")
        deltas = []
        for f in range(src.frame_count):
            clean_by_id = {d.gt_id: d for d in load_frame(src, f).detections}
            for det in load_frame(noisy, f).detections:
                diff = det.box.center - clean_by_id[det.gt_id].box.center
                deltas.extend(abs(v) for v in diff)
        deltas = np.array(deltas)
        assert len(deltas) == 4 * 25 * 3
        expected = sigma * np.sqrt(2.0 / np.pi)
        se = sigma * 0.6028 / np.sqrt(len(deltas))
        assert abs(deltas.mean() - expected) < 3.0 * se

    def test_each_rate_leaves_the_other_noise_alone(self, tmp_path):
        # misses never take clutter with them, and clutter never moves a
        # labeled row: the unlabeled rows do not depend on fn_rate, nor
        # the labeled rows on fp_rate
        cfg = SynthConfig(n_objects=5, n_frames=40, seed=7, points_per_object=20)
        src = generate(cfg, tmp_path / "c")

        def rows(fp_rate, fn_rate, labeled):
            noisy = perturb(src, det_noise_sigma=0.05, fp_rate=fp_rate,
                            fn_rate=fn_rate, seed=7,
                            out_dir=tmp_path / f"fp{fp_rate}-fn{fn_rate}")
            out = []
            for f in range(noisy.frame_count):
                body = noisy.detection_path(f).read_text().splitlines()[1:]
                out.extend(r for r in body if r.endswith(",") != labeled)
            return out

        clutter = rows(0.3, 0.0, labeled=False)
        assert len(clutter) > 20
        for fn_rate in (0.5, 0.9):
            assert rows(0.3, fn_rate, labeled=False) == clutter
        kept = rows(0.0, 0.5, labeled=True)
        assert 0 < len(kept) < 5 * 40
        for fp_rate in (0.3, 1.0):
            assert rows(fp_rate, 0.5, labeled=True) == kept

    def test_bad_rates_rejected(self, small_scene):
        cfg, src = small_scene
        with pytest.raises(ValueError):
            perturb(src, fp_rate=1.5)
        with pytest.raises(ValueError):
            perturb(src, det_noise_sigma=-0.1)
        with pytest.raises(ValueError):
            perturb(src, conf_model=(0.5, 0.2))

    def test_non_finite_noise_sigma_rejected(self, small_scene, tmp_path):
        cfg, src = small_scene
        for sigma in (np.nan, np.inf):
            out = tmp_path / f"n{sigma}"
            with pytest.raises(ValueError, match="finite"):
                perturb(src, det_noise_sigma=sigma, fp_rate=0.5, out_dir=out)
            assert not out.exists()
