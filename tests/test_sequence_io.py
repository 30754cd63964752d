"""On-disk sequence format and the confidence admission filter."""

import re
import shutil
import struct

import numpy as np
import pytest

from cloudtrack.geometry import Detection, Frame, OrientedBox3
from cloudtrack.metrics import read_center_tracks
from cloudtrack.sequence_io import (
    DEFAULT_CONFIDENCE_THRESHOLD,
    DETECTION_HEADER,
    SequenceSource,
    admit_detections,
    load_admitted_frame,
    load_frame,
    open_sequence,
    write_frame,
    write_sequence_meta,
    write_tracks_file,
)


def make_sequence(root, frames):
    """Write a sequence directory from a list of Frame values."""
    write_sequence_meta(root, len(frames))
    for f in frames:
        write_frame(root, f)


def simple_detection(conf, cx=0.0, gt_id=None):
    box = OrientedBox3(np.array([cx, 0.0, 0.0]), 1.0, 1.0, 1.0, 0.0)
    return Detection(box, conf, gt_id)


class TestLoadFrame:
    def test_empty_frame(self, tmp_path):
        write_sequence_meta(tmp_path, 1)
        frame = Frame(0, np.empty((0, 3)), ())
        write_frame(tmp_path, frame)
        src = open_sequence(tmp_path)
        loaded = load_frame(src, 0)
        assert len(loaded.points) == 0
        assert loaded.detections == ()

    def test_point_triple_format(self, tmp_path):
        write_sequence_meta(tmp_path, 1)
        (tmp_path / "frames").mkdir()
        (tmp_path / "detections").mkdir()
        (tmp_path / "frames" / "0.xyz").write_bytes(
            struct.pack("<3f", 1.0, 2.0, -3.5)
        )
        (tmp_path / "detections" / "0.csv").write_text(DETECTION_HEADER + "\n")
        loaded = load_frame(open_sequence(tmp_path), 0)
        assert loaded.points.shape == (1, 3)
        assert np.array_equal(loaded.points[0], [1.0, 2.0, -3.5])

    def test_detection_row_format(self, tmp_path):
        write_sequence_meta(tmp_path, 1)
        (tmp_path / "frames").mkdir()
        (tmp_path / "detections").mkdir()
        (tmp_path / "frames" / "0.xyz").write_bytes(b"")
        (tmp_path / "detections" / "0.csv").write_text(
            DETECTION_HEADER + ",gt_id\n"
            "0,0.9,1.0,2.0,0.5,4.0,1.8,1.6,0.1,7\n"
        )
        det = load_frame(open_sequence(tmp_path), 0).detections[0]
        assert det.confidence == 0.9
        assert np.array_equal(det.box.center, [1.0, 2.0, 0.5])
        assert (det.box.length, det.box.width, det.box.height) == (4.0, 1.8, 1.6)
        assert det.box.yaw == 0.1
        assert det.gt_id == 7

    def test_empty_gt_id_field_means_absent(self, tmp_path):
        write_sequence_meta(tmp_path, 1)
        (tmp_path / "frames").mkdir()
        (tmp_path / "detections").mkdir()
        (tmp_path / "frames" / "0.xyz").write_bytes(b"")
        (tmp_path / "detections" / "0.csv").write_text(
            DETECTION_HEADER + ",gt_id\n"
            "0,0.9,1.0,2.0,0.5,4.0,1.8,1.6,0.1,\n"
        )
        det = load_frame(open_sequence(tmp_path), 0).detections[0]
        assert det.gt_id is None

    def test_missing_file_reports_path(self, tmp_path):
        def opening_names(path):
            message = f"missing frame file: {path}"
            return pytest.raises(FileNotFoundError, match=f"^{re.escape(message)}$")

        write_sequence_meta(tmp_path, 3)
        write_frame(tmp_path, Frame(0, np.empty((0, 3)), ()))
        # frame 1 lacks both files, frame 2 its detections: the point file
        # of the first incomplete frame is named
        write_frame(tmp_path, Frame(2, np.empty((0, 3)), ()))
        (tmp_path / "detections" / "2.csv").unlink()
        with opening_names(tmp_path / "frames" / "1.xyz"):
            open_sequence(tmp_path)
        # only a detection file missing
        write_frame(tmp_path, Frame(1, np.empty((0, 3)), ()))
        with opening_names(tmp_path / "detections" / "2.csv"):
            open_sequence(tmp_path)
        # a directory where a frame file belongs is no file
        (tmp_path / "detections" / "2.csv").mkdir()
        with opening_names(tmp_path / "detections" / "2.csv"):
            open_sequence(tmp_path)
        # no frames/ directory: every point file is missing
        shutil.rmtree(tmp_path / "frames")
        with opening_names(tmp_path / "frames" / "0.xyz"):
            open_sequence(tmp_path)

    def test_non_directory_or_absent_directory_counts_as_empty(self, tmp_path):
        write_sequence_meta(tmp_path, 2)
        (tmp_path / "detections").mkdir()
        (tmp_path / "detections" / "0.csv").write_text(DETECTION_HEADER + "\n")
        # a file named frames
        (tmp_path / "frames").write_bytes(b"")
        message = f"missing frame file: {tmp_path / 'frames' / '0.xyz'}"
        with pytest.raises(FileNotFoundError, match=f"^{re.escape(message)}$"):
            open_sequence(tmp_path)
        # and with the points in place, the detections directory's absence
        (tmp_path / "frames").unlink()
        (tmp_path / "detections" / "0.csv").unlink()
        (tmp_path / "detections").rmdir()
        (tmp_path / "frames").mkdir()
        (tmp_path / "frames" / "0.xyz").write_bytes(b"")
        message = f"missing frame file: {tmp_path / 'detections' / '0.csv'}"
        with pytest.raises(FileNotFoundError, match=f"^{re.escape(message)}$"):
            open_sequence(tmp_path)

    @pytest.mark.parametrize("name", ["0.xyz", "0.csv"])
    def test_file_removed_after_open_is_named_at_load(self, tmp_path, name):
        make_sequence(tmp_path, [Frame(0, np.ones((2, 3)), ())])
        src = open_sequence(tmp_path)
        path = src.point_path(0) if name == "0.xyz" else src.detection_path(0)
        path.unlink()
        with pytest.raises(FileNotFoundError) as info:
            load_frame(src, 0)
        assert info.value.filename == str(path)
        assert str(path) in str(info.value)

    def test_truncated_points_report_offset(self, tmp_path):
        write_sequence_meta(tmp_path, 1)
        (tmp_path / "frames").mkdir()
        (tmp_path / "detections").mkdir()
        (tmp_path / "frames" / "0.xyz").write_bytes(b"\x00" * 14)
        (tmp_path / "detections" / "0.csv").write_text(DETECTION_HEADER + "\n")
        with pytest.raises(ValueError, match="byte 12"):
            load_frame(open_sequence(tmp_path), 0)

    def test_malformed_row_reports_line(self, tmp_path):
        write_sequence_meta(tmp_path, 1)
        (tmp_path / "frames").mkdir()
        (tmp_path / "detections").mkdir()
        (tmp_path / "frames" / "0.xyz").write_bytes(b"")
        (tmp_path / "detections" / "0.csv").write_text(
            DETECTION_HEADER + "\n0,0.9,oops,2.0,0.5,4.0,1.8,1.6,0.1\n"
        )
        with pytest.raises(ValueError, match=":2"):
            load_frame(open_sequence(tmp_path), 0)

    def test_non_integer_frame_field_rejected(self, tmp_path):
        write_sequence_meta(tmp_path, 4)
        for i in range(4):
            write_frame(tmp_path, Frame(i, np.empty((0, 3)), ()))
        (tmp_path / "detections" / "3.csv").write_text(
            DETECTION_HEADER + "\n3,0.9,1.0,2.0,0.5,4.0,1.8,1.6,0.1\n"
            "oops,0.9,1.0,2.0,0.5,4.0,1.8,1.6,0.1\n"
        )
        src = open_sequence(tmp_path)
        with pytest.raises(
            ValueError, match=r"3\.csv:3: frame field 'oops' in the file of frame 3"
        ):
            load_frame(src, 3)

    def test_frame_field_must_match_file_index(self, tmp_path):
        write_sequence_meta(tmp_path, 4)
        for i in range(4):
            write_frame(tmp_path, Frame(i, np.empty((0, 3)), ()))
        (tmp_path / "detections" / "3.csv").write_text(
            DETECTION_HEADER + "\n2,0.9,1.0,2.0,0.5,4.0,1.8,1.6,0.1\n"
        )
        src = open_sequence(tmp_path)
        with pytest.raises(
            ValueError, match=r"3\.csv:2: frame field '2' in the file of frame 3"
        ):
            load_frame(src, 3)
        assert load_frame(src, 2).detections == ()

    def test_non_finite_coordinate_rejected(self, tmp_path):
        write_sequence_meta(tmp_path, 1)
        (tmp_path / "frames").mkdir()
        (tmp_path / "detections").mkdir()
        (tmp_path / "frames" / "0.xyz").write_bytes(
            struct.pack("<3f", 1.0, float("nan"), 0.0)
        )
        (tmp_path / "detections" / "0.csv").write_text(DETECTION_HEADER + "\n")
        with pytest.raises(ValueError, match="non-finite"):
            load_frame(open_sequence(tmp_path), 0)

    def test_index_out_of_range(self, tmp_path):
        make_sequence(tmp_path, [Frame(0, np.empty((0, 3)), ())])
        src = open_sequence(tmp_path)
        with pytest.raises(IndexError):
            load_frame(src, 1)


class TestConfidenceThreshold:
    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), float("inf")])
    def test_outside_zero_one_rejected(self, tmp_path, bad):
        message = "^confidence_threshold must be in \\[0, 1\\]$"
        with pytest.raises(ValueError, match=message):
            SequenceSource(tmp_path, 0, bad)
        write_sequence_meta(tmp_path, 0)
        with pytest.raises(ValueError, match=message):
            open_sequence(tmp_path, bad)

    def test_bounds_and_default(self, tmp_path):
        write_sequence_meta(tmp_path, 0)
        assert open_sequence(tmp_path).confidence_threshold == DEFAULT_CONFIDENCE_THRESHOLD
        for edge in (0.0, 1.0):
            assert open_sequence(tmp_path, edge).confidence_threshold == edge
            assert SequenceSource(tmp_path, 0, edge).confidence_threshold == edge

    def test_admitted_frames_use_the_sources_threshold(self, tmp_path):
        dets = tuple(simple_detection(c) for c in (0.3, 0.5, 0.7))
        make_sequence(tmp_path, [Frame(0, np.ones((2, 3)), dets)])
        for threshold, want in ((0.0, 3), (0.4, 2), (0.5, 1), (1.0, 0)):
            frame = load_admitted_frame(open_sequence(tmp_path, threshold), 0)
            assert len(frame.detections) == want
            assert np.array_equal(frame.points, np.ones((2, 3)))


class TestAdmitDetections:
    def test_strict_threshold(self):
        dets = tuple(simple_detection(c) for c in (0.39, 0.40, 0.41))
        frame = Frame(0, np.empty((0, 3)), dets)
        out = admit_detections(frame, 0.4)
        assert len(out.detections) == 1
        assert out.detections[0].confidence == 0.41

    def test_empty_list(self):
        frame = Frame(0, np.empty((0, 3)), ())
        out = admit_detections(frame, DEFAULT_CONFIDENCE_THRESHOLD)
        assert out.detections == ()

    def test_ties_keep_file_order_without_a_cap(self):
        dets = tuple(simple_detection(0.9, cx=float(i)) for i in range(150))
        frame = Frame(0, np.empty((0, 3)), dets)
        out = admit_detections(frame, DEFAULT_CONFIDENCE_THRESHOLD)
        assert len(out.detections) == 150
        # stable sort on equal confidences preserves original order
        assert [d.box.center[0] for d in out.detections] == list(map(float, range(150)))

    def test_descending_confidence_order(self):
        confs = [0.5, 0.9, 0.7, 0.9, 0.6]
        dets = tuple(simple_detection(c, cx=float(i)) for i, c in enumerate(confs))
        frame = Frame(0, np.empty((0, 3)), dets)
        out = admit_detections(frame, DEFAULT_CONFIDENCE_THRESHOLD)
        assert [d.confidence for d in out.detections] == [0.9, 0.9, 0.7, 0.6, 0.5]
        # the two 0.9s keep their relative file order
        assert [d.box.center[0] for d in out.detections[:2]] == [1.0, 3.0]

    def test_idempotent(self):
        rng = np.random.default_rng(61)
        for _ in range(50):
            n = int(rng.integers(0, 30))
            dets = tuple(
                simple_detection(float(rng.uniform()), cx=float(i)) for i in range(n)
            )
            frame = Frame(0, np.empty((0, 3)), dets)
            once = admit_detections(frame, DEFAULT_CONFIDENCE_THRESHOLD)
            twice = admit_detections(once, DEFAULT_CONFIDENCE_THRESHOLD)
            assert once.detections == twice.detections
            assert len(once.detections) == sum(
                d.confidence > DEFAULT_CONFIDENCE_THRESHOLD for d in dets
            )


class TestRoundTrip:
    def test_write_then_load(self, tmp_path):
        rng = np.random.default_rng(71)
        pts = rng.uniform(-5.0, 5.0, size=(40, 3)).astype(np.float32).astype(np.float64)
        dets = (
            simple_detection(0.8, cx=1.25, gt_id=2),
            simple_detection(0.55, cx=-3.5),
        )
        frame = Frame(0, pts, dets)
        make_sequence(tmp_path, [frame])
        loaded = load_frame(open_sequence(tmp_path), 0)
        assert np.array_equal(loaded.points, pts)
        assert loaded.detections[0].gt_id == 2
        assert loaded.detections[1].gt_id is None
        assert loaded.detections[0].box.center[0] == 1.25

    def test_write_load_write_is_byte_identical(self, tmp_path):
        rng = np.random.default_rng(72)
        pts = rng.uniform(-5.0, 5.0, size=(16, 3)).astype(np.float32).astype(np.float64)
        dets = tuple(
            simple_detection(float(rng.uniform(0.41, 1.0)), cx=float(rng.uniform(-4, 4)))
            for _ in range(5)
        )
        frame = Frame(0, pts, dets)
        a, b = tmp_path / "a", tmp_path / "b"
        make_sequence(a, [frame])
        reloaded = load_frame(open_sequence(a), 0)
        make_sequence(b, [reloaded])
        for rel in ("sequence.meta", "frames/0.xyz", "detections/0.csv"):
            assert (a / rel).read_bytes() == (b / rel).read_bytes()

    def test_tracks_file_sorted_and_readable(self, tmp_path):
        box = simple_detection(1.0, cx=2.5).box
        rows = [(1, 4, box, 0.75), (0, 9, box, 1.0), (1, 2, box, 0.5)]
        path = tmp_path / "tracks.csv"
        write_tracks_file(path, rows)
        lines = path.read_text().splitlines()
        assert lines[0] == "frame,track_id,cx,cy,cz,l,w,h,yaw,conf"
        assert [line.split(",")[:2] for line in lines[1:]] == [
            ["0", "9"], ["1", "2"], ["1", "4"],
        ]
        assert lines[3] == "1,4,2.5,0.0,0.0,1.0,1.0,1.0,0.0,0.75"
        centers = read_center_tracks(path)
        assert sorted(centers) == [0, 1] and sorted(centers[1]) == [2, 4]

    def test_tracks_row_from_numpy_scalars(self, tmp_path):
        # a box's float64 centre and a NumPy float64 confidence write the
        # same row as Python floats would, in shortest round-trip form
        box = OrientedBox3(np.array([0.1, -2.0 / 3.0, 1e-7]), 4.0, 1.8, 1.6, 0.3)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_tracks_file(a, [(2, 5, box, np.float64(0.55))])
        write_tracks_file(b, [(2, 5, box, 0.55)])
        assert a.read_bytes() == b.read_bytes()
        assert a.read_text().splitlines()[1] == (
            "2,5,0.1,-0.6666666666666666,1e-07,4.0,1.8,1.6,0.3,0.55"
        )

    def test_open_sequence_reads_name(self, tmp_path):
        # name= is informational: a meta file with it opens, and only
        # frame_count is read
        write_sequence_meta(tmp_path, 0, name="val-07")
        assert "name=val-07" in (tmp_path / "sequence.meta").read_text()
        assert open_sequence(tmp_path).frame_count == 0

    def test_non_integer_frame_count_reports_line(self, tmp_path):
        meta = tmp_path / "sequence.meta"
        for value in ("two", "-3"):
            meta.write_text(f"name=val-07\nframe_count={value}\n")
            with pytest.raises(ValueError) as info:
                open_sequence(tmp_path)
            assert str(info.value) == f"{meta}:2: bad frame_count {value!r}"
        meta.write_text("name=val-07\n")
        with pytest.raises(ValueError) as info:
            open_sequence(tmp_path)
        assert str(info.value) == f"{meta}: missing frame_count"
