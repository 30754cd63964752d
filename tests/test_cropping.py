"""Object cropping: containment filter, local frame, seeded thinning."""

import itertools
import math

import numpy as np
import pytest

from cloudtrack.cropping import ObjectPoints, crop_frame, crop_object, slot_seed
from cloudtrack.geometry import (
    Detection,
    Frame,
    OrientedBox3,
    PointCloud,
    from_box_frame,
)


def unit_box(center=(0.0, 0.0, 0.0), yaw=0.0):
    return OrientedBox3(np.asarray(center, dtype=float), 1.0, 1.0, 1.0, yaw)


def ulps_from(value, steps):
    """The float `steps` representable values above value (below if negative)."""
    for _ in range(abs(steps)):
        value = np.nextafter(value, math.copysign(math.inf, steps))
    return float(value)


class TestCropObject:
    def test_empty_cloud(self):
        out = crop_object(PointCloud(np.empty((0, 3)), 0), unit_box(), P=4, seed=0)
        assert out.valid_count == 0
        assert not np.any(out.points)

    def test_identity_frame_pads(self):
        pts = np.array([[0.1, 0.2, 0.3], [-0.4, 0.0, 0.1], [0.0, -0.3, -0.2]])
        out = crop_object(PointCloud(pts, 0), unit_box(), P=4, seed=9)
        assert out.valid_count == 3
        assert np.array_equal(out.points[:3], pts)
        assert not np.any(out.points[3])

    def test_outside_points_dropped(self):
        pts = np.array([[0.1, 0.0, 0.0], [2.0, 0.0, 0.0]])
        out = crop_object(PointCloud(pts, 0), unit_box(), P=4, seed=0)
        assert out.valid_count == 1
        assert np.array_equal(out.points[0], pts[0])

    def test_seeded_thinning(self):
        rng = np.random.default_rng(81)
        pts = rng.uniform(-0.49, 0.49, size=(1000, 3))
        a = crop_object(PointCloud(pts, 0), unit_box(), P=128, seed=42)
        b = crop_object(PointCloud(pts, 0), unit_box(), P=128, seed=42)
        assert a.valid_count == 128
        assert a.points.tobytes() == b.points.tobytes()
        # all 128 selections are distinct source points
        assert len(np.unique(a.points[:128], axis=0)) == 128
        c = crop_object(PointCloud(pts, 0), unit_box(), P=128, seed=43)
        assert a.points.tobytes() != c.points.tobytes()

    def test_thinning_subset_of_interior(self):
        rng = np.random.default_rng(82)
        pts = rng.uniform(-0.49, 0.49, size=(300, 3))
        out = crop_object(PointCloud(pts, 0), unit_box(), P=64, seed=5)
        source = {tuple(p) for p in pts}
        for row in out.points[: out.valid_count]:
            assert tuple(row) in source

    def test_local_points_within_extents(self):
        rng = np.random.default_rng(83)
        for _ in range(30):
            center = rng.uniform(-5, 5, size=3)
            l, w, h = rng.uniform(0.5, 4.0, size=3)
            yaw = rng.uniform(-math.pi, math.pi)
            box = OrientedBox3(center, l, w, h, yaw)
            world = from_box_frame(
                box, rng.uniform(-0.5, 0.5, size=(200, 3)) * [l, w, h]
            )
            out = crop_object(PointCloud(world, 0), box, P=256, seed=1)
            v = out.points[: out.valid_count]
            assert np.all(np.abs(v) <= box.half_extents + 1e-9)

    def test_joint_translation_invariance(self):
        rng = np.random.default_rng(84)
        box = OrientedBox3(np.zeros(3), 2.0, 1.0, 1.5, 0.8)
        world = from_box_frame(box, rng.uniform(-0.45, 0.45, size=(50, 3)) * [2, 1, 1.5])
        shift = np.array([10.0, -3.0, 2.0])
        box2 = OrientedBox3(shift, 2.0, 1.0, 1.5, 0.8)
        a = crop_object(PointCloud(world, 0), box, P=64, seed=7)
        b = crop_object(PointCloud(world + shift, 0), box2, P=64, seed=7)
        assert a.valid_count == b.valid_count
        assert np.allclose(a.points, b.points, atol=1e-9)


class TestCropFrame:
    def _frame(self, rng, n_dets):
        pts = rng.uniform(-6, 6, size=(500, 3))
        dets = tuple(
            Detection(unit_box(center=rng.uniform(-5, 5, size=3)), 0.9)
            for _ in range(n_dets)
        )
        return Frame(0, PointCloud(pts, 0), dets)

    def test_empty_frame(self):
        frame = Frame(0, PointCloud(np.empty((0, 3)), 0), ())
        assert crop_frame(frame, P=8, seed=0) == ()

    def _equivalence_frames(self):
        """Frames whose crops must match per-slot crop_object byte for byte."""
        rng = np.random.default_rng(91)
        yield "unit boxes", self._frame(rng, 3)

        # dense cloud; boxes at yaw 0, +-pi/4, pi/2 and a random yaw, in both
        # a long and a wide shape, so the x-extent is not just length / 2
        pts = rng.uniform([-12, -12, -2], [12, 12, 2], size=(6000, 3))
        yaws = (0.0, math.pi / 4, -math.pi / 4, math.pi / 2, rng.uniform(-math.pi, math.pi))
        boxes = [
            OrientedBox3(rng.uniform([-9, -9, -0.2], [9, 9, 0.2]), l, w, 1.6, yaw)
            for yaw in yaws
            for l, w in ((4.0, 1.5), (1.0, 3.0))
        ]
        yield "dense", self._frame_of(pts, boxes)

        # points exactly on the faces, edges and corners of boxes at many yaws,
        # including yaws that put a footprint diagonal along x, where a corner
        # sits exactly at the half-diagonal from the center
        grid = np.array(list(itertools.product((-1.0, 0.0, 1.0), repeat=3)))
        boxes, pts = [], []
        fixed_yaws = (0.0, math.pi / 4, -math.pi / 4, math.pi / 2)
        for k in range(60):
            l, w, h = rng.uniform(0.5, 5.0, size=3)
            if k < len(fixed_yaws):
                yaw = fixed_yaws[k]
            elif k < 30:
                yaw = math.atan2(w, l) * (-1) ** k
            else:
                yaw = rng.uniform(-math.pi, math.pi)
            box = OrientedBox3([8.0 * k, rng.uniform(-30, 30), 1.0], l, w, h, yaw)
            boxes.append(box)
            pts.append(from_box_frame(box, grid * box.half_extents))
        yield "faces and corners", self._frame_of(np.concatenate(pts), boxes)

        # points around the two x-extreme corners, stepped a few ulps outward
        # in x and to either side in y: rounding in the closed-box test admits
        # some that lie past the exact x-extent.  Half the boxes put a
        # diagonal along x, so that extent is the half-diagonal itself.
        boxes, pts = [], []
        for k in range(40):
            l, w, h = rng.uniform(0.5, 5.0, size=3)
            yaw = math.atan2(w, l) * (-1) ** k if k < 20 else rng.uniform(-math.pi, math.pi)
            box = OrientedBox3([rng.uniform(-10, 10), 20.0 * k, 0.0], l, w, h, yaw)
            corners = from_box_frame(box, [[a * l / 2, b * w / 2, 0.0] for a in (-1, 1) for b in (-1, 1)])
            extent = abs(l / 2 * math.cos(box.yaw)) + abs(w / 2 * math.sin(box.yaw))
            for side in (-1, 1):
                corner_y = corners[np.argmax(side * corners[:, 0]), 1]
                for i, j in itertools.product(range(5), range(-8, 9)):
                    x = ulps_from(box.center[0] + side * extent, i * side)
                    pts.append([x, ulps_from(corner_y, j), 0.0])
            r = math.hypot(l, w) / 2.0
            for side, rel in itertools.product((-1, 1), (-1e-9, 0.0, 1e-9)):
                pts.append([box.center[0] + side * r * (1.0 + rel), box.center[1], 0.0])
            boxes.append(box)
        yield "window edges", self._frame_of(np.array(pts), boxes)

        # a box far from every point has an empty window
        pts = rng.uniform(-6, 6, size=(500, 3))
        yield "empty window", self._frame_of(pts, [unit_box(), unit_box((500.0, 0.0, 0.0))])

        yield "empty cloud", self._frame_of(np.empty((0, 3)), [unit_box(), unit_box((1.0, 2.0, 0.0))])

    def _frame_of(self, pts, boxes):
        return Frame(0, PointCloud(pts, 0), tuple(Detection(b, 0.9) for b in boxes))

    def test_slot_order_matches_detections(self):
        for name, frame in self._equivalence_frames():
            for P in (16, 64):
                crops = crop_frame(frame, P=P, seed=0)
                assert len(crops) == len(frame.detections), name
                for slot, (det, crop) in enumerate(zip(frame.detections, crops)):
                    solo = crop_object(frame.cloud, det.box, P=P, seed=slot_seed(0, 0, slot))
                    assert crop.valid_count == solo.valid_count, (name, P, slot)
                    assert crop.points.tobytes() == solo.points.tobytes(), (name, P, slot)

    def test_bitwise_repeatable(self):
        rng = np.random.default_rng(92)
        frame = self._frame(rng, 4)
        a = crop_frame(frame, P=32, seed=123)
        b = crop_frame(frame, P=32, seed=123)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.points.tobytes() == y.points.tobytes()
            assert x.valid_count == y.valid_count

    def test_slot_seeds_distinct(self):
        seen = {slot_seed(0, f, s) for f in range(20) for s in range(20)}
        assert len(seen) == 400


class TestObjectPoints:
    def test_rejects_nonzero_padding(self):
        pts = np.ones((4, 3))
        with pytest.raises(ValueError):
            ObjectPoints(pts, 2)

    def test_rejects_bad_valid_count(self):
        with pytest.raises(ValueError):
            ObjectPoints(np.zeros((4, 3)), 5)
