"""Object cropping: containment filter, local frame, seeded thinning."""

import itertools
import math

import numpy as np
import pytest

from cloudtrack.cropping import ObjectPoints, crop_frame, slot_seed
from cloudtrack.geometry import (
    Detection,
    Frame,
    OrientedBox3,
    PointCloud,
    box_contains,
    from_box_frame,
    local_inside,
    to_box_frame,
)


def crop_object(cloud, box, P, seed):
    """Oracle: test the whole cloud against one box, then thin with seed."""
    local = to_box_frame(box, cloud.points)
    local = local[local_inside(box, local)]
    if len(local) > P:
        rng = np.random.default_rng(seed)
        local = local[np.sort(rng.permutation(len(local))[:P])]
    return ObjectPoints(local)


def crop_one(cloud, box, P, seed):
    """crop_frame on a one-box frame: the box's crop, thinned with seed's slot 0."""
    return crop_frame(Frame(0, cloud, (Detection(box, 0.9),)), P=P, seed=seed)[0]


def unit_box(center=(0.0, 0.0, 0.0), yaw=0.0):
    return OrientedBox3(np.asarray(center, dtype=float), 1.0, 1.0, 1.0, yaw)


def ulps_from(value, steps):
    """The float `steps` representable values above value (below if negative)."""
    for _ in range(abs(steps)):
        value = np.nextafter(value, math.copysign(math.inf, steps))
    return float(value)


class TestCropObject:
    def test_empty_cloud(self):
        out = crop_one(PointCloud(np.empty((0, 3))), unit_box(), P=4, seed=0)
        assert out.points.shape == (0, 3)
        assert out.valid_count == 0

    def test_identity_frame_keeps_points(self):
        # fewer than P interior points: the crop is exactly those points
        pts = np.array([[0.1, 0.2, 0.3], [-0.4, 0.0, 0.1], [0.0, -0.3, -0.2]])
        out = crop_one(PointCloud(pts), unit_box(), P=4, seed=9)
        assert out.valid_count == 3
        assert np.array_equal(out.points, pts)

    def test_outside_points_dropped(self):
        pts = np.array([[0.1, 0.0, 0.0], [2.0, 0.0, 0.0]])
        out = crop_one(PointCloud(pts), unit_box(), P=4, seed=0)
        assert np.array_equal(out.points, pts[:1])

    def test_seeded_thinning(self):
        rng = np.random.default_rng(81)
        pts = rng.uniform(-0.49, 0.49, size=(1000, 3))
        a = crop_one(PointCloud(pts), unit_box(), P=128, seed=42)
        b = crop_one(PointCloud(pts), unit_box(), P=128, seed=42)
        assert a.points.shape == (128, 3)
        assert a.points.tobytes() == b.points.tobytes()
        # all 128 selections are distinct source points
        assert len(np.unique(a.points, axis=0)) == 128
        c = crop_one(PointCloud(pts), unit_box(), P=128, seed=43)
        assert a.points.tobytes() != c.points.tobytes()

    def test_thinning_subset_of_interior(self):
        rng = np.random.default_rng(82)
        pts = rng.uniform(-0.49, 0.49, size=(300, 3))
        out = crop_one(PointCloud(pts), unit_box(), P=64, seed=5)
        source = {tuple(p) for p in pts}
        assert out.points.shape == (64, 3)
        for row in out.points:
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
            out = crop_one(PointCloud(world), box, P=256, seed=1)
            assert np.all(np.abs(out.points) <= box.half_extents + 1e-9)

    def test_joint_translation_invariance(self):
        rng = np.random.default_rng(84)
        box = OrientedBox3(np.zeros(3), 2.0, 1.0, 1.5, 0.8)
        world = from_box_frame(box, rng.uniform(-0.45, 0.45, size=(50, 3)) * [2, 1, 1.5])
        shift = np.array([10.0, -3.0, 2.0])
        box2 = OrientedBox3(shift, 2.0, 1.0, 1.5, 0.8)
        a = crop_one(PointCloud(world), box, P=64, seed=7)
        b = crop_one(PointCloud(world + shift), box2, P=64, seed=7)
        assert a.points.shape == b.points.shape
        assert np.allclose(a.points, b.points, atol=1e-9)


class TestCropFrame:
    def _frame(self, rng, n_dets):
        pts = rng.uniform(-6, 6, size=(500, 3))
        dets = tuple(
            Detection(unit_box(center=rng.uniform(-5, 5, size=3)), 0.9)
            for _ in range(n_dets)
        )
        return Frame(0, PointCloud(pts), dets)

    def test_empty_frame(self):
        frame = Frame(0, PointCloud(np.empty((0, 3))), ())
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

        yield "shared points", self._shared_points_frame(rng)

        # many boxes whose x-windows are one and the same stretch of the cloud
        pts = rng.uniform([-1.5, -20, -1], [1.5, 20, 1], size=(3000, 3))
        boxes = [
            OrientedBox3([0.0, y, 0.0], 2.0, 1.2, 1.5, yaw)
            for y, yaw in zip(np.linspace(-18, 18, 25), rng.uniform(-math.pi, math.pi, 25))
        ]
        yield "one window", self._frame_of(pts, boxes)

    def _shared_points_frame(self, rng):
        """Identical, nested and overlapping boxes over one dense cloud."""
        pts = rng.uniform(-3, 3, size=(2000, 3))
        outer = OrientedBox3([0.1, -0.2, 0.0], 3.0, 2.0, 2.0, 0.3)
        boxes = [
            outer,
            OrientedBox3(outer.center, 3.0, 2.0, 2.0, 0.3),
            OrientedBox3([0.3, 0.0, 0.1], 1.0, 0.5, 0.6, -0.7),
            OrientedBox3([1.2, 0.6, -0.3], 2.5, 1.5, 2.0, 1.1),
            outer,
        ]
        return self._frame_of(pts, boxes)

    def _frame_of(self, pts, boxes):
        return Frame(0, PointCloud(pts), tuple(Detection(b, 0.9) for b in boxes))

    def test_slot_order_matches_detections(self):
        for name, frame in self._equivalence_frames():
            for P in (1, 16, 64):
                crops = crop_frame(frame, P=P, seed=0)
                assert len(crops) == len(frame.detections), name
                for slot, (det, crop) in enumerate(zip(frame.detections, crops)):
                    solo = crop_object(frame.cloud, det.box, P=P, seed=slot_seed(0, 0, slot))
                    assert crop.points.shape == solo.points.shape, (name, P, slot)
                    assert crop.points.tobytes() == solo.points.tobytes(), (name, P, slot)

    def test_shared_point_in_every_containing_box(self):
        frame = self._shared_points_frame(np.random.default_rng(93))
        points = frame.cloud.points
        crops = crop_frame(frame, P=len(points), seed=0)
        masks = [box_contains(det.box, points) for det in frame.detections]
        # most points of the nested box lie in four boxes, and some in all five
        assert (np.sum(masks, axis=0) >= 4).sum() > 10
        assert np.all(masks, axis=0).any()
        for det, mask, crop in zip(frame.detections, masks, crops):
            expected = to_box_frame(det.box, points[mask])
            assert crop.points.tobytes() == expected.tobytes()

    def test_rejects_p_below_one(self):
        rng = np.random.default_rng(94)
        frames = (
            Frame(0, PointCloud(np.empty((0, 3))), ()),
            self._frame(rng, 0),
            self._frame(rng, 2),
        )
        for frame in frames:
            for P in (0, -1):
                with pytest.raises(ValueError, match="P must be >= 1"):
                    crop_frame(frame, P=P)

    def test_bitwise_repeatable(self):
        rng = np.random.default_rng(92)
        frame = self._frame(rng, 4)
        a = crop_frame(frame, P=32, seed=123)
        b = crop_frame(frame, P=32, seed=123)
        assert len(a) == len(b)
        for x, y in zip(a, b):
            assert x.points.shape == y.points.shape
            assert x.points.tobytes() == y.points.tobytes()

    def test_slot_seeds_distinct(self):
        seen = {slot_seed(0, f, s) for f in range(20) for s in range(20)}
        assert len(seen) == 400


class TestObjectPoints:
    def test_rejects_non_n_by_3_shape(self):
        for bad in (np.zeros((4, 2)), np.zeros((2, 4)), np.zeros(3), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match=r"\(n, 3\)"):
                ObjectPoints(bad)

    def test_rejects_non_finite_points(self):
        for value in (np.nan, np.inf, -np.inf):
            pts = np.zeros((3, 3))
            pts[1, 2] = value
            with pytest.raises(ValueError, match="non-finite"):
                ObjectPoints(pts)

    def test_valid_count_is_the_point_count(self):
        assert ObjectPoints(np.empty((0, 3))).valid_count == 0
        assert ObjectPoints(np.ones((5, 3))).valid_count == 5

    def test_crop_over_p_interior_points_has_p_rows(self):
        rng = np.random.default_rng(85)
        cloud = PointCloud(rng.uniform(-0.49, 0.49, size=(40, 3)))
        for P in (1, 8, 39, 40, 41, 128):
            out = crop_one(cloud, unit_box(), P=P, seed=3)
            assert out.points.shape == (min(P, 40), 3)
