"""Object cropping: containment filter, local frame, per-frame thinning."""

import itertools
import math

import numpy as np
import pytest

from cloudtrack import cropping
from cloudtrack.cropping import CROP_POINTS, crop_frame, slot_seed
from cloudtrack.geometry import (
    Detection,
    Frame,
    OrientedBox3,
    box_contains,
    from_box_frame,
    local_inside,
    to_box_frame,
)
from cloudtrack.nets import init_layers
from cloudtrack.pointnet import PointNetWeights, featurize_frame, pointnet_forward


def crop_object(points, box, frame_index, slot):
    """Oracle: test every point against one box, then thin with its slot's seed."""
    local = to_box_frame(box, points)
    local = local[local_inside(box, local)]
    if len(local) > CROP_POINTS:
        rng = np.random.default_rng(slot_seed(0, frame_index, slot))
        local = local[np.sort(rng.permutation(len(local))[:CROP_POINTS])]
    return local


def crop_one(points, box, frame_index=0):
    """crop_frame on a one-box frame: the box's crop, thinned as slot 0."""
    return crop_frame(Frame(frame_index, points, (Detection(box, 0.9),)))[0]


def interior_points(rng, n):
    """n points strictly inside unit_box()."""
    return rng.uniform(-0.49, 0.49, size=(n, 3))


def unit_box(center=(0.0, 0.0, 0.0), yaw=0.0):
    return OrientedBox3(np.asarray(center, dtype=float), 1.0, 1.0, 1.0, yaw)


def ulps_from(value, steps):
    """The float `steps` representable values above value (below if negative)."""
    for _ in range(abs(steps)):
        value = np.nextafter(value, math.copysign(math.inf, steps))
    return float(value)


class TestCropObject:
    def test_empty_cloud(self):
        out = crop_one(np.empty((0, 3)), unit_box())
        assert out.shape == (0, 3)

    def test_identity_frame_keeps_points(self):
        # fewer than CROP_POINTS interior points: the crop is exactly those points
        pts = np.array([[0.1, 0.2, 0.3], [-0.4, 0.0, 0.1], [0.0, -0.3, -0.2]])
        out = crop_one(pts, unit_box())
        assert np.array_equal(out, pts)

    def test_outside_points_dropped(self):
        pts = np.array([[0.1, 0.0, 0.0], [2.0, 0.0, 0.0]])
        out = crop_one(pts, unit_box())
        assert np.array_equal(out, pts[:1])

    def test_seeded_thinning(self):
        # the draw is the oracle's: slot_seed(0, frame, slot), whatever the frame
        points = interior_points(np.random.default_rng(81), 1000)
        for frame_index in (0, 1, 57):
            out = crop_one(points, unit_box(), frame_index)
            assert out.shape == (CROP_POINTS, 3)
            # all selections are distinct source points
            assert len(np.unique(out, axis=0)) == CROP_POINTS
            solo = crop_object(points, unit_box(), frame_index, 0)
            assert out.tobytes() == solo.tobytes()

    def test_thinning_differs_between_frames(self):
        points = interior_points(np.random.default_rng(86), 1000)
        crops = {crop_one(points, unit_box(), f).tobytes() for f in range(5)}
        assert len(crops) == 5

    def test_thinning_subset_of_interior(self):
        rng = np.random.default_rng(82)
        pts = rng.uniform(-0.49, 0.49, size=(300, 3))
        out = crop_one(pts, unit_box())
        source = {tuple(p) for p in pts}
        assert out.shape == (CROP_POINTS, 3)
        for row in out:
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
            out = crop_one(world, box)
            assert np.all(np.abs(out) <= box.half_extents + 1e-9)

    def test_joint_translation_invariance(self):
        rng = np.random.default_rng(84)
        box = OrientedBox3(np.zeros(3), 2.0, 1.0, 1.5, 0.8)
        world = from_box_frame(box, rng.uniform(-0.45, 0.45, size=(50, 3)) * [2, 1, 1.5])
        shift = np.array([10.0, -3.0, 2.0])
        box2 = OrientedBox3(shift, 2.0, 1.0, 1.5, 0.8)
        a = crop_one(world, box)
        b = crop_one(world + shift, box2)
        assert a.shape == b.shape
        assert np.allclose(a, b, atol=1e-9)


class TestCropFrame:
    def _frame(self, rng, n_dets):
        pts = rng.uniform(-6, 6, size=(500, 3))
        dets = tuple(
            Detection(unit_box(center=rng.uniform(-5, 5, size=3)), 0.9)
            for _ in range(n_dets)
        )
        return Frame(0, pts, dets)

    def test_empty_frame(self):
        frame = Frame(0, np.empty((0, 3)), ())
        assert crop_frame(frame) == ()

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

        yield "y window edges", self._y_window_edges_frame(np.random.default_rng(97))

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

        yield "thinned", self._thinned_frame(rng)

    def _y_window_edges_frame(self, rng):
        """"window edges" mirrored along y: points around the two y-extreme
        corners, stepped a few ulps outward in y and to either side in x.
        Half the boxes put a diagonal along y."""
        boxes, pts = [], []
        for k in range(40):
            l, w, h = rng.uniform(0.5, 5.0, size=3)
            if k < 20:
                yaw = (math.pi / 2 - math.atan2(w, l)) * (-1) ** k
            else:
                yaw = rng.uniform(-math.pi, math.pi)
            box = OrientedBox3([20.0 * k, rng.uniform(-10, 10), 0.0], l, w, h, yaw)
            corners = from_box_frame(box, [[a * l / 2, b * w / 2, 0.0] for a in (-1, 1) for b in (-1, 1)])
            extent = abs(l / 2 * math.sin(box.yaw)) + abs(w / 2 * math.cos(box.yaw))
            for side in (-1, 1):
                corner_x = corners[np.argmax(side * corners[:, 1]), 0]
                for i, j in itertools.product(range(5), range(-8, 9)):
                    y = ulps_from(box.center[1] + side * extent, i * side)
                    pts.append([ulps_from(corner_x, j), y, 0.0])
            r = math.hypot(l, w) / 2.0
            for side, rel in itertools.product((-1, 1), (-1e-9, 0.0, 1e-9)):
                pts.append([box.center[0], box.center[1] + side * r * (1.0 + rel), 0.0])
            boxes.append(box)
        return self._frame_of(np.array(pts), boxes)

    def _thinned_frame(self, rng):
        """Frame 7: overlapping boxes over a cloud dense enough that every
        crop is thinned; two boxes are the same box."""
        pts = rng.uniform([-4, -4, -1], [4, 4, 1], size=(6000, 3))
        box = OrientedBox3([-1.0, 0.5, 0.0], 2.5, 2.0, 1.8, 0.4)
        boxes = [
            box,
            OrientedBox3([1.5, -1.0, 0.1], 3.0, 1.5, 1.6, -1.2),
            box,
            OrientedBox3([0.0, 0.0, 0.0], 4.0, 3.0, 2.0, 2.9),
        ]
        return Frame(7, pts, tuple(Detection(b, 0.9) for b in boxes))

    def _shared_points_frame(self, rng):
        """Identical, nested and overlapping boxes over one dense cloud."""
        # few enough points that no crop is thinned
        pts = rng.uniform(-3, 3, size=(1500, 3))
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
        return Frame(0, pts, tuple(Detection(b, 0.9) for b in boxes))

    def test_slot_order_matches_detections(self):
        thinned = 0
        for name, frame in self._equivalence_frames():
            crops = crop_frame(frame)
            assert len(crops) == len(frame.detections), name
            for slot, (det, crop) in enumerate(zip(frame.detections, crops)):
                solo = crop_object(frame.points, det.box, frame.index, slot)
                assert crop.shape == solo.shape, (name, slot)
                assert crop.tobytes() == solo.tobytes(), (name, slot)
                thinned += box_contains(det.box, frame.points).sum() > CROP_POINTS
        assert thinned >= 4

    def test_maps_only_the_points_near_each_box(self, monkeypatch):
        # 25 boxes share one x-strip of the cloud; each maps and tests only
        # the points within its half-diagonal (plus slack) in y as well
        frame = dict(self._equivalence_frames())["one window"]
        mapped = []
        box_frame_columns = cropping._box_frame_columns

        def counting(columns, *args):
            mapped.append(len(columns[0]))
            return box_frame_columns(columns, *args)

        monkeypatch.setattr(cropping, "_box_frame_columns", counting)
        crop_frame(frame)
        points = frame.points
        in_strips = in_windows = 0
        for det in frame.detections:
            reach = 1.001 * math.hypot(det.box.length, det.box.width) / 2.0
            near = np.abs(points[:, :2] - det.box.center[:2]) <= reach
            in_strips += near[:, 0].sum()
            in_windows += near.all(axis=1).sum()
        assert in_windows < in_strips / 10
        assert sum(mapped) <= in_windows

    def test_shared_point_in_every_containing_box(self):
        frame = self._shared_points_frame(np.random.default_rng(93))
        points = frame.points
        crops = crop_frame(frame)
        masks = [box_contains(det.box, points) for det in frame.detections]
        assert max(mask.sum() for mask in masks) <= CROP_POINTS
        # most points of the nested box lie in four boxes, and some in all five
        assert (np.sum(masks, axis=0) >= 4).sum() > 10
        assert np.all(masks, axis=0).any()
        for det, mask, crop in zip(frame.detections, masks, crops):
            expected = to_box_frame(det.box, points[mask])
            assert crop.tobytes() == expected.tobytes()

    def test_bitwise_repeatable(self):
        # a rebuilt copy of the frame crops to the same bytes
        frame = self._thinned_frame(np.random.default_rng(92))
        copy = Frame(frame.index, frame.points.copy(), frame.detections)
        a, b = crop_frame(frame), crop_frame(copy)
        assert len(a) == len(b) == len(frame.detections)
        for x, y in zip(a, b):
            assert x.shape == y.shape == (CROP_POINTS, 3)
            assert x.tobytes() == y.tobytes()

    def test_thinning_differs_between_slots(self):
        # slots 0 and 2 hold the same box over the same cloud
        frame = self._thinned_frame(np.random.default_rng(95))
        crops = crop_frame(frame)
        assert frame.detections[0].box is frame.detections[2].box
        assert crops[0].tobytes() != crops[2].tobytes()

    def test_slot_seeds_distinct(self):
        seen = {slot_seed(0, f, s) for f in range(20) for s in range(20)}
        assert len(seen) == 400


class TestObjectPoints:
    """A crop is a float64 (n, 3) array; the featurizer checks what it gets."""

    def weights(self):
        return PointNetWeights(init_layers((3, 4, 4), np.random.default_rng(87)))

    def test_rejects_non_n_by_3_shape(self):
        w = self.weights()
        for bad in (np.zeros((4, 2)), np.zeros((2, 4)), np.zeros(3), np.zeros((2, 3, 1))):
            with pytest.raises(ValueError, match=r"\(n, 3\)"):
                featurize_frame([np.ones((5, 3)), bad, np.empty((0, 3))], w)
            with pytest.raises(ValueError, match=r"\(n, 3\)"):
                pointnet_forward(bad, w)
        with pytest.raises(ValueError, match=r"\(n, 3\)"):
            pointnet_forward(np.empty((0, 2)), w)

    def test_rejects_non_finite_points(self):
        w = self.weights()
        for value in (np.nan, np.inf, -np.inf):
            pts = np.zeros((3, 3))
            pts[1, 2] = value
            with pytest.raises(ValueError, match="non-finite point"):
                featurize_frame([np.ones((20, 3)), np.empty((0, 3)), pts], w)
            with pytest.raises(ValueError, match="non-finite point"):
                pointnet_forward(pts, w)

    def test_crops_are_float64_n_by_3_arrays(self):
        rng = np.random.default_rng(88)
        # a thinned crop, one of some dozens of points, and an empty one
        centers = ((0, 0, 0), (1, 1, 1), (9, 9, 9))
        frame = Frame(
            0,
            rng.uniform(-1, 1, size=(2000, 3)),
            tuple(Detection(unit_box(center=c), 0.9) for c in centers),
        )
        crops = crop_frame(frame)
        assert [len(crop) for crop in crops][::2] == [CROP_POINTS, 0]
        assert 0 < len(crops[1]) < CROP_POINTS
        for crop in crops:
            assert type(crop) is np.ndarray and crop.dtype == np.float64
            assert crop.ndim == 2 and crop.shape[1] == 3

    def test_crop_over_p_interior_points_has_p_rows(self):
        rng = np.random.default_rng(85)
        for n in (1, CROP_POINTS - 1, CROP_POINTS, CROP_POINTS + 1, 1000):
            out = crop_one(interior_points(rng, n), unit_box())
            assert out.shape == (min(n, CROP_POINTS), 3)
