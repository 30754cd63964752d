"""Geometry value types: containment, yaw wrapping, frame transforms."""

import math
import re

import numpy as np
import pytest

from cloudtrack.geometry import (
    Detection,
    Frame,
    OrientedBox3,
    box_contains,
    from_box_frame,
    to_box_frame,
    yaw_normalize,
)


def wrap_by_reduction(theta):
    """Independent oracle: repeatedly add or subtract one full turn."""
    while theta >= math.pi:
        theta -= 2.0 * math.pi
    while theta < -math.pi:
        theta += 2.0 * math.pi
    return theta


class TestYawNormalize:
    def test_zero(self):
        assert yaw_normalize(0.0) == 0.0

    def test_odd_multiple_maps_to_lower_bound(self):
        assert yaw_normalize(3.0 * math.pi) == -math.pi

    def test_negative_wrap(self):
        # -7.5 needs exactly one full turn added to land in range
        expected = wrap_by_reduction(-7.5)
        assert abs(expected - (-7.5 + 2.0 * math.pi)) < 1e-12
        assert abs(yaw_normalize(-7.5) - expected) < 1e-12

    def test_matches_reduction_oracle(self):
        rng = np.random.default_rng(11)
        for theta in rng.uniform(-50.0, 50.0, size=500):
            r = yaw_normalize(theta)
            assert -math.pi <= r < math.pi
            assert abs(r - wrap_by_reduction(theta)) < 1e-9

    def test_idempotent(self):
        rng = np.random.default_rng(12)
        for theta in rng.uniform(-50.0, 50.0, size=200):
            r = yaw_normalize(theta)
            assert yaw_normalize(r) == r

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError):
            yaw_normalize(bad)


class TestBoxContains:
    def test_center_inside(self):
        box = OrientedBox3(np.zeros(3), 2.0, 2.0, 2.0, 0.0)
        assert box_contains(box, np.zeros(3))

    def test_just_outside_closed_face(self):
        box = OrientedBox3(np.zeros(3), 2.0, 2.0, 2.0, 0.0)
        assert not box_contains(box, np.array([1.0001, 0.0, 0.0]))

    def test_boundary_point_contained(self):
        box = OrientedBox3(np.zeros(3), 2.0, 2.0, 2.0, 0.0)
        assert box_contains(box, np.array([1.0, 1.0, 1.0]))

    def test_rotated_box(self):
        # rotating (0.4, 1.9, 0) by -pi/2 gives (1.9, -0.4, 0), which is
        # inside [-2,2] x [-0.5,0.5] x [-1,1]
        box = OrientedBox3(np.zeros(3), 4.0, 1.0, 2.0, math.pi / 2.0)
        assert box_contains(box, np.array([0.4, 1.9, 0.0]))
        assert not box_contains(box, np.array([1.9, 0.4, 0.0]))

    def test_vectorized_matches_scalar(self):
        rng = np.random.default_rng(21)
        box = OrientedBox3(np.array([1.0, -2.0, 0.5]), 3.0, 1.5, 2.0, 0.7)
        pts = rng.uniform(-4.0, 4.0, size=(64, 3))
        mask = box_contains(box, pts)
        for p, m in zip(pts, mask):
            assert box_contains(box, p) == m

    def test_rigid_transform_invariance(self):
        """Moving box and point together never changes containment."""
        rng = np.random.default_rng(31)
        for _ in range(200):
            center = rng.uniform(-5.0, 5.0, size=3)
            l, w, h = rng.uniform(0.5, 4.0, size=3)
            yaw = rng.uniform(-math.pi, math.pi)
            box = OrientedBox3(center, l, w, h, yaw)
            # sample near the box so both outcomes occur
            p = center + rng.uniform(-3.0, 3.0, size=3)

            dyaw = rng.uniform(-math.pi, math.pi)
            shift = rng.uniform(-10.0, 10.0, size=3)
            c, s = math.cos(dyaw), math.sin(dyaw)
            rot = np.array([[c, -s, 0.0], [s, c, 0.0], [0.0, 0.0, 1.0]])
            box2 = OrientedBox3(rot @ center + shift, l, w, h, yaw + dyaw)
            p2 = rot @ p + shift

            # exact answers can flip only within rounding of the face planes;
            # perturb strictly inside/outside by a margin far above 1e-9
            local = to_box_frame(box, p.reshape(1, 3))[0]
            margin = np.max(np.abs(local) / box.half_extents)
            if abs(margin - 1.0) < 1e-6:
                continue
            assert box_contains(box, p) == box_contains(box2, p2)

    def test_axis_aligned_oracle(self):
        """yaw=0 must reduce to three independent interval tests."""
        rng = np.random.default_rng(41)
        center = np.array([0.5, -1.0, 2.0])
        box = OrientedBox3(center, 2.0, 3.0, 1.0, 0.0)
        pts = rng.uniform(-3.0, 4.0, size=(10_000, 3))
        lo = center - box.half_extents
        hi = center + box.half_extents
        oracle = np.all((pts >= lo) & (pts <= hi), axis=1)
        got = box_contains(box, pts)
        assert np.array_equal(got, oracle)


class TestFrameTransforms:
    def test_round_trip(self):
        rng = np.random.default_rng(51)
        box = OrientedBox3(np.array([2.0, -1.0, 3.0]), 4.0, 2.0, 1.5, 1.1)
        pts = rng.uniform(-5.0, 5.0, size=(32, 3))
        back = from_box_frame(box, to_box_frame(box, pts))
        assert np.allclose(back, pts, atol=1e-12)

    def test_center_maps_to_origin(self):
        box = OrientedBox3(np.array([2.0, -1.0, 3.0]), 4.0, 2.0, 1.5, 1.1)
        local = to_box_frame(box, box.center.reshape(1, 3))
        assert np.allclose(local, 0.0, atol=1e-15)


class TestInvariants:
    def test_box_rejects_nonpositive_extent(self):
        with pytest.raises(ValueError):
            OrientedBox3(np.zeros(3), 0.0, 1.0, 1.0, 0.0)
        with pytest.raises(ValueError):
            OrientedBox3(np.zeros(3), 1.0, -2.0, 1.0, 0.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_box_rejects_non_finite_center(self, bad):
        for axis in range(3):
            center = np.zeros(3)
            center[axis] = bad
            with pytest.raises(ValueError, match="^box center must be finite$"):
                OrientedBox3(center, 1.0, 1.0, 1.0, 0.0)
        # a center that is not three values fails before the finite check
        with pytest.raises(ValueError, match="reshape"):
            OrientedBox3(np.zeros(4), 1.0, 1.0, 1.0, 0.0)

    def test_box_center_is_a_float64_array(self):
        box = OrientedBox3([1, 2, 3], 1.0, 1.0, 1.0, 0.0)
        assert box.center.dtype == np.float64 and box.center.shape == (3,)
        assert box.center.tolist() == [1.0, 2.0, 3.0]

    def test_box_normalizes_yaw(self):
        box = OrientedBox3(np.zeros(3), 1.0, 1.0, 1.0, 3.0 * math.pi)
        assert box.yaw == -math.pi

    def test_detection_confidence_range(self):
        box = OrientedBox3(np.zeros(3), 1.0, 1.0, 1.0, 0.0)
        Detection(box, 0.0)
        Detection(box, 1.0)
        with pytest.raises(ValueError):
            Detection(box, 1.2)
        with pytest.raises(ValueError):
            Detection(box, -0.1)

    def test_detection_gt_id_non_negative(self):
        box = OrientedBox3(np.zeros(3), 1.0, 1.0, 1.0, 0.0)
        assert Detection(box, 0.5, gt_id=3).gt_id == 3
        with pytest.raises(ValueError):
            Detection(box, 0.5, gt_id=-1)

    def test_cloud_rejects_non_finite(self):
        # a frame's points, at any position and of any sign
        for bad in (np.nan, np.inf, -np.inf):
            for axis in range(3):
                pts = np.zeros((4, 3))
                pts[2, axis] = bad
                with pytest.raises(ValueError, match="^point coordinates must be finite$"):
                    Frame(0, pts)

    def test_cloud_rejects_a_shape_other_than_n_by_3(self):
        # empty arrays of another shape too, and a 1-D array that is not
        # one xyz triple
        shapes = ((4, 2), (2, 4), (2, 2, 3), (5, 0), (0, 7), (0, 0), (6,), (2,))
        for shape in shapes:
            message = f"expected (n, 3) point array, got shape {shape}"
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                Frame(0, np.zeros(shape))

    def test_cloud_may_be_empty(self):
        for empty in (np.empty((0, 3)), [], np.empty(0)):
            frame = Frame(0, empty)
            assert frame.points.shape == (0, 3)
            assert frame.points.dtype == np.float64

    def test_frame_holds_its_points_as_float64(self):
        pts = np.arange(6, dtype=np.float32).reshape(2, 3)
        frame = Frame(3, pts)
        assert frame.points.dtype == np.float64
        assert np.array_equal(frame.points, pts)
        # one xyz triple is a one-point frame
        assert Frame(0, [1.0, 2.0, 3.0]).points.shape == (1, 3)
        # a float64 (n, 3) array is held as it is, not copied
        pts64 = pts.astype(np.float64)
        assert Frame(0, pts64).points is pts64

    def test_frame_rejects_a_negative_index(self):
        with pytest.raises(ValueError, match="^frame index must be non-negative$"):
            Frame(-1, np.empty((0, 3)))
