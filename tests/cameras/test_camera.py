"""Tests for the pinhole camera and trajectory generators."""

import numpy as np
import pytest

from repro.cameras import Camera, trajectories


class TestLookAt:
    def test_target_projects_to_center(self):
        cam = Camera.look_at([5.0, -3.0, 2.0], [0.0, 0.0, 0.0], width=64, height=64)
        cam_pt = cam.world_to_cam(np.array([[0.0, 0.0, 0.0]]))
        assert cam_pt[0, 2] > 0  # in front
        uv = cam.project(cam_pt)
        np.testing.assert_allclose(uv[0], [32.0, 32.0], atol=1e-9)

    def test_center_roundtrip(self):
        pos = np.array([1.0, 2.0, 3.0])
        cam = Camera.look_at(pos, [0.0, 0.0, 0.0])
        np.testing.assert_allclose(cam.center, pos, atol=1e-12)

    def test_rotation_orthonormal(self):
        cam = Camera.look_at([1.0, 1.0, 1.0], [0.0, 0.0, 0.0])
        r = cam.world_to_cam_rot
        np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
        assert np.linalg.det(r) == pytest.approx(1.0)

    def test_straight_down_view_ok(self):
        cam = Camera.look_at([0.0, 0.0, 10.0], [0.0, 0.0, 0.0])
        pt = cam.world_to_cam(np.array([[0.0, 0.0, 0.0]]))
        assert pt[0, 2] == pytest.approx(10.0)

    def test_coincident_raises(self):
        with pytest.raises(ValueError):
            Camera.look_at([0.0, 0.0, 0.0], [0.0, 0.0, 0.0])

    def test_depth_is_distance_along_axis(self):
        cam = Camera.look_at([0.0, -5.0, 0.0], [0.0, 0.0, 0.0])
        pts = np.array([[0.0, 0.0, 0.0], [0.0, 5.0, 0.0]])
        z = cam.world_to_cam(pts)[:, 2]
        np.testing.assert_allclose(z, [5.0, 10.0], atol=1e-12)


class TestValidation:
    def make(self, **kw):
        args = dict(
            width=10,
            height=10,
            fx=10.0,
            fy=10.0,
            cx=5.0,
            cy=5.0,
            world_to_cam_rot=np.eye(3),
            world_to_cam_trans=np.zeros(3),
        )
        args.update(kw)
        return Camera(**args)

    def test_bad_rot_shape(self):
        with pytest.raises(ValueError):
            self.make(world_to_cam_rot=np.eye(4))

    def test_bad_near_far(self):
        with pytest.raises(ValueError):
            self.make(near=1.0, far=0.5)
        with pytest.raises(ValueError):
            self.make(near=0.0)

    def test_num_pixels(self):
        assert self.make().num_pixels == 100


class TestCrop:
    def test_crop_preserves_projection(self):
        """A point projecting to column u lands at u - x_min in the crop."""
        cam = Camera.look_at([0.0, -5.0, 1.0], [0.0, 0.0, 0.0], width=128, height=64)
        pt = np.array([[0.3, 0.1, 0.2]])
        uv_full = cam.project(cam.world_to_cam(pt))
        sub = cam.crop(40, 100)
        uv_sub = sub.project(sub.world_to_cam(pt))
        np.testing.assert_allclose(uv_sub[0, 0], uv_full[0, 0] - 40, atol=1e-12)
        np.testing.assert_allclose(uv_sub[0, 1], uv_full[0, 1], atol=1e-12)
        assert sub.width == 60

    def test_bad_crop_raises(self):
        cam = Camera.look_at([0.0, -5.0, 1.0], [0.0, 0.0, 0.0], width=128)
        with pytest.raises(ValueError):
            cam.crop(100, 40)
        with pytest.raises(ValueError):
            cam.crop(0, 300)


class TestTrajectories:
    def test_orbit_count_and_focus(self):
        cams = trajectories.orbit([0, 0, 0], radius=5.0, height=2.0, num_cameras=8)
        assert len(cams) == 8
        for cam in cams:
            z = cam.world_to_cam(np.zeros((1, 3)))[0, 2]
            assert z > 0  # all look at the center

    def test_aerial_grid_count(self):
        cams = trajectories.aerial_grid(extent=10.0, altitude=5.0, rows=3, cols=4)
        assert len(cams) == 12
        for cam in cams:
            assert cam.center[2] == pytest.approx(5.0)
