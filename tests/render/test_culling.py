"""Tests for two-stage frustum culling."""

import numpy as np

from repro.cameras import Camera
from repro.render import frustum_cull


def make_inputs(means, scale=0.1):
    n = means.shape[0]
    log_scales = np.full((n, 3), np.log(scale))
    quats = np.zeros((n, 4))
    quats[:, 0] = 1.0
    return means.astype(np.float64), log_scales, quats


def front_camera(width=64, height=48, near=0.5, far=50.0):
    return Camera.look_at(
        [0.0, -10.0, 0.0], [0.0, 0.0, 0.0], width=width, height=height,
        near=near, far=far,
    )


class TestDepthStage:
    def test_behind_camera_culled(self):
        cam = front_camera()
        means, ls, q = make_inputs(np.array([[0.0, 0.0, 0.0], [0.0, -20.0, 0.0]]))
        res = frustum_cull(means, ls, q, cam)
        assert list(res.valid_ids) == [0]
        assert res.num_in_depth == 1

    def test_beyond_far_culled(self):
        cam = front_camera(far=15.0)
        means, ls, q = make_inputs(np.array([[0.0, 0.0, 0.0], [0.0, 100.0, 0.0]]))
        res = frustum_cull(means, ls, q, cam)
        assert list(res.valid_ids) == [0]

    def test_inside_near_culled(self):
        cam = front_camera(near=5.0)
        # 2 units in front of the camera -> inside near plane
        means, ls, q = make_inputs(np.array([[0.0, -8.0, 0.0]]))
        res = frustum_cull(means, ls, q, cam)
        assert res.num_visible == 0


class TestImageStage:
    def test_off_screen_culled(self):
        cam = front_camera()
        # far to the side: passes depth stage, fails image bounds
        means, ls, q = make_inputs(
            np.array([[0.0, 0.0, 0.0], [500.0, 0.0, 0.0]])
        )
        res = frustum_cull(means, ls, q, cam)
        assert list(res.valid_ids) == [0]
        assert res.num_in_depth == 2

    def test_large_gaussian_overlapping_edge_kept(self):
        cam = front_camera()
        # center projects off-screen but the 3-sigma splat reaches in
        edge_x = 10.5  # just outside the horizontal frustum at y=0
        means, ls, q = make_inputs(np.array([[edge_x, 0.0, 0.0]]), scale=3.0)
        res = frustum_cull(means, ls, q, cam)
        assert res.num_visible == 1

    def test_tiny_gaussian_outside_edge_culled(self):
        cam = front_camera()
        means, ls, q = make_inputs(np.array([[30.0, 0.0, 0.0]]), scale=0.01)
        res = frustum_cull(means, ls, q, cam)
        assert res.num_visible == 0


class TestStats:
    def test_active_ratio(self):
        cam = front_camera()
        rng = np.random.default_rng(0)
        # half the points behind the camera
        front = rng.uniform(-1, 1, size=(50, 3))
        back = front.copy()
        back[:, 1] = -30.0
        means, ls, q = make_inputs(np.concatenate([front, back]))
        res = frustum_cull(means, ls, q, cam)
        assert res.num_total == 100
        assert res.active_ratio == res.num_visible / 100
        assert 0.4 <= res.active_ratio <= 0.5

    def test_empty_scene(self):
        cam = front_camera()
        means, ls, q = make_inputs(np.zeros((0, 3)))
        res = frustum_cull(means, ls, q, cam)
        assert res.num_visible == 0
        assert res.active_ratio == 0.0

    def test_all_behind(self):
        cam = front_camera()
        means, ls, q = make_inputs(np.array([[0.0, -30.0, 0.0]]))
        res = frustum_cull(means, ls, q, cam)
        assert res.num_visible == 0
        assert res.valid_ids.size == 0

    def test_valid_ids_sorted_unique(self):
        cam = front_camera()
        rng = np.random.default_rng(1)
        means, ls, q = make_inputs(rng.uniform(-2, 2, size=(200, 3)))
        res = frustum_cull(means, ls, q, cam)
        assert np.all(np.diff(res.valid_ids) > 0)


class TestAllRowsInDepthRange:
    """When every row passes the near/far stage the projection reads the
    caller's arrays directly instead of gathering copies of them."""

    @staticmethod
    def _scene():
        rng = np.random.default_rng(4)
        means = rng.uniform(-6, 6, size=(300, 3))
        means[:, 1] = rng.uniform(-2, 2, size=300)
        log_scales = rng.normal(np.log(0.2), 0.3, size=(300, 3))
        quats = rng.normal(size=(300, 4))
        return means, log_scales, quats

    @staticmethod
    def _with_row_behind(means, log_scales, quats):
        """The same scene plus one row behind the camera: forces the
        gathered path without renumbering any other row."""
        return (
            np.concatenate([means, [[0.0, -30.0, 0.0]]]),
            np.concatenate([log_scales, log_scales[:1]]),
            np.concatenate([quats, quats[:1]]),
        )

    def test_equals_the_gathered_path(self, monkeypatch):
        from repro.render import culling

        seen = []
        real = culling.projection.project_geometry

        def spy(means, log_scales, quats, camera):
            seen.append((means, log_scales, quats))
            return real(means, log_scales, quats, camera)

        monkeypatch.setattr(culling.projection, "project_geometry", spy)
        scene = self._scene()
        before = [a.copy() for a in scene]
        all_pass = front_camera()
        partial = front_camera(near=9.0)  # the near plane cuts the scene
        for cam, direct in ((all_pass, True), (partial, False)):
            seen.clear()
            res = frustum_cull(*scene, cam)
            assert (res.num_in_depth == res.num_total) is direct
            assert all((a is b) is direct for a, b in zip(seen[0], scene))
            gathered = frustum_cull(*self._with_row_behind(*scene), cam)
            assert np.array_equal(res.valid_ids, gathered.valid_ids)
            assert res.valid_ids.dtype == gathered.valid_ids.dtype
            assert res.num_visible == gathered.num_visible > 0
            assert res.num_in_depth == gathered.num_in_depth
            assert res.num_total == gathered.num_total - 1 == 300
        assert all(np.array_equal(a, b) for a, b in zip(scene, before))
