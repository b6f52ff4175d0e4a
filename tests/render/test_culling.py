"""Tests for frustum culling: the exact two-stage test and the
conservative bounding-radius stage that goes in front of it."""

import dataclasses

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cameras import Camera
from repro.render import cull_candidates, frustum_cull, image_stage


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
    """When every row passes the near/far stage the row walk reads the
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
        real = culling.projection.project_rows

        def spy(cam_points, log_scales, quats, camera):
            seen.append((log_scales, quats))
            return real(cam_points, log_scales, quats, camera)

        monkeypatch.setattr(culling.projection, "project_rows", spy)
        scene = self._scene()
        before = [a.copy() for a in scene]
        all_pass = front_camera()
        partial = front_camera(near=9.0)  # the near plane cuts the scene
        for cam, direct in ((all_pass, True), (partial, False)):
            seen.clear()
            res = frustum_cull(*scene, cam)
            assert (res.num_in_depth == res.num_total) is direct
            # the scene is one block: in place, the walk is handed views
            # of the caller's scales and quaternions; gathered, copies
            assert all(
                np.shares_memory(a, b) is direct
                for a, b in zip(seen[0], scene[1:])
            )
            gathered = frustum_cull(*self._with_row_behind(*scene), cam)
            assert np.array_equal(res.valid_ids, gathered.valid_ids)
            assert res.valid_ids.dtype == gathered.valid_ids.dtype
            assert res.num_visible == gathered.num_visible > 0
            assert res.num_in_depth == gathered.num_in_depth
            assert res.num_total == gathered.num_total - 1 == 300
        assert all(np.array_equal(a, b) for a, b in zip(scene, before))


# -- the conservative stage in front of the exact test -----------------------


def hard_camera(rng, fov_deg, principal):
    """Any pose; ``principal`` moves the principal point off the image
    centre (fractions of the image size) and the two focals differ."""
    width, height = int(rng.integers(8, 257)), int(rng.integers(8, 257))
    position = rng.uniform(-30.0, 30.0, size=3)
    cam = Camera.look_at(
        position, position + rng.normal(size=3), width=width, height=height,
        fov_x_deg=fov_deg, near=10.0 ** rng.uniform(-1.3, 0.0),
        far=10.0 ** rng.uniform(1.0, 2.5),
    )
    return dataclasses.replace(
        cam,
        fy=cam.fx * rng.uniform(0.7, 1.4),
        cx=width * (0.5 + principal[0]),
        cy=height * (0.5 + principal[1]),
    )


def hard_scene(rng, camera, n, dtype):
    """Rows placed, in camera space, where the two culls could disagree:
    depths log-uniform or within ``10^-1..10^-9`` of a plane on either
    side; scales ``1e-4..1e2`` with up to 1000:1 anisotropy; centres
    inside the image, up to about one splat radius beyond one of its four
    edges, or far outside; quaternions of any norm, some all zero."""
    near, far = camera.near, camera.far
    z = np.exp(rng.uniform(np.log(near), np.log(far), size=n))
    graze = rng.random(n) < 0.3
    plane = np.where(rng.random(n) < 0.5, near, far)
    side = rng.choice([-1.0, 1.0], size=n)
    z[graze] = (plane * (1.0 + side * 10.0 ** -rng.uniform(1, 9, size=n)))[graze]

    top = rng.uniform(np.log(1e-4), np.log(1e2), size=n)
    log_scales = top[:, None] + rng.uniform(-np.log(1e3), 0.0, size=(n, 3)) * (
        rng.random((n, 1)) < 0.7
    )
    log_scales[np.arange(n), rng.integers(0, 3, size=n)] = top

    width, height = camera.width, camera.height
    px = rng.uniform(0.0, width, size=n)
    py = rng.uniform(0.0, height, size=n)
    where = rng.integers(0, 3, size=n)  # inside / edge band / far outside
    edge = rng.integers(0, 4, size=n)
    edge_px = np.where(edge == 0, 0.0, np.where(edge == 1, width, px))
    edge_py = np.where(edge == 2, 0.0, np.where(edge == 3, height, py))
    a, b = (edge_px - camera.cx) / camera.fx, (edge_py - camera.cy) / camera.fy
    jac_sq = (camera.fx**2 * (1 + a * a) + camera.fy**2 * (1 + b * b)) / z**2
    beyond = (3.0 * np.sqrt(jac_sq * np.exp(2 * top) + 1.0) + 1.0) * rng.uniform(
        0.0, 1.3, size=n
    )
    beyond[where == 2] *= rng.uniform(2.0, 100.0, size=n)[where == 2]
    out = where > 0
    px = np.select(
        [out & (edge == 0), out & (edge == 1)], [-beyond, width + beyond], px
    )
    py = np.select(
        [out & (edge == 2), out & (edge == 3)], [-beyond, height + beyond], py
    )

    cam_points = np.column_stack(
        [(px - camera.cx) / camera.fx * z, (py - camera.cy) / camera.fy * z, z]
    )
    means = (cam_points - camera.world_to_cam_trans) @ camera.world_to_cam_rot
    quats = rng.normal(size=(n, 4)) * 10.0 ** rng.uniform(-3, 3, size=(n, 1))
    quats[rng.random(n) < 0.1] = 0.0
    return means.astype(dtype), log_scales.astype(dtype), quats.astype(dtype)


def exact_on(cand, means, log_scales, quats, camera):
    """Ids the exact test keeps among the gathered candidates. They all
    passed near/far on the whole arrays; a camera without depth limits
    keeps BLAS from rounding a grazing depth to the other side when the
    product is taken again over the gathered rows."""
    exact = frustum_cull(
        means[cand], log_scales[cand], quats[cand], image_stage(camera)
    )
    return cand[exact.valid_ids]


def assert_candidates_cover(means, log_scales, quats, camera, rng):
    with np.errstate(all="ignore"):
        whole = frustum_cull(means, log_scales, quats, camera).valid_ids
        cand = cull_candidates(means, log_scales, camera)
        assert np.all(np.diff(cand) > 0)
        assert np.isin(whole, cand).all()  # nothing visible is missing
        ids = exact_on(cand, means, log_scales, quats, camera)
        assert np.array_equal(ids, whole) and ids.dtype == whole.dtype
        # asked about a subset (a level of detail), each row's verdict
        # is the one it gets among all rows
        rows = np.flatnonzero(rng.random(means.shape[0]) < 0.4)
        subset = cull_candidates(means, log_scales, camera, rows)
        assert np.array_equal(subset, cand[np.isin(cand, rows)])
    return whole, cand


class TestCullCandidates:
    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        dtype=st.sampled_from([np.float32, np.float64]),
        fov_deg=st.floats(4.0, 165.0),
        principal=st.tuples(st.floats(-0.6, 0.6), st.floats(-0.6, 0.6)),
    )
    def test_superset_of_the_exact_cull_and_same_visible_set(
        self, seed, dtype, fov_deg, principal
    ):
        rng = np.random.default_rng(seed)
        camera = hard_camera(rng, fov_deg, principal)
        scene = hard_scene(rng, camera, int(rng.integers(1, 400)), dtype)
        assert_candidates_cover(*scene, camera, rng)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 100_000),
        dtype=st.sampled_from([np.float32, np.float64]),
    )
    def test_non_finite_rows_are_never_dropped_wrongly(self, seed, dtype):
        """A NaN or infinite mean, scale or quaternion: rejected by both
        tests or kept as a candidate for the exact one to reject."""
        rng = np.random.default_rng(seed)
        camera = hard_camera(rng, 60.0, (0.0, 0.0))
        means, log_scales, quats = hard_scene(rng, camera, 120, dtype)
        bad = [np.nan, np.inf, -np.inf]
        for array in (means, log_scales, quats):
            hit = rng.choice(120, size=12, replace=False)
            array[hit, rng.integers(0, array.shape[1], size=12)] = rng.choice(
                bad, size=12
            )
        whole, cand = assert_candidates_cover(
            means, log_scales, quats, camera, rng
        )
        # an infinite extent reaches the image from anywhere in depth
        # range: the bound keeps it, whatever the exact test then decides
        huge = np.flatnonzero(
            np.isposinf(log_scales).any(axis=1)
            & ~np.isnan(log_scales).any(axis=1)
            & np.isfinite(means).all(axis=1)
        )
        depths = camera.world_to_cam(means[huge].astype(np.float64))[:, 2]
        clear = (depths > camera.near * 1.01) & (depths < camera.far * 0.99)
        assert np.isin(huge[clear], cand).all()

    def test_rows_on_a_plane_keep_their_side_in_any_subset(self):
        """float32 rows lying on the near plane up to rounding: BLAS
        rounds the depth product differently for a gathered subset, so
        deciding near/far again there flips some — the verdict must be
        the one over all rows whichever rows are asked about."""
        rng = np.random.default_rng(0)
        camera = Camera.look_at(
            [3.0, -7.0, 2.0], [0.5, 0.2, 0.1], width=64, height=48,
            near=0.5, far=50.0,
        )
        for _ in range(20):
            n = 4000
            cam_points = np.column_stack(
                [rng.uniform(-0.1, 0.1, size=(n, 2)), np.full(n, camera.near)]
            )
            means = (
                (cam_points - camera.world_to_cam_trans) @ camera.world_to_cam_rot
            ).astype(np.float32)
            log_scales = np.full((n, 3), np.log(0.01), dtype=np.float32)
            quats = np.tile(np.float32([1, 0, 0, 0]), (n, 1))
            whole = frustum_cull(means, log_scales, quats, camera).valid_ids
            assert 0 < whole.size < n  # the plane does cut the rows
            rows = np.flatnonzero(rng.random(n) < 0.3)
            cand = cull_candidates(means, log_scales, camera, rows)
            assert np.array_equal(cand, whole[np.isin(whole, rows)])
            assert np.array_equal(
                exact_on(cand, means, log_scales, quats, camera), cand
            )

    def test_sparse_view_projects_a_fraction_of_the_rows(self):
        """What the stage is for: a view that sees a corner of a wide
        scene hands the exact test little more than what is visible."""
        rng = np.random.default_rng(3)
        n = 20_000
        means = rng.uniform(-50.0, 50.0, size=(n, 3))
        means[:, 2] = rng.uniform(0.0, 1.0, size=n)
        log_scales = rng.normal(np.log(0.15), 0.3, size=(n, 3))
        quats = rng.normal(size=(n, 4))
        camera = Camera.look_at(
            [-40.0, -40.0, 6.0], [-34.0, -36.0, 0.0], width=64, height=48,
            fov_x_deg=50.0, far=40.0,
        )
        whole = frustum_cull(means, log_scales, quats, camera)
        cand = cull_candidates(means, log_scales, camera)
        assert 0 < whole.num_visible <= cand.size
        assert cand.size < 2 * whole.num_visible
        assert cand.size < 0.1 * whole.num_in_depth

    def test_empty_inputs(self):
        cam = front_camera()
        means, ls, q = make_inputs(np.zeros((0, 3)))
        assert cull_candidates(means, ls, cam).size == 0
        behind, ls, q = make_inputs(np.array([[0.0, -30.0, 0.0]]))
        assert cull_candidates(behind, ls, cam).size == 0
        ahead, ls, q = make_inputs(np.array([[0.0, 0.0, 0.0]]))
        none = np.empty(0, dtype=np.int64)
        assert cull_candidates(ahead, ls, cam, rows=none).size == 0
        assert list(cull_candidates(ahead, ls, cam)) == [0]
