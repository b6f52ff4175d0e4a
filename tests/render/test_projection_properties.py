"""Property-based tests for the projection stage: :func:`project`'s one
record (``ProjectionResult``: the rows' ``ScreenRows`` plus the conics)."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cameras import Camera
from repro.render.projection import EPS_2D, project


def make_inputs(rng, n, z_range=(1.0, 20.0)):
    means = np.column_stack(
        [
            rng.uniform(-3, 3, size=n),
            rng.uniform(*z_range, size=n),  # along the camera's view (y)
            rng.uniform(-3, 3, size=n),
        ]
    )
    log_scales = rng.uniform(np.log(0.01), np.log(0.5), size=(n, 3))
    quats = rng.normal(size=(n, 4))
    return means, log_scales, quats


def project_all(means, log_scales, quats, camera):
    """The render's projection of every row (opacities and colours 0)."""
    n = means.shape[0]
    return project(
        means, log_scales, quats, np.zeros(n), np.zeros((n, 16, 3)), camera
    )


def front_camera():
    return Camera.look_at(
        [0.0, -1.0, 0.0], [0.0, 1.0, 0.0], width=64, height=48
    )


class TestProjectionProperties:
    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 30))
    def test_cov2d_positive_definite(self, seed, n):
        """The low-pass term guarantees a PSD 2D covariance for any
        in-front Gaussian."""
        rng = np.random.default_rng(seed)
        means, log_scales, quats = make_inputs(rng, n)
        rows = project_all(means, log_scales, quats, front_camera()).rows
        eigs = np.linalg.eigvalsh(rows.cov2d)
        assert np.all(eigs > 0)
        assert np.all(eigs.min(axis=1) >= EPS_2D * 0.5)
        assert rows.valid.all()

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 20))
    def test_depths_match_camera_distance(self, seed, n):
        rng = np.random.default_rng(seed)
        means, log_scales, quats = make_inputs(rng, n)
        cam = front_camera()
        depths = project_all(means, log_scales, quats, cam).rows.cam_points[:, 2]
        expected = cam.world_to_cam(means)[:, 2]
        np.testing.assert_allclose(depths, expected, rtol=1e-12)
        assert np.all(depths > 0)

    @settings(max_examples=30, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        scale_boost=st.floats(0.2, 2.0),
    )
    def test_radius_monotone_in_scale(self, seed, scale_boost):
        """Growing a Gaussian's world extent cannot shrink its splat."""
        rng = np.random.default_rng(seed)
        means, log_scales, quats = make_inputs(rng, 10)
        cam = front_camera()
        small = project_all(means, log_scales, quats, cam).rows
        large = project_all(means, log_scales + scale_boost, quats, cam).rows
        assert np.all(large.radii >= small.radii)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 10_000), shrink=st.floats(1.5, 4.0))
    def test_farther_gaussians_project_smaller(self, seed, shrink):
        """Perspective: pushing an *isotropic* Gaussian away along its view
        ray shrinks its on-screen radius (anisotropic splats viewed
        obliquely can legitimately grow, so the property is tested on the
        clean case)."""
        rng = np.random.default_rng(seed)
        n = 8
        means, _, _ = make_inputs(rng, n, z_range=(2.0, 4.0))
        log_scales = np.repeat(
            rng.uniform(np.log(0.05), np.log(0.4), size=(n, 1)), 3, axis=1
        )
        quats = np.tile([1.0, 0.0, 0.0, 0.0], (n, 1))
        cam = front_camera()
        near = project_all(means, log_scales, quats, cam).rows
        center = cam.center
        far_means = center + (means - center) * shrink  # along the view ray
        far = project_all(far_means, log_scales, quats, cam).rows
        # allow the ceil-quantized radius to tie
        assert np.all(far.radii <= near.radii)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_conic_inverts_cov2d(self, seed):
        rng = np.random.default_rng(seed)
        means, log_scales, quats = make_inputs(rng, 12)
        proj = project_all(means, log_scales, quats, front_camera())
        for i in range(12):
            conic = np.array(
                [
                    [proj.conics[i, 0], proj.conics[i, 1]],
                    [proj.conics[i, 1], proj.conics[i, 2]],
                ]
            )
            np.testing.assert_allclose(
                conic @ proj.rows.cov2d[i], np.eye(2), atol=1e-8
            )
