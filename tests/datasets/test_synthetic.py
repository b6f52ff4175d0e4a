"""Tests for the procedural scene generator and point-cloud helpers."""

import numpy as np
import pytest

from repro.datasets import (
    SyntheticSceneConfig,
    build_scene,
    generate_point_cloud,
    mean_knn_distance,
)


def small_config(**kw):
    base = dict(
        num_points=300,
        width=32,
        height=24,
        num_train_cameras=4,
        num_test_cameras=2,
        seed=3,
    )
    base.update(kw)
    return SyntheticSceneConfig(**base)


class TestPointCloud:
    def test_counts_and_ranges(self):
        cfg = small_config()
        pts, cols = generate_point_cloud(cfg)
        assert pts.shape == (300, 3)
        assert cols.shape == (300, 3)
        assert cols.min() >= 0.0 and cols.max() <= 1.0
        assert np.abs(pts[:, :2]).max() <= cfg.extent + 1e-9

    def test_deterministic_in_seed(self):
        cfg = small_config()
        a = generate_point_cloud(cfg)
        b = generate_point_cloud(cfg)
        np.testing.assert_array_equal(a[0], b[0])
        c = generate_point_cloud(small_config(seed=99))
        assert not np.array_equal(a[0], c[0])

    def test_buildings_rise_above_terrain(self):
        cfg = small_config(num_buildings=4, terrain_roughness=0.1)
        pts, _ = generate_point_cloud(cfg)
        assert pts[:, 2].max() > 0.5  # some building points well above ground


class TestKnnDistance:
    def test_regular_grid(self):
        xs = np.arange(5, dtype=float)
        pts = np.array([[x, 0.0, 0.0] for x in xs])
        d = mean_knn_distance(pts, k=2)
        # interior points: neighbors at distance 1 and 1
        assert d[2] == pytest.approx(1.0)

    def test_single_point(self):
        assert mean_knn_distance(np.zeros((1, 3)))[0] == 1.0

    def test_two_points(self):
        pts = np.array([[0.0, 0.0, 0.0], [3.0, 0.0, 0.0]])
        np.testing.assert_allclose(mean_knn_distance(pts, k=3), [3.0, 3.0])


class TestBuildScene:
    @pytest.fixture(scope="class")
    def scene(self):
        return build_scene(small_config())

    def test_shapes(self, scene):
        assert len(scene.train_cameras) == 4
        assert len(scene.test_cameras) == 2
        assert len(scene.train_images) == 4
        assert scene.train_images[0].shape == (24, 32, 3)

    def test_ground_truth_nontrivial(self, scene):
        """GT images must actually show the scene (not all background)."""
        for img in scene.train_images:
            assert img.std() > 0.01

    def test_initial_model_degraded(self, scene):
        assert scene.initial.num_gaussians < scene.oracle.num_gaussians
        assert scene.initial.num_gaussians >= 4

    def test_initial_model_renders_worse_than_oracle(self, scene):
        from repro.metrics import psnr
        from repro.render import render

        cam = scene.train_cameras[0]
        gt = scene.train_images[0]
        init_img = render(scene.initial, cam).image
        assert psnr(init_img, gt) < 45.0  # clearly imperfect

    def test_targets_are_the_oracle_loop_render(self, scene):
        """Training defaults to the ``vectorized`` engine, but the ground
        truth is the ``reference`` loop's render, byte for byte."""
        from repro.core import GSScaleConfig
        from repro.render import RasterConfig, render

        assert GSScaleConfig().raster.engine == "vectorized"
        oracle = RasterConfig(engine="reference")
        for cam, img in zip(
            scene.train_cameras + scene.test_cameras,
            scene.train_images + scene.test_images,
        ):
            want = render(scene.oracle, cam, config=oracle).image
            assert img.tobytes() == want.tobytes()

    def test_cameras_see_gaussians(self, scene):
        from repro.render import frustum_cull

        m = scene.oracle
        for cam in scene.train_cameras:
            res = frustum_cull(m.means, m.log_scales, m.quats, cam)
            assert res.num_visible > 0
