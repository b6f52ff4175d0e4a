"""Tests for the end-to-end Trainer (training loop + densification)."""

import numpy as np
import pytest

from repro.core import GSScaleConfig, Trainer
from repro.densify import DensifyConfig
from repro.datasets import SyntheticSceneConfig, build_scene


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=200,
            width=32,
            height=24,
            num_train_cameras=4,
            num_test_cameras=2,
            altitude=10.0,
            seed=31,
        )
    )


def make_trainer(scene, system="gsscale", densify=None, **cfg_kwargs):
    defaults = dict(
        system=system,
        scene_extent=scene.extent,
        ssim_lambda=0.0,
        mem_limit=1.0,
        seed=0,
    )
    defaults.update(cfg_kwargs)
    return Trainer(scene.initial.copy(), GSScaleConfig(**defaults), densify=densify)


class TestTrainingLoop:
    def test_improves_psnr(self, scene):
        trainer = make_trainer(scene)
        before = trainer.evaluate(scene.test_cameras, scene.test_images)
        trainer.train(scene.train_cameras, scene.train_images, iterations=24)
        after = trainer.evaluate(scene.test_cameras, scene.test_images)
        assert after.psnr > before.psnr

    def test_history_fields(self, scene):
        trainer = make_trainer(scene)
        hist = trainer.train(scene.train_cameras, scene.train_images, iterations=6)
        assert hist.num_iterations == 6
        assert hist.peak_device_bytes > 0
        assert hist.h2d_bytes > 0
        assert hist.d2h_bytes > 0
        assert 0 < hist.mean_active_ratio <= 1.0
        assert np.isfinite(hist.final_loss)

    def test_validation(self, scene):
        trainer = make_trainer(scene)
        with pytest.raises(ValueError):
            trainer.train(scene.train_cameras, scene.train_images[:-1], 2)
        with pytest.raises(ValueError):
            trainer.train([], [], 2)

    def test_shuffle_deterministic(self, scene):
        h1 = make_trainer(scene).train(
            scene.train_cameras, scene.train_images, 8, view_order="shuffle"
        )
        h2 = make_trainer(scene).train(
            scene.train_cameras, scene.train_images, 8, view_order="shuffle"
        )
        np.testing.assert_allclose(
            [s.loss for s in h1.steps], [s.loss for s in h2.steps], rtol=1e-12
        )


class TestDensificationIntegration:
    def densify_cfg(self):
        return DensifyConfig(
            interval=4,
            start_iteration=4,
            stop_iteration=100,
            grad_threshold=1e-9,  # aggressive: densify everything seen
            percent_dense=0.01,
            max_gaussians=400,
        )

    def test_model_grows(self, scene):
        trainer = make_trainer(scene, densify=self.densify_cfg())
        n0 = trainer.num_gaussians
        hist = trainer.train(scene.train_cameras, scene.train_images, 9)
        assert trainer.num_gaussians > n0
        assert len(hist.densify_reports) >= 1
        assert hist.densify_reports[0].num_after > hist.densify_reports[0].num_before

    def test_training_continues_after_densify(self, scene):
        trainer = make_trainer(scene, densify=self.densify_cfg())
        hist = trainer.train(scene.train_cameras, scene.train_images, 12)
        assert hist.num_iterations == 12
        assert np.isfinite(hist.final_loss)
        # quality should not be destroyed by the rebuild
        ev = trainer.evaluate(scene.test_cameras, scene.test_images)
        assert np.isfinite(ev.psnr)

    def test_densify_respects_cap(self, scene):
        cfg = self.densify_cfg()
        cfg.max_gaussians = scene.initial.num_gaussians  # no growth budget
        trainer = make_trainer(scene, densify=cfg)
        trainer.train(scene.train_cameras, scene.train_images, 9)
        assert trainer.num_gaussians <= cfg.max_gaussians

    def test_all_systems_survive_densification(self, scene):
        for system in ("gpu_only", "baseline_offload", "gsscale_no_deferred",
                       "gsscale"):
            trainer = make_trainer(scene, system=system, densify=self.densify_cfg())
            hist = trainer.train(scene.train_cameras, scene.train_images, 9)
            assert hist.num_iterations == 9, system

    def test_peak_memory_preserved_across_rebuild(self, scene):
        trainer = make_trainer(scene, densify=self.densify_cfg())
        hist = trainer.train(scene.train_cameras, scene.train_images, 9)
        # peak must be at least the post-densify resident footprint
        assert hist.peak_device_bytes >= trainer.system.memory.peak_bytes

    def test_transfer_ledger_preserved_across_rebuild(self, scene):
        """Densification rebuilds the system; cumulative PCIe traffic must
        keep counting across the swap."""
        with_densify = make_trainer(scene, densify=self.densify_cfg())
        hist = with_densify.train(scene.train_cameras, scene.train_images, 9)
        assert len(hist.densify_reports) >= 1
        # every one of the 9 steps staged at least one Gaussian row
        from repro.gaussians import layout

        min_bytes = 9 * layout.NON_GEOMETRIC_DIM * 4
        assert hist.h2d_bytes >= min_bytes
        # and strictly more than the post-rebuild segment alone recorded
        steps_after_last_rebuild = 9 - hist.densify_reports[-1].iteration
        assert hist.h2d_bytes > steps_after_last_rebuild * min_bytes / 9


class TestEmptyStepSSIM:
    """Regression: an empty-visibility step must not report ssim=1.0 —
    that inflated averaged quality metrics. It reports NaN, and the
    history aggregation skips it."""

    def away_camera(self, scene):
        from repro.cameras.camera import Camera

        # looking straight away from the scene: nothing in the frustum
        return Camera.look_at(
            position=(0.0, 0.0, 1000.0), target=(0.0, 0.0, 2000.0),
            width=scene.train_cameras[0].width,
            height=scene.train_cameras[0].height,
        )

    @pytest.mark.parametrize("system", ["gsscale", "sharded"])
    def test_empty_step_reports_nan_ssim(self, scene, system):
        from repro.core import GSScaleConfig, create_system

        cfg = GSScaleConfig(system=system, scene_extent=scene.extent,
                            ssim_lambda=0.2, mem_limit=1.0, seed=0)
        s = create_system(scene.initial.copy(), cfg)
        cam = self.away_camera(scene)
        report = s.step(cam, np.zeros((cam.height, cam.width, 3)))
        assert report.num_visible == 0
        assert np.isnan(report.ssim)
        assert report.loss == 0.0

    def test_history_mean_ssim_skips_empty_steps(self, scene):
        trainer = make_trainer(scene, ssim_lambda=0.2)
        cam = self.away_camera(scene)
        cameras = list(scene.train_cameras) + [cam]
        images = list(scene.train_images) + [
            np.zeros((cam.height, cam.width, 3))
        ]
        hist = trainer.train(cameras, images, iterations=len(cameras))
        ssims = np.array([s.ssim for s in hist.steps])
        assert np.isnan(ssims).sum() == 1
        assert np.isfinite(hist.mean_ssim)
        assert hist.mean_ssim == pytest.approx(
            float(np.mean(ssims[~np.isnan(ssims)]))
        )
        # the fake-1.0 bug would have pulled the average up
        assert hist.mean_ssim < 1.0


class TestEvaluate:
    def test_eval_result_fields(self, scene):
        trainer = make_trainer(scene)
        ev = trainer.evaluate(scene.test_cameras, scene.test_images)
        assert ev.num_views == 2
        assert np.isfinite(ev.psnr)
        assert -1 <= ev.ssim <= 1
        assert ev.lpips_proxy >= 0

    def test_oracle_scores_best(self, scene):
        """Evaluating the oracle against its own renders is near-perfect."""
        cfg = GSScaleConfig(system="gpu_only", scene_extent=scene.extent,
                            mem_limit=1.0, seed=0)
        trainer = Trainer(scene.oracle.copy(), cfg)
        ev = trainer.evaluate(scene.test_cameras, scene.test_images)
        assert ev.psnr > 40
        assert ev.lpips_proxy < 1e-3
