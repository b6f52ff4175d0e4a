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


class TestShuffledSchedule:
    """``view_order="shuffle"`` walks one schedule: epoch e's order is
    ``arange`` shuffled e + 1 times by ``default_rng(seed)``. A hint names
    the views the next steps render, across an epoch boundary too, and a
    run resumed at ``start_iteration=k`` steps what the uninterrupted
    run steps from k on."""

    #: seed 0's walk over 5 views, the order every run shuffled before
    #: the schedule was pinned
    UNINTERRUPTED = [2, 4, 3, 0, 1, 1, 4, 3, 2, 0, 1, 3, 2, 0, 4]

    @pytest.fixture(scope="class")
    def five_views(self):
        return build_scene(
            SyntheticSceneConfig(
                num_points=120, width=24, height=16, num_train_cameras=5,
                num_test_cameras=1, altitude=9.0, seed=5,
            )
        )

    @staticmethod
    def walk(scene, iterations, start_iteration=0):
        """``(views stepped, views hinted at each step)`` of one
        out-of-core run, as indices into the training views."""
        index = {id(cam): i for i, cam in enumerate(scene.train_cameras)}
        trainer = Trainer(
            scene.initial.copy(),
            GSScaleConfig(
                system="outofcore", scene_extent=scene.extent,
                ssim_lambda=0.0, resident_shards=1, seed=0,
            ),
        )
        system = trainer.system
        stepped, hinted = [], []
        step, hint = system.step, system.hint_upcoming_views

        def spy_step(camera, image):
            stepped.append(index[id(camera)])
            return step(camera, image)

        def spy_hint(cameras):
            hinted.append([index[id(cam)] for cam in cameras])
            return hint(cameras)

        system.step, system.hint_upcoming_views = spy_step, spy_hint
        trainer.train(
            scene.train_cameras, scene.train_images, iterations,
            view_order="shuffle", start_iteration=start_iteration,
        )
        return stepped, hinted

    def test_uninterrupted_walk_is_unchanged(self, five_views):
        stepped, _ = self.walk(five_views, 15)
        assert stepped == self.UNINTERRUPTED

    def test_hints_name_the_next_steps_across_epochs(self, five_views):
        stepped, hinted = self.walk(five_views, 15)
        depth = GSScaleConfig().prefetch_depth
        assert len(hinted) == 14
        for it, views in enumerate(hinted):
            assert views == stepped[it + 1:it + 1 + depth], it

    @pytest.mark.parametrize("start", [3, 5, 7, 10, 14])
    def test_resume_walks_the_uninterrupted_schedule(self, five_views, start):
        stepped, _ = self.walk(five_views, 15 - start, start_iteration=start)
        assert stepped == self.UNINTERRUPTED[start:]

    @pytest.mark.parametrize("start", [4, 9])
    def test_resumed_hints_match_the_uninterrupted_run(self, five_views, start):
        """Resumed at an epoch's last step, the run hints what the
        uninterrupted run hints there: the next epoch's first views."""
        _, whole = self.walk(five_views, 15)
        _, resumed = self.walk(five_views, 15 - start, start_iteration=start)
        assert resumed == whole[start:]


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
