"""Tests for what a training run holds fixed (the SH degree and the
learning rates) and for the opacity-reset schedule."""

import numpy as np
import pytest

from repro.core import SYSTEM_NAMES, GSScaleConfig, Trainer, create_system
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.densify import DensificationController, DensifyConfig
from repro.gaussians import GaussianModel, layout
from repro.optim import packed_lr_vector


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=150, width=28, height=20,
            num_train_cameras=3, num_test_cameras=1,
            altitude=9.0, seed=55,
        )
    )


class TestShDegree:
    def test_degree_zero_moves_only_the_dc_band(self, scene):
        """A system trains at ``config.sh_degree``: at degree 0, SH bands
        1-3 receive zero gradient."""
        cfg = GSScaleConfig(
            system="gpu_only", scene_extent=scene.extent, ssim_lambda=0.0,
            sh_degree=0, mem_limit=1.0, seed=0,
        )
        s = create_system(scene.initial.copy(), cfg)
        before = s.store.params.copy()
        s.step(scene.train_cameras[0], scene.train_images[0])
        sh_cols = s.store.params[:, layout.SH_SLICE].reshape(-1, 16, 3)
        before_sh = before[:, layout.SH_SLICE].reshape(-1, 16, 3)
        # DC moved, higher bands untouched
        assert np.any(sh_cols[:, 0, :] != before_sh[:, 0, :])
        np.testing.assert_array_equal(sh_cols[:, 1:, :], before_sh[:, 1:, :])

    @pytest.mark.parametrize("degree", [1, 2])
    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_every_system_trains_at_the_config_degree(
        self, scene, system, degree
    ):
        """Bands above ``config.sh_degree`` stay byte-equal through a step
        of any system; the top band the degree admits moves."""
        cfg = GSScaleConfig(
            system=system, scene_extent=scene.extent, ssim_lambda=0.0,
            sh_degree=degree, mem_limit=1.0, num_shards=2, seed=0,
        )
        s = create_system(scene.initial.copy(), cfg)
        before = s.materialized_model().sh
        s.step(scene.train_cameras[0], scene.train_images[0])
        after = s.materialized_model().sh
        s.finalize()
        lo, hi = degree**2, (degree + 1) ** 2  # the top band's coefficients
        assert np.any(after[:, lo:hi, :] != before[:, lo:hi, :])
        np.testing.assert_array_equal(after[:, hi:, :], before[:, hi:, :])


class TestFixedLearningRates:
    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_every_leaf_keeps_its_slice_of_the_packed_vector(
        self, scene, system
    ):
        """Each leaf optimizer steps with its block's slice of
        ``packed_lr_vector(scene_extent)`` for the whole run."""
        cfg = GSScaleConfig(
            system=system, scene_extent=scene.extent, ssim_lambda=0.0,
            mem_limit=1.0, num_shards=2, seed=0,
        )
        s = create_system(scene.initial.copy(), cfg)
        for i in range(4):
            s.step(scene.train_cameras[i % 3], scene.train_images[i % 3])
        s.finalize()
        lr = packed_lr_vector(
            scene_extent=scene.extent, dtype=s.materialized_model().dtype
        )
        for _, store, _ in s.store.leaves():
            expected = lr[store.block.sl]
            assert store.optimizer._lr_vec.tobytes() == expected.tobytes()


class TestOpacityReset:
    def make_controller(self, n, interval=5, value=0.01):
        return DensificationController(
            DensifyConfig(
                interval=1000, start_iteration=1000, stop_iteration=2000,
                opacity_reset_interval=interval, opacity_reset_value=value,
            ),
            n,
        )

    def test_reset_clamps_high_opacities(self):
        params = np.zeros((4, layout.PARAM_DIM))
        params[:, 10] = [3.0, -6.0, 0.5, 2.0]  # logits
        model = GaussianModel(params)
        c = self.make_controller(4)
        clamped = c.reset_opacity(model)
        assert clamped == 3  # the -6.0 logit is already below the ceiling
        assert np.all(model.opacities <= 0.01 + 1e-9)

    def test_low_opacities_untouched(self):
        params = np.zeros((2, layout.PARAM_DIM))
        params[:, 10] = -8.0
        model = GaussianModel(params)
        c = self.make_controller(2)
        assert c.reset_opacity(model) == 0
        np.testing.assert_array_equal(model.opacity_logits[:, 0], -8.0)

    def test_schedule(self):
        c = self.make_controller(2, interval=7)
        fired = [i for i in range(1, 30) if c.should_reset_opacity(i)]
        assert fired == [7, 14, 21, 28]
        c2 = DensificationController(DensifyConfig(), 2)
        assert not any(c2.should_reset_opacity(i) for i in range(1, 30))

    def test_trainer_integration_all_systems(self, scene):
        densify = DensifyConfig(
            interval=1000, start_iteration=1000, stop_iteration=2000,
            opacity_reset_interval=4, opacity_reset_value=0.02,
        )
        for system in ("gpu_only", "gsscale"):
            trainer = Trainer(
                scene.initial.copy(),
                GSScaleConfig(
                    system=system, scene_extent=scene.extent,
                    ssim_lambda=0.0, mem_limit=1.0, seed=0,
                ),
                densify=densify,
            )
            trainer.train(scene.train_cameras, scene.train_images, 4)
            model = trainer.system.materialized_model()
            assert np.all(model.opacities <= 0.02 + 1e-9), system

    def test_training_recovers_after_reset(self, scene):
        """Opacity must be re-learnable after the clamp."""
        densify = DensifyConfig(
            interval=1000, start_iteration=1000, stop_iteration=2000,
            opacity_reset_interval=3,
        )
        trainer = Trainer(
            scene.initial.copy(),
            GSScaleConfig(
                system="gsscale", scene_extent=scene.extent,
                ssim_lambda=0.0, mem_limit=1.0, seed=0,
            ),
            densify=densify,
        )
        trainer.train(scene.train_cameras, scene.train_images, 9)
        model = trainer.system.materialized_model()
        # 2 full steps after the last reset at iteration 9 -> some recovery
        assert np.isfinite(model.opacities).all()
