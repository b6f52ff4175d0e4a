"""Cross-engine parity suite: the reference loop vs the vectorized engine.

The ``reference`` loop is the oracle; the pair kernel's engine
(``vectorized`` — every other entry of ``ENGINES``) must
reproduce the image, the final transmittance, and all
five gradient arrays to tight absolute tolerance on randomized scenes —
including the gradcheck configurations (``alpha_min=0``,
``full_image_splats``) and the image-splitting path of the GS-Scale system.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import GSScaleConfig, create_system
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import GaussianModel, layout
from repro.render import ENGINES, RasterConfig, render, render_backward
from repro.render.backward import rasterize_backward
from repro.render.engine import (
    get_backward,
    get_forward,
    rasterize_backward_vectorized,
    rasterize_vectorized,
)
from repro.render.rasterize import rasterize

ATOL = 1e-9


def make_splats(n, width, height, seed, opacity_lo=0.05):
    """Random anisotropic splats, many partially off-screen."""
    rng = np.random.default_rng(seed)
    means2d = rng.uniform([-6, -6], [width + 6, height + 6], size=(n, 2))
    sx = rng.uniform(0.8, 4.0, size=n)
    sy = rng.uniform(0.8, 4.0, size=n)
    theta = rng.uniform(0, np.pi, size=n)
    cth, sth = np.cos(theta), np.sin(theta)
    inv_a, inv_b = 1 / sx**2, 1 / sy**2
    conics = np.stack(
        [
            cth**2 * inv_a + sth**2 * inv_b,
            cth * sth * (inv_a - inv_b),
            sth**2 * inv_a + cth**2 * inv_b,
        ],
        axis=1,
    )
    colors = rng.uniform(0, 1, size=(n, 3))
    opacities = rng.uniform(opacity_lo, 1.0, size=n)
    depths = rng.uniform(1, 30, size=n)
    radii = 3 * np.maximum(sx, sy)
    return means2d, conics, colors, opacities, depths, radii


SCENES = [
    # (n, width, height, seed)
    (40, 32, 24, 0),
    (150, 70, 50, 1),
    (400, 96, 80, 2),
]

CONFIGS = [
    RasterConfig(),
    RasterConfig(alpha_min=0.0),
    RasterConfig(alpha_min=0.0, full_image_splats=True),
]


#: The engines checked against the oracle: all of ``ENGINES`` but it.
FLAT_ENGINES = [name for name in ENGINES if name != "reference"]


def engine_config(engine, base=None):
    """``base`` (the default config if ``None``) on ``engine``."""
    return replace(base or RasterConfig(), engine=engine)


def _config_id(cfg):
    return f"amin{cfg.alpha_min:.3f}-full{int(cfg.full_image_splats)}"


class TestForwardParity:
    @pytest.mark.parametrize("scene", SCENES, ids=lambda s: f"n{s[0]}")
    @pytest.mark.parametrize("cfg", CONFIGS, ids=_config_id)
    @pytest.mark.parametrize("engine", FLAT_ENGINES)
    def test_image_and_transmittance(self, scene, cfg, engine):
        n, w, h, seed = scene
        if cfg.full_image_splats and n > 150:
            pytest.skip("full-image splats on large scenes are O(n * H * W)")
        args = make_splats(n, w, h, seed)
        bg = np.array([0.2, 0.4, 0.6])
        ref = rasterize(*args, width=w, height=h, background=bg, config=cfg)
        out = get_forward(engine)(
            *args, width=w, height=h, background=bg,
            config=engine_config(engine, cfg),
        )
        np.testing.assert_allclose(out.image, ref.image, atol=ATOL, rtol=0)
        np.testing.assert_allclose(
            out.final_transmittance, ref.final_transmittance, atol=ATOL, rtol=0
        )
        np.testing.assert_array_equal(out.order, ref.order)
        np.testing.assert_array_equal(out.bboxes, ref.bboxes)

    @pytest.mark.parametrize("engine", FLAT_ENGINES)
    def test_no_background(self, engine):
        args = make_splats(60, 48, 40, 3)
        ref = rasterize(*args, width=48, height=40)
        out = get_forward(engine)(
            *args, width=48, height=40, config=engine_config(engine)
        )
        np.testing.assert_allclose(out.image, ref.image, atol=ATOL, rtol=0)

    def test_empty_scene(self):
        res = rasterize_vectorized(
            np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)),
            np.zeros(0), np.zeros(0), np.zeros(0), 16, 12,
            background=np.array([0.1, 0.2, 0.3]),
        )
        np.testing.assert_allclose(res.image[:, :, 0], 0.1)
        np.testing.assert_allclose(res.final_transmittance, 1.0)

    def test_all_splats_offscreen(self):
        args = list(make_splats(10, 32, 32, 4))
        args[0] = args[0] + 500.0  # push every center far off-screen
        res = rasterize_vectorized(*args, width=32, height=32)
        np.testing.assert_allclose(res.image, 0.0)

    def test_single_splat(self):
        means2d = np.array([[8.0, 8.0]])
        conics = np.array([[1 / 16.0, 0.0, 1 / 16.0]])
        args = (
            means2d, conics, np.array([[1.0, 0.0, 0.0]]), np.array([0.7]),
            np.array([1.0]), np.array([12.0]),
        )
        ref = rasterize(*args, width=16, height=16)
        vec = rasterize_vectorized(*args, width=16, height=16)
        np.testing.assert_allclose(vec.image, ref.image, atol=ATOL, rtol=0)

    def test_alpha_max_one_rejected(self):
        args = make_splats(5, 16, 16, 5)
        with pytest.raises(ValueError, match="alpha_max"):
            rasterize_vectorized(
                *args, width=16, height=16,
                config=RasterConfig(alpha_max=1.0),
            )

    def test_unknown_engine_rejected(self):
        with pytest.raises(ValueError, match="unknown raster engine"):
            get_forward("bogus")
        with pytest.raises(ValueError, match="unknown raster engine"):
            get_backward("bogus")
        with pytest.raises(ValueError, match="unknown raster engine"):
            RasterConfig(engine="bogus")
        # the second loop engine and the shard engine are gone, not hidden
        assert ENGINES == ("reference", "vectorized")
        for retired in ("tiled", "fragment"):
            with pytest.raises(ValueError, match="unknown raster engine"):
                RasterConfig(engine=retired)
        assert not hasattr(RasterConfig(), "fragment_shards")


class TestBackwardParity:
    @pytest.mark.parametrize("scene", SCENES, ids=lambda s: f"n{s[0]}")
    @pytest.mark.parametrize("cfg", CONFIGS, ids=_config_id)
    def test_all_gradient_arrays(self, scene, cfg):
        n, w, h, seed = scene
        if cfg.full_image_splats and n > 150:
            pytest.skip("full-image splats on large scenes are O(n * H * W)")
        args = make_splats(n, w, h, seed)
        bg = np.array([0.3, 0.1, 0.5])
        rng = np.random.default_rng(seed + 100)
        grad_image = rng.normal(size=(h, w, 3))
        ref_fwd = rasterize(*args, width=w, height=h, background=bg, config=cfg)
        vec_fwd = rasterize_vectorized(
            *args, width=w, height=h, background=bg, config=cfg
        )
        ref = rasterize_backward(
            args[0], args[1], args[2], args[3], ref_fwd, grad_image,
            background=bg, config=cfg,
        )
        vec = rasterize_backward_vectorized(
            args[0], args[1], args[2], args[3], vec_fwd, grad_image,
            background=bg, config=cfg,
        )
        for field in ("means2d", "conics", "colors", "opacities", "mean2d_abs"):
            np.testing.assert_allclose(
                getattr(vec, field), getattr(ref, field), atol=ATOL, rtol=0,
                err_msg=field,
            )

    def test_saturated_alpha_cap(self):
        """Gradient must vanish where the alpha cap binds, like the loop."""
        args = list(make_splats(30, 40, 40, 6))
        args[3] = np.ones(30)  # opacity 1 -> cap binds near centers
        ref_fwd = rasterize(*args, width=40, height=40)
        vec_fwd = rasterize_vectorized(*args, width=40, height=40)
        g = np.ones((40, 40, 3))
        ref = rasterize_backward(args[0], args[1], args[2], args[3], ref_fwd, g)
        vec = rasterize_backward_vectorized(
            args[0], args[1], args[2], args[3], vec_fwd, g
        )
        np.testing.assert_allclose(vec.opacities, ref.opacities, atol=ATOL, rtol=0)
        np.testing.assert_allclose(vec.means2d, ref.means2d, atol=ATOL, rtol=0)

    def test_empty_scene_grads(self):
        res = rasterize_vectorized(
            np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)),
            np.zeros(0), np.zeros(0), np.zeros(0), 8, 8,
        )
        grads = rasterize_backward_vectorized(
            np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)),
            np.zeros(0), res, np.ones((8, 8, 3)),
        )
        assert grads.means2d.shape == (0, 2)


class TestFloat32FastPath:
    """RasterConfig.dtype="float32": bounded-tolerance parity."""

    @pytest.fixture(scope="class")
    def scene_args(self):
        return make_splats(400, 96, 80, 2)

    def test_forward_close_to_float64(self, scene_args):
        ref = rasterize_vectorized(*scene_args, width=96, height=80)
        out = rasterize_vectorized(
            *scene_args, width=96, height=80,
            config=RasterConfig(engine="vectorized", dtype="float32"),
        )
        assert out.image.dtype == np.float32
        assert out.final_transmittance.dtype == np.float32
        np.testing.assert_allclose(out.image, ref.image, atol=2e-3, rtol=0)
        np.testing.assert_allclose(
            out.final_transmittance, ref.final_transmittance, atol=2e-3,
            rtol=0,
        )

    def test_backward_close_to_float64(self, scene_args):
        grad_image = np.random.default_rng(8).normal(size=(80, 96, 3))
        ref_fwd = rasterize_vectorized(*scene_args, width=96, height=80)
        ref = rasterize_backward_vectorized(
            scene_args[0], scene_args[1], scene_args[2], scene_args[3],
            ref_fwd, grad_image,
        )
        cfg = RasterConfig(dtype="float32")
        f32_fwd = rasterize_vectorized(
            *scene_args, width=96, height=80, config=cfg
        )
        out = rasterize_backward_vectorized(
            scene_args[0], scene_args[1], scene_args[2], scene_args[3],
            f32_fwd, grad_image, config=cfg,
        )
        # gradients are sums of O(1) pair terms; float32 keeps ~1e-3
        scale = max(np.abs(ref.colors).max(), 1.0)
        np.testing.assert_allclose(
            out.colors, ref.colors, atol=5e-3 * scale, rtol=0
        )

    def test_bad_dtype_rejected(self):
        with pytest.raises(ValueError, match="dtype"):
            RasterConfig(dtype="float16")

    def test_loop_engines_ignore_dtype(self, scene_args):
        """The correctness oracles stay in the input precision."""
        out = rasterize(
            *scene_args, width=96, height=80,
            config=RasterConfig(dtype="float32"),
        )
        assert out.image.dtype == np.float64


def _tiny_model(seed=0, n=30):
    rng = np.random.default_rng(seed)
    means = rng.uniform(-0.6, 0.6, size=(n, 3))
    log_scales = rng.uniform(np.log(0.05), np.log(0.2), size=(n, 3))
    quats = rng.normal(size=(n, 4))
    opacity_logits = rng.uniform(-1.0, 1.5, size=n)
    sh = rng.normal(size=(n, 16, 3)) * 0.2
    return GaussianModel.from_attributes(
        means, log_scales, quats, opacity_logits, sh, dtype=np.float64
    )


class TestPipelineParity:
    """Every engine agrees through the full render pipeline."""

    def test_render_and_backward(self):
        from repro.cameras import Camera

        model = _tiny_model()
        camera = Camera.look_at(
            [0.0, -3.0, 0.5], [0.0, 0.0, 0.0], width=48, height=36
        )
        bg = np.array([0.1, 0.2, 0.3])
        rng = np.random.default_rng(7)
        grad_image = rng.normal(size=(36, 48, 3))
        results = {}
        for engine in ENGINES:
            cfg = engine_config(engine)
            res = render(model, camera, background=bg, config=cfg)
            back = render_backward(model, camera, res, grad_image)
            results[engine] = (res.image, back.param_grads, back.mean2d_abs)
        ref_img, ref_grads, ref_m2d = results["reference"]
        for engine in FLAT_ENGINES:
            img, grads, m2d = results[engine]
            np.testing.assert_allclose(img, ref_img, atol=ATOL, rtol=0)
            np.testing.assert_allclose(grads, ref_grads, atol=1e-8, rtol=0)
            np.testing.assert_allclose(m2d, ref_m2d, atol=1e-8, rtol=0)


class TestVectorizedGradcheck:
    """Numerical gradient check straight through the vectorized engine."""

    def test_means_match_numerical(self):
        from repro.cameras import Camera

        config = RasterConfig(
            alpha_min=0.0, full_image_splats=True, engine="vectorized"
        )
        model = _tiny_model(seed=3, n=5)
        camera = Camera.look_at(
            [0.0, -3.0, 0.5], [0.0, 0.0, 0.0], width=20, height=16
        )
        rng = np.random.default_rng(11)
        weights = rng.normal(size=(16, 20, 3))
        bg = np.array([0.1, 0.2, 0.3])

        res = render(model, camera, background=bg, config=config)
        back = render_backward(model, camera, res, weights)
        spec = layout.attribute("mean")
        analytic = back.param_grads[:, spec.sl]

        def loss():
            out = render(model, camera, background=bg, config=config)
            return float(np.sum(out.image * weights))

        eps = 1e-6
        numeric = np.zeros_like(analytic)
        for row, gid in enumerate(back.valid_ids):
            for col in range(spec.width):
                j = spec.start + col
                orig = model.params[gid, j]
                model.params[gid, j] = orig + eps
                hi = loss()
                model.params[gid, j] = orig - eps
                lo = loss()
                model.params[gid, j] = orig
                numeric[row, col] = (hi - lo) / (2 * eps)
        scale = np.maximum(np.abs(numeric).max(), 1.0)
        np.testing.assert_allclose(analytic, numeric, atol=2e-5 * scale)


class TestSystemParity:
    """GSScaleSystem trains identically (within fp tolerance) on every
    engine, including when balance-aware image splitting fires."""

    @pytest.fixture(scope="class")
    def scene(self):
        return build_scene(
            SyntheticSceneConfig(
                num_points=150, width=32, height=24,
                num_train_cameras=4, num_test_cameras=1,
                altitude=8.0, fov_x_deg=55.0, seed=77,
            )
        )

    def _run(self, scene, engine, mem_limit, iters=6):
        system = create_system(
            scene.initial.copy(),
            GSScaleConfig(
                system="gsscale", scene_extent=scene.extent,
                ssim_lambda=0.0, mem_limit=mem_limit, seed=0,
                raster=engine_config(engine),
            ),
        )
        losses, regions = [], []
        for i in range(iters):
            rep = system.step(
                scene.train_cameras[i % 4], scene.train_images[i % 4]
            )
            losses.append(rep.loss)
            regions.append(rep.num_regions)
        system.finalize()
        return np.array(losses), regions, system.materialized_model().params

    @pytest.mark.parametrize("mem_limit", [1.0, 0.05], ids=["whole", "split"])
    def test_loss_trajectory_matches_reference(self, scene, mem_limit):
        ref_losses, ref_regions, ref_params = self._run(
            scene, "reference", mem_limit
        )
        for engine in FLAT_ENGINES:
            losses, regions, params = self._run(scene, engine, mem_limit)
            assert regions == ref_regions
            np.testing.assert_allclose(losses, ref_losses, atol=1e-9, rtol=0)
            # Adam divides by sqrt(v) + 1e-15, so a ~1e-15 gradient
            # difference on a near-zero coordinate flips the whole update
            # sign; isolated parameters may drift by O(lr) per step.
            np.testing.assert_allclose(params, ref_params, atol=2e-4, rtol=0)
        if mem_limit < 1.0:
            assert max(ref_regions) > 1, "split path must actually fire"

    def test_system_records_engine(self, scene):
        system = create_system(
            scene.initial.copy(),
            GSScaleConfig(
                system="gpu_only", scene_extent=scene.extent,
                engine="vectorized",
            ),
        )
        assert system.config.raster.engine == "vectorized"
