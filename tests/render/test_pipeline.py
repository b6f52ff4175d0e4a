"""Tests for the high-level render()/render_backward() API."""

import numpy as np
import pytest

from repro import pool
from repro.cameras import Camera
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import GaussianModel, layout
from repro.render import RasterConfig, engine, render, render_backward


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(0)
    n = 40
    model = GaussianModel.from_point_cloud(
        rng.uniform(-1, 1, (n, 3)), rng.uniform(0, 1, (n, 3)),
        initial_opacity=0.6, dtype=np.float64,
    )
    model.sh[:, 1:, :] = rng.normal(scale=0.1, size=(n, 15, 3))
    cam = Camera.look_at([0, -3.5, 0.8], [0, 0, 0], width=40, height=30)
    return model, cam


class TestRenderAPI:
    def test_image_shape_and_range(self, scene):
        model, cam = scene
        res = render(model, cam)
        assert res.image.shape == (30, 40, 3)
        assert np.all(np.isfinite(res.image))
        assert res.raster.final_transmittance.shape == (30, 40)

    def test_background_color(self, scene):
        model, cam = scene
        bg = np.array([0.9, 0.1, 0.5])
        res = render(model, cam, background=bg)
        # corner pixels see mostly background
        t = res.raster.final_transmittance
        corner = np.unravel_index(np.argmax(t), t.shape)
        assert t[corner] > 0.5
        np.testing.assert_allclose(
            res.image[corner], bg * t[corner] + res.image[corner] - bg * t[corner]
        )

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_sh_degree_variants(self, scene, degree):
        model, cam = scene
        res = render(model, cam, sh_degree=degree)
        assert np.all(np.isfinite(res.image))

    def test_sh_degree_zero_is_view_independent(self, scene):
        """With degree 0, two cameras at different angles see the same
        color for the same Gaussian (only geometry differs)."""
        model, _ = scene
        cam_a = Camera.look_at([0, -3.5, 0.8], [0, 0, 0], width=16, height=16)
        cam_b = Camera.look_at([3.5, 0, 0.8], [0, 0, 0], width=16, height=16)
        res_a = render(model, cam_a, sh_degree=0)
        res_b = render(model, cam_b, sh_degree=0)
        ids = np.intersect1d(res_a.valid_ids, res_b.valid_ids)
        assert ids.size > 0
        pos_a = np.searchsorted(res_a.valid_ids, ids)
        pos_b = np.searchsorted(res_b.valid_ids, ids)
        np.testing.assert_allclose(
            res_a.proj.colors[pos_a], res_b.proj.colors[pos_b], atol=1e-12
        )

    def test_explicit_valid_ids(self, scene):
        model, cam = scene
        auto = render(model, cam)
        manual = render(model, cam, valid_ids=auto.valid_ids)
        np.testing.assert_array_equal(manual.image, auto.image)

    def test_subset_render_excludes_gaussians(self, scene):
        model, cam = scene
        auto = render(model, cam)
        half = auto.valid_ids[: auto.valid_ids.size // 2]
        partial = render(model, cam, valid_ids=half)
        # fewer Gaussians -> the images must differ somewhere
        assert not np.array_equal(partial.image, auto.image)

    def test_empty_model(self):
        model = GaussianModel(np.zeros((0, layout.PARAM_DIM)))
        cam = Camera.look_at([0, -2, 0], [0, 0, 0], width=8, height=8)
        res = render(model, cam)
        np.testing.assert_allclose(res.image, 0.0)
        assert res.valid_ids.size == 0

    def test_cull_stats_attached(self, scene):
        model, cam = scene
        res = render(model, cam)
        assert res.cull.num_total == model.num_gaussians
        assert res.cull.num_visible == res.valid_ids.size
        assert 0 < res.cull.active_ratio <= 1.0


class TestRenderBackwardAPI:
    def test_grad_shape(self, scene):
        model, cam = scene
        res = render(model, cam)
        back = render_backward(model, cam, res, np.ones_like(res.image))
        assert back.param_grads.shape == (res.valid_ids.size, layout.PARAM_DIM)
        assert back.mean2d_abs.shape == (res.valid_ids.size,)

    def test_a_view_that_sees_nothing_has_no_rows(self, scene):
        model, _ = scene
        away = Camera.look_at([0, -3.5, 0.8], [0, -9.0, 0.8], width=40, height=30)
        res = render(model, away)
        assert res.valid_ids.size == 0
        grads = render_backward(model, away, res, np.ones_like(res.image))
        assert grads.param_grads.shape == (0, layout.PARAM_DIM)

    def test_zero_loss_grad_gives_zero_param_grads(self, scene):
        model, cam = scene
        res = render(model, cam)
        back = render_backward(model, cam, res, np.zeros_like(res.image))
        np.testing.assert_allclose(back.param_grads, 0.0)

    def test_grad_linearity(self, scene):
        """Backward is linear in the incoming image gradient."""
        model, cam = scene
        res = render(model, cam)
        rng = np.random.default_rng(1)
        g = rng.normal(size=res.image.shape)
        b1 = render_backward(model, cam, res, g)
        b2 = render_backward(model, cam, res, 2.0 * g)
        np.testing.assert_allclose(
            b2.param_grads, 2.0 * b1.param_grads, rtol=1e-10, atol=1e-12
        )


class TestCroppedCameraRendering:
    def test_crop_renders_image_slice(self, scene):
        """Rendering a cropped camera reproduces the corresponding columns
        of the full image (the splitting engine's core assumption)."""
        model, cam = scene
        full = render(model, cam, config=RasterConfig())
        x0, x1 = 12, 30
        sub = render(model, cam.crop(x0, x1), config=RasterConfig())
        np.testing.assert_allclose(
            sub.image, full.image[:, x0:x1], atol=1e-10
        )

    def test_two_crops_tile_the_image(self, scene):
        model, cam = scene
        full = render(model, cam)
        left = render(model, cam.crop(0, 20))
        right = render(model, cam.crop(20, cam.width))
        stitched = np.concatenate([left.image, right.image], axis=1)
        np.testing.assert_allclose(stitched, full.image, atol=1e-10)


class TestRowOrderNeverShows:
    """Every per-Gaussian stage — the cull, the projection, the colours,
    the pair table and the sums over its pairs — is a function of each row
    and of the depth order alone, so rendering the rows of a model in
    another order (all depths distinct) gives the same image, bit for bit,
    and each row its own gradient back. The permuted render's forward is
    cut into tile-row blocks on the block threads, the original's runs
    inline; the CPU count is patched, so the threads run on a 1-CPU
    machine too."""

    @pytest.fixture(scope="class")
    def tall(self):
        """Views six tile rows tall, and SH coefficients of every band."""
        scene = build_scene(SyntheticSceneConfig(
            num_points=300, width=40, height=96, num_train_cameras=3,
            num_test_cameras=1, altitude=12.0, seed=7,
        ))
        model = scene.initial.copy()
        model.sh[:, 1:, :] = np.random.default_rng(4).normal(
            scale=0.1, size=model.sh[:, 1:, :].shape
        )
        return model, scene.train_cameras

    @pytest.mark.parametrize("cpus", [1, 2, 3], ids=lambda c: f"cpus{c}")
    @pytest.mark.parametrize("raster_dtype", [None, "float32"],
                             ids=["raster-model", "raster-f32"])
    @pytest.mark.parametrize("sh_degree", [0, 1, 2, 3],
                             ids=lambda d: f"sh{d}")
    @pytest.mark.parametrize("dtype", [np.float64, np.float32],
                             ids=["f64", "f32"])
    def test_image_and_gradients_equal(
        self, tall, dtype, sh_degree, raster_dtype, cpus, monkeypatch
    ):
        base, cameras = tall
        model = GaussianModel(base.params.astype(dtype))
        perm = np.random.default_rng(1).permutation(model.num_gaussians)
        permuted = GaussianModel(model.params[perm])
        config = RasterConfig(dtype=raster_dtype)
        cuts = []
        real_cut = engine._tile_row_blocks

        def cut(*args):
            out = real_cut(*args)
            cuts.append(len(out[0]) - 1)
            return out

        monkeypatch.setattr(engine, "_tile_row_blocks", cut)
        monkeypatch.setattr(engine, "BLOCK_CELLS", 64)
        for i, cam in enumerate(cameras):
            grad = np.random.default_rng(i).normal(
                size=(cam.height, cam.width, 3)
            ).astype(dtype)
            monkeypatch.setattr(pool, "usable_cpus", lambda: 1)
            res = render(model, cam, sh_degree=sh_degree, config=config)
            back = render_backward(model, cam, res, grad)
            monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
            cuts.clear()
            p_res = render(permuted, cam, sh_degree=sh_degree, config=config)
            # one forward; more than one thread cuts two blocks per thread
            assert len(cuts) == 1 and (cpus == 1 or cuts[0] >= 2 * cpus)
            p_back = render_backward(permuted, cam, p_res, grad)
            assert res.valid_ids.size > 1
            assert p_res.image.tobytes() == res.image.tobytes()
            assert p_res.raster.counts == res.raster.counts
            ids = perm[p_res.valid_ids]
            order = np.argsort(ids)
            assert np.array_equal(ids[order], res.valid_ids)
            assert (
                p_back.param_grads[order].tobytes()
                == back.param_grads.tobytes()
            )
            assert (
                p_back.mean2d_abs[order].tobytes()
                == back.mean2d_abs.tobytes()
            )
