"""Parity, determinism, and lifecycle tests of the parallel raster engine.

The vectorized engine is the oracle: for every worker count the parallel
engine must reproduce the image, the final transmittance, and all five
gradient arrays to ``atol=1e-9`` (the only difference is prefix-scan
rounding at span boundaries, ~1e-12), repeated runs must be bit-identical,
and an end-to-end training trajectory must match. Also covers the span
partitioner, the float32 fast path, and the shared PersistentPool
lifecycle helper.
"""

import numpy as np
import pytest

from repro.core import GSScaleConfig, create_system
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.pool import PersistentPool, shutdown_raster_pools
from repro.render import RasterConfig
from repro.render.engine import (
    clip_isect_rects,
    rasterize_backward_vectorized,
    rasterize_vectorized,
    tile_intersections,
)
from repro.render.parallel import (
    rasterize_backward_parallel,
    rasterize_parallel,
)
from repro.render.rasterize import splat_bboxes
from repro.render.tiles import partition_spans

from test_engine_equivalence import make_splats

ATOL = 1e-9
WORKER_COUNTS = [1, 2, 4]
GRAD_FIELDS = ("means2d", "conics", "colors", "opacities", "mean2d_abs")


@pytest.fixture(scope="module", autouse=True)
def _reap_pools():
    yield
    shutdown_raster_pools()


@pytest.fixture(scope="module")
def scene_args():
    return make_splats(400, 96, 80, 2)


class TestForwardParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_image_and_transmittance(self, scene_args, workers):
        bg = np.array([0.2, 0.4, 0.6])
        ref = rasterize_vectorized(
            *scene_args, width=96, height=80, background=bg
        )
        out = rasterize_parallel(
            *scene_args, width=96, height=80, background=bg,
            config=RasterConfig(engine="parallel", workers=workers),
        )
        np.testing.assert_allclose(out.image, ref.image, atol=ATOL, rtol=0)
        np.testing.assert_allclose(
            out.final_transmittance, ref.final_transmittance, atol=ATOL,
            rtol=0,
        )
        np.testing.assert_array_equal(out.order, ref.order)
        np.testing.assert_array_equal(out.bboxes, ref.bboxes)

    def test_empty_scene(self):
        res = rasterize_parallel(
            np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)),
            np.zeros(0), np.zeros(0), np.zeros(0), 16, 12,
            background=np.array([0.1, 0.2, 0.3]),
            config=RasterConfig(engine="parallel", workers=2),
        )
        np.testing.assert_allclose(res.image[:, :, 0], 0.1)
        np.testing.assert_allclose(res.final_transmittance, 1.0)

    def test_gradcheck_config(self, scene_args):
        """alpha_min=0 (the smooth gradcheck configuration) holds too."""
        cfg = RasterConfig(engine="parallel", workers=2, alpha_min=0.0)
        ref = rasterize_vectorized(
            *scene_args, width=96, height=80,
            config=RasterConfig(alpha_min=0.0),
        )
        out = rasterize_parallel(*scene_args, width=96, height=80, config=cfg)
        np.testing.assert_allclose(out.image, ref.image, atol=ATOL, rtol=0)


class TestBackwardParity:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_all_gradient_arrays(self, scene_args, workers):
        bg = np.array([0.3, 0.1, 0.5])
        grad_image = np.random.default_rng(100).normal(size=(80, 96, 3))
        cfg = RasterConfig(engine="parallel", workers=workers)
        ref_fwd = rasterize_vectorized(
            *scene_args, width=96, height=80, background=bg
        )
        par_fwd = rasterize_parallel(
            *scene_args, width=96, height=80, background=bg, config=cfg
        )
        ref = rasterize_backward_vectorized(
            scene_args[0], scene_args[1], scene_args[2], scene_args[3],
            ref_fwd, grad_image, background=bg,
        )
        out = rasterize_backward_parallel(
            scene_args[0], scene_args[1], scene_args[2], scene_args[3],
            par_fwd, grad_image, background=bg, config=cfg,
        )
        for field in GRAD_FIELDS:
            np.testing.assert_allclose(
                getattr(out, field), getattr(ref, field), atol=ATOL, rtol=0,
                err_msg=field,
            )

    def test_empty_scene_grads(self):
        cfg = RasterConfig(engine="parallel", workers=2)
        res = rasterize_parallel(
            np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)),
            np.zeros(0), np.zeros(0), np.zeros(0), 8, 8, config=cfg,
        )
        grads = rasterize_backward_parallel(
            np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)),
            np.zeros(0), res, np.ones((8, 8, 3)), config=cfg,
        )
        assert grads.means2d.shape == (0, 2)


class TestDeterminism:
    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_repeated_runs_bit_identical(self, scene_args, workers):
        cfg = RasterConfig(engine="parallel", workers=workers)
        grad_image = np.random.default_rng(5).normal(size=(80, 96, 3))
        runs = []
        for _ in range(2):
            fwd = rasterize_parallel(
                *scene_args, width=96, height=80, config=cfg
            )
            bwd = rasterize_backward_parallel(
                scene_args[0], scene_args[1], scene_args[2], scene_args[3],
                fwd, grad_image, config=cfg,
            )
            runs.append((fwd, bwd))
        (f_a, b_a), (f_b, b_b) = runs
        np.testing.assert_array_equal(f_a.image, f_b.image)
        np.testing.assert_array_equal(
            f_a.final_transmittance, f_b.final_transmittance
        )
        for field in GRAD_FIELDS:
            np.testing.assert_array_equal(
                getattr(b_a, field), getattr(b_b, field), err_msg=field
            )


class TestFloat32FastPath:
    """RasterConfig.dtype="float32": bounded-tolerance parity."""

    @pytest.mark.parametrize(
        "engine,workers", [("vectorized", 0), ("parallel", 2)]
    )
    def test_forward_close_to_float64(self, scene_args, engine, workers):
        from repro.render.engine import get_forward

        ref = rasterize_vectorized(*scene_args, width=96, height=80)
        cfg = RasterConfig(engine=engine, workers=workers, dtype="float32")
        out = get_forward(engine)(
            *scene_args, width=96, height=80, config=cfg
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
        from repro.render.rasterize import rasterize

        out = rasterize(
            *scene_args, width=96, height=80,
            config=RasterConfig(dtype="float32"),
        )
        assert out.image.dtype == np.float64


class TestSpanPartition:
    def _table(self, n=300, wh=64, seed=3):
        args = make_splats(n, wh, wh, seed)
        bboxes = splat_bboxes(args[0], args[5], wh, wh)
        tile_ids, sid, tiles_x, _ = tile_intersections(bboxes, wh, wh)
        return tile_ids, sid

    @pytest.mark.parametrize("num_spans", [1, 2, 4, 7])
    def test_spans_cover_and_cut_at_tile_boundaries(self, num_spans):
        tile_ids, _ = self._table()
        weights = np.ones_like(tile_ids)
        spans = partition_spans(tile_ids, weights, num_spans)
        assert spans[0][0] == 0 and spans[-1][1] == tile_ids.size
        assert len(spans) <= num_spans
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start
            # a cut never splits one tile's segment
            assert tile_ids[stop - 1] != tile_ids[stop]

    def test_weighted_balance(self):
        tile_ids, _ = self._table(n=600)
        weights = np.ones(tile_ids.size, dtype=np.int64)
        spans = partition_spans(tile_ids, weights, 4)
        loads = [weights[a:b].sum() for a, b in spans]
        ideal = weights.sum() / 4
        # contiguous tile-boundary cuts cannot be perfect; 2x is ample
        assert max(loads) <= 2 * ideal

    def test_empty_and_single_tile(self):
        assert partition_spans(np.empty(0, np.int64), np.empty(0), 4) == []
        one_tile = np.zeros(5, dtype=np.int64)
        assert partition_spans(one_tile, np.ones(5), 4) == [(0, 5)]


class TestIsectEdgeCases:
    """Degenerate intersection tables through the span machinery: the
    partitioner, the clipped rects, and the pair builder must all agree
    on empty, single-tile, and concentrated inputs."""

    def _table(self, means2d, radii, width, height, depths=None):
        bboxes = splat_bboxes(means2d, radii, width, height)
        order = (
            None if depths is None else np.argsort(depths, kind="stable")
        )
        tile_ids, sid, tiles_x, _ = tile_intersections(
            bboxes, width, height, 16, order=order
        )
        return bboxes, tile_ids, sid, tiles_x

    def test_zero_intersections(self):
        """Every splat off-screen: empty table end to end."""
        means2d = np.array([[-40.0, -40.0], [200.0, 200.0]])
        radii = np.array([2.0, 2.0])
        bboxes, tile_ids, sid, tiles_x = self._table(means2d, radii, 64, 48)
        assert tile_ids.size == 0
        assert partition_spans(tile_ids, np.empty(0), 4) == []
        rx0, rx1, ry0, ry1 = clip_isect_rects(
            bboxes, tile_ids, sid, tiles_x, 16
        )
        assert rx0.size == rx1.size == ry0.size == ry1.size == 0
        from repro.render.engine import pairs_for_isects

        pairs = pairs_for_isects(
            means2d, np.full((2, 3), 1.0), np.full(2, 0.9), bboxes,
            tile_ids, sid, tiles_x, 64, 48, RasterConfig(), 16,
        )
        assert pairs.pixel.size == 0 and pairs.nz.size == 0

    def test_single_tile_image(self):
        """A 16x16 image is one tile: every intersection and pair lands
        in tile 0, and the rects clip to the image bounds."""
        from repro.render.engine import pairs_for_isects

        args = make_splats(20, 16, 16, 12)
        means2d, conics, _, opacities, depths, radii = args
        bboxes, tile_ids, sid, tiles_x = self._table(
            means2d, radii, 16, 16, depths
        )
        assert tiles_x == 1
        assert tile_ids.size > 0 and np.all(tile_ids == 0)
        rx0, rx1, ry0, ry1 = clip_isect_rects(
            bboxes, tile_ids, sid, tiles_x, 16
        )
        assert np.all(rx0 >= 0) and np.all(rx1 <= 16)
        assert np.all(ry0 >= 0) and np.all(ry1 <= 16)
        pairs = pairs_for_isects(
            means2d, conics, opacities, bboxes, tile_ids, sid, tiles_x,
            16, 16, RasterConfig(), 16,
        )
        assert np.all(pairs.pixel < 16 * 16)
        # segment structure: pixel is nz repeated by counts, ascending
        np.testing.assert_array_equal(
            pairs.pixel, np.repeat(pairs.nz, pairs.counts)
        )
        assert np.all(np.diff(pairs.nz) > 0)

    def test_all_pairs_in_one_tile(self):
        """Splats concentrated in one tile of a multi-tile image: the
        partitioner cannot cut inside it, so any requested span count
        collapses to one span."""
        rng = np.random.default_rng(13)
        means2d = rng.uniform(20, 28, size=(30, 2))  # tile (1, 1) of 64x48
        radii = np.full(30, 2.0)
        _, tile_ids, sid, tiles_x = self._table(means2d, radii, 64, 48)
        assert np.unique(tile_ids).size == 1
        spans = partition_spans(
            tile_ids, np.ones(tile_ids.size), 4
        )
        assert spans == [(0, tile_ids.size)]

    def test_span_count_exceeds_nonempty_tiles(self):
        """Asking for more spans than there are non-empty tiles: one span
        per tile at most, still covering the table exactly."""
        args = make_splats(12, 64, 48, 14)
        means2d, _, _, _, depths, radii = args
        _, tile_ids, sid, tiles_x = self._table(
            means2d, radii, 64, 48, depths
        )
        nonempty = np.unique(tile_ids).size
        spans = partition_spans(tile_ids, np.ones(tile_ids.size), 64)
        assert 0 < len(spans) <= nonempty
        assert spans[0][0] == 0 and spans[-1][1] == tile_ids.size
        for (_, stop), (start, _) in zip(spans, spans[1:]):
            assert stop == start


class TestPersistentPool:
    def test_lazy_start_reuse_and_close(self):
        pool = PersistentPool(2)
        assert not pool.started
        assert pool.map(_square, [1, 2, 3]) == [1, 4, 9]
        assert pool.started
        assert pool.map(_square, [4]) == [16]  # same workers, no respawn
        pool.close()
        assert not pool.started
        pool.close()  # idempotent

    def test_map_after_close_restarts(self):
        pool = PersistentPool(2)
        pool.map(_square, [2])
        pool.close()
        assert pool.map(_square, [3]) == [9]
        pool.close()

    def test_failed_map_tears_down(self):
        pool = PersistentPool(2)
        with pytest.raises(ValueError):
            pool.map(_boom, [1])
        assert not pool.started  # no wedged workers left behind
        assert pool.map(_square, [5]) == [25]  # and it recovers
        pool.close()

    def test_context_manager(self):
        with PersistentPool(2) as pool:
            assert pool.map(_square, [6]) == [36]
        assert not pool.started

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            PersistentPool(0)


def _square(x):
    return x * x


def _boom(_):
    raise ValueError("task failed")


class TestEndToEndTraining:
    """A GSScaleSystem trained on the parallel engine matches the
    vectorized trajectory (the cross-engine analogue of the existing
    TestSystemParity suite, across worker counts)."""

    @pytest.fixture(scope="class")
    def scene(self):
        return build_scene(
            SyntheticSceneConfig(
                num_points=150, width=32, height=24,
                num_train_cameras=4, num_test_cameras=1,
                altitude=8.0, fov_x_deg=55.0, seed=77,
            )
        )

    def _run(self, scene, raster, iters=6):
        system = create_system(
            scene.initial.copy(),
            GSScaleConfig(
                system="gsscale", scene_extent=scene.extent,
                ssim_lambda=0.0, mem_limit=1.0, seed=0, raster=raster,
            ),
        )
        losses = []
        for i in range(iters):
            rep = system.step(
                scene.train_cameras[i % 4], scene.train_images[i % 4]
            )
            losses.append(rep.loss)
        system.finalize()
        return np.array(losses), system.materialized_model().params

    @pytest.mark.parametrize("workers", WORKER_COUNTS)
    def test_trajectory_matches_vectorized(self, scene, workers):
        ref_losses, ref_params = self._run(
            scene, RasterConfig(engine="vectorized")
        )
        losses, params = self._run(
            scene, RasterConfig(engine="parallel", workers=workers)
        )
        np.testing.assert_allclose(losses, ref_losses, atol=1e-9, rtol=0)
        # same Adam-sensitivity caveat as the vectorized parity suite
        np.testing.assert_allclose(params, ref_params, atol=2e-4, rtol=0)


class TestAdaptiveSpans:
    """Span oversubscription: the planner cuts ~3x workers spans for
    straggler smoothing, without changing numerics or determinism."""

    def test_pooled_pass_plans_oversubscribed_spans(self, scene_args):
        from repro.render.engine import clip_isect_rects
        from repro.render.rasterize import config_bboxes
        from repro.render.tiles import (
            SPAN_OVERSUBSCRIPTION,
            adaptive_span_count,
        )

        means2d, conics, colors, opacities, depths, radii = scene_args
        cfg = RasterConfig()
        bboxes = config_bboxes(means2d, radii, 96, 80, cfg)
        tile_ids, sid, tiles_x, _ = tile_intersections(
            bboxes, 96, 80, 16, order=np.argsort(depths, kind="stable")
        )
        rx0, rx1, ry0, ry1 = clip_isect_rects(bboxes, tile_ids, sid, tiles_x, 16)
        weights = (rx1 - rx0) * (ry1 - ry0)
        for workers in (2, 4):
            spans = partition_spans(
                tile_ids, weights, adaptive_span_count(workers)
            )
            assert len(spans) > workers  # smoothing needs spare spans
            assert len(spans) <= workers * SPAN_OVERSUBSCRIPTION
        assert adaptive_span_count(0) == adaptive_span_count(1) == 1

    @pytest.mark.parametrize("workers", [2, 4])
    def test_oversubscribed_parity_and_determinism(self, scene_args, workers):
        bg = np.array([0.3, 0.1, 0.5])
        cfg = RasterConfig(engine="parallel", workers=workers)
        ref_fwd = rasterize_vectorized(
            *scene_args, width=96, height=80, background=bg
        )
        fwd = rasterize_parallel(
            *scene_args, width=96, height=80, background=bg, config=cfg
        )
        np.testing.assert_allclose(fwd.image, ref_fwd.image, atol=ATOL, rtol=0)
        grad = np.full((80, 96, 3), 0.5)
        ref_bwd = rasterize_backward_vectorized(
            scene_args[0], scene_args[1], scene_args[2], scene_args[3],
            ref_fwd, grad, background=bg,
        )
        bwd = rasterize_backward_parallel(
            scene_args[0], scene_args[1], scene_args[2], scene_args[3],
            fwd, grad, background=bg, config=cfg,
        )
        for field in GRAD_FIELDS:
            np.testing.assert_allclose(
                getattr(bwd, field), getattr(ref_bwd, field), atol=ATOL,
                rtol=0,
            )
        # bit-exact repeatability with the oversubscribed plan
        again = rasterize_parallel(
            *scene_args, width=96, height=80, background=bg, config=cfg
        )
        np.testing.assert_array_equal(again.image, fwd.image)
        bwd_again = rasterize_backward_parallel(
            scene_args[0], scene_args[1], scene_args[2], scene_args[3],
            again, grad, background=bg, config=cfg,
        )
        for field in GRAD_FIELDS:
            np.testing.assert_array_equal(
                getattr(bwd_again, field), getattr(bwd, field)
            )
