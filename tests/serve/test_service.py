"""RenderService acceptance tests.

The PR acceptance bar lives here: a synthetic 100-request trace at full
LOD is served bit-identical to direct ``render/pipeline.py`` calls, and
the DiskStore-style paged service stays under its host byte budget
(tracker-verified) while serving a model larger than the budget.
"""

import os

import numpy as np
import pytest

from repro.cameras import trajectories
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import layout
from repro.render import render
from repro.serve import (
    LODSet,
    PagedServingStore,
    RenderRequest,
    RenderService,
    default_serve_raster_config,
    requests_from_cameras,
)


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=220, width=36, height=28,
            num_train_cameras=5, num_test_cameras=2,
            altitude=12.0, seed=7,
        )
    )


@pytest.fixture(scope="module")
def trace_cameras(scene):
    """100 client poses: an orbit session plus a walkthrough session."""
    center = np.zeros(3)
    orbit = trajectories.orbit(
        center, radius=12.0, height=8.0, num_cameras=50,
        width=36, height_px=28,
    )
    walk = trajectories.walkthrough(
        np.array([[-8.0, -8.0, 6.0], [8.0, -8.0, 6.0], [8.0, 8.0, 6.0]]),
        num_cameras=50, width=36, height_px=28,
    )
    return orbit + walk


class TestBitIdentity:
    def test_100_request_trace_matches_direct_pipeline(
        self, scene, trace_cameras
    ):
        """Acceptance: full-LOD serving == direct render(), bit for bit."""
        model = scene.oracle
        config = default_serve_raster_config()
        service = RenderService(model, cache_bytes=0)
        responses = service.serve(requests_from_cameras(trace_cameras))
        assert len(responses) == 100
        for cam, resp in zip(trace_cameras, responses):
            direct = render(model, cam, config=config).image
            assert np.array_equal(resp.image, direct)
        assert service.stats.frames_rendered == 100
        service.close()

    def test_paged_service_matches_and_stays_under_budget(
        self, scene, trace_cameras
    ):
        """Acceptance: a paged model larger than the host budget serves
        the same bytes while the capacity-capped tracker enforces the
        budget."""
        model = scene.oracle
        n = model.num_gaussians
        budget = layout.param_bytes(n, layout.GEOMETRIC_DIM) + (
            layout.param_bytes(-(-n // 4), layout.NON_GEOMETRIC_DIM)
        )
        store = PagedServingStore.from_model(model, budget, num_shards=4)
        assert store.model_bytes > budget
        config = default_serve_raster_config()
        service = RenderService(store, cache_bytes=0)
        for cam in trace_cameras[:20]:
            resp = service.render(RenderRequest(camera=cam))
            assert np.array_equal(resp.image, render(model, cam, config=config).image)
            assert store.host_memory.live_bytes <= budget
        assert store.host_memory.peak_bytes <= budget
        assert store.ledger.page_in_count > 0
        service.close()


class TestBatching:
    def test_identical_requests_render_once(self, scene):
        cam = scene.train_cameras[0]
        service = RenderService(scene.oracle, cache_bytes=0)
        for _ in range(5):
            service.submit(RenderRequest(camera=cam))
        responses = service.tick()
        assert len(responses) == 5
        assert service.stats.frames_rendered == 1
        assert service.stats.deduped == 4
        assert all(np.array_equal(r.image, responses[0].image) for r in responses)
        assert all(r.batch_size == 1 for r in responses)
        service.close()

    def test_mixed_batch_keeps_submission_order(self, scene):
        service = RenderService(scene.oracle, cache_bytes=0)
        cams = scene.train_cameras[:3]
        for cam in cams + cams:  # each pose twice
            service.submit(RenderRequest(camera=cam))
        responses = service.tick()
        assert service.stats.frames_rendered == 3
        for i, resp in enumerate(responses):
            assert resp.request.camera is cams[i % 3]
            assert np.array_equal(resp.image, responses[i % 3].image)
        service.close()

    def test_empty_tick(self, scene):
        service = RenderService(scene.oracle)
        assert service.tick() == []
        service.close()

    def test_cache_serves_second_trace(self, scene):
        service = RenderService(scene.oracle)
        cams = scene.train_cameras
        first = service.serve(requests_from_cameras(cams))
        second = service.serve(requests_from_cameras(cams))
        assert all(not r.cache_hit for r in first)
        assert all(r.cache_hit for r in second)
        assert service.stats.frames_rendered == len(cams)
        for a, b in zip(first, second):
            assert np.array_equal(a.image, b.image)
        service.close()


class TestRequestModel:
    def test_size_override_scales_intrinsics(self, scene):
        cam = scene.train_cameras[0]
        req = RenderRequest(camera=cam, width=cam.width * 2, height=cam.height)
        resolved = req.resolved_camera()
        assert resolved.width == cam.width * 2
        assert resolved.fx == pytest.approx(cam.fx * 2)
        assert resolved.fy == pytest.approx(cam.fy)
        service = RenderService(scene.oracle, cache_bytes=0)
        resp = service.render(req)
        assert resp.image.shape == (cam.height, cam.width * 2, 3)
        service.close()

    def test_same_pose_different_size_are_distinct_frames(self, scene):
        cam = scene.train_cameras[0]
        service = RenderService(scene.oracle)
        service.submit(RenderRequest(camera=cam))
        service.submit(RenderRequest(camera=cam, width=18, height=14))
        responses = service.tick()
        assert service.stats.frames_rendered == 2
        assert responses[0].image.shape != responses[1].image.shape
        service.close()

    def test_invalid_lod_rejected(self, scene):
        service = RenderService(scene.oracle)  # no LOD set: only lod 0
        with pytest.raises(ValueError, match="lod"):
            service.submit(RenderRequest(camera=scene.train_cameras[0], lod=1))
        lod_set = LODSet.build(scene.oracle.params)
        service2 = RenderService(scene.oracle, lod_set=lod_set)
        with pytest.raises(ValueError, match="lod"):
            service2.submit(
                RenderRequest(camera=scene.train_cameras[0], lod=lod_set.num_levels)
            )
        service.close()
        service2.close()

    def test_invalid_size_rejected(self, scene):
        service = RenderService(scene.oracle)
        with pytest.raises(ValueError, match="size"):
            service.submit(RenderRequest(camera=scene.train_cameras[0], width=0))
        service.close()

    def test_lod_levels_serve_reduced_detail(self, scene):
        model = scene.oracle
        lod_set = LODSet.build(model.params)
        service = RenderService(model, lod_set=lod_set, cache_bytes=0)
        cam = scene.train_cameras[0]
        full = service.render(RenderRequest(camera=cam, lod=0)).image
        coarse = service.render(
            RenderRequest(camera=cam, lod=lod_set.num_levels - 1)
        ).image
        assert full.shape == coarse.shape
        assert not np.array_equal(full, coarse)
        # full LOD through the service is still the direct pipeline
        direct = render(model, cam, config=service.config).image
        assert np.array_equal(full, direct)
        service.close()


class TestHotSwap:
    def test_swap_flushes_cache_and_never_serves_stale(self, scene):
        """Satellite acceptance: a model hot-swap must flush the
        pose-keyed cache — bit-compare pre/post-swap responses."""
        model_a = scene.oracle
        model_b = scene.initial  # genuinely different parameters
        config = default_serve_raster_config()
        service = RenderService(model_a)
        cams = scene.train_cameras
        pre = service.serve(requests_from_cameras(cams))
        warm = service.serve(requests_from_cameras(cams))
        assert all(r.cache_hit for r in warm)  # the cache is hot pre-swap

        service.swap_model(model_b)
        assert len(service.cache) == 0  # eager flush, bytes reclaimed
        post = service.serve(requests_from_cameras(cams))
        for cam, before, after in zip(cams, pre, post):
            assert not after.cache_hit  # nothing served from the old model
            assert np.array_equal(
                after.image, render(model_b, cam, config=config).image
            )
            assert not np.array_equal(after.image, before.image)
        assert service.stats.model_swaps == 1
        service.close()

    def test_swap_bumps_version_even_without_cache(self, scene):
        service = RenderService(scene.oracle, cache_bytes=0)
        v0 = service.model_version
        service.swap_model(scene.initial)
        assert service.model_version == v0 + 1
        service.close()

    def test_swap_to_shorter_lod_ladder_clamps_queued_requests(self, scene):
        """A hot swap must not drop (or crash on) requests validated
        against the old, taller LOD ladder — they clamp to the new
        coarsest level."""
        tall = LODSet.build(scene.oracle.params)
        service = RenderService(scene.oracle, lod_set=tall)
        service.submit(RenderRequest(camera=scene.train_cameras[0], lod=3))
        service.submit(RenderRequest(camera=scene.train_cameras[1], lod=0))
        service.swap_model(scene.oracle.copy(), lod_set=None)  # 1 level now
        responses = service.tick()
        assert len(responses) == 2
        assert responses[0].lod == 0  # clamped, served, not lost
        assert responses[1].lod == 0
        service.close()


def _paged(model):
    """A paged store of ``model`` whose budget holds a quarter of its SH."""
    n = model.num_gaussians
    budget = layout.param_bytes(n, layout.GEOMETRIC_DIM) + (
        layout.param_bytes(-(-n // 4), layout.NON_GEOMETRIC_DIM)
    )
    return PagedServingStore.from_model(model, budget, num_shards=4), budget


class TestHotSwapAcrossStores:
    """A hot swap may change the kind of store as well as the model: the
    service serves the new store's model, within its budget when paged,
    and releases the old store's pages."""

    def test_swap_to_a_paged_store_serves_it_under_budget(self, scene):
        config = default_serve_raster_config()
        cams = scene.train_cameras[:2]
        service = RenderService(scene.oracle)
        service.serve(requests_from_cameras(cams))
        paged, budget = _paged(scene.initial)
        service.swap_model(paged)
        assert service.store is paged
        post = service.serve(requests_from_cameras(cams))
        for cam, resp in zip(cams, post):
            assert resp.ok and not resp.cache_hit
            assert np.array_equal(
                resp.image, render(scene.initial, cam, config=config).image
            )
        assert paged.host_memory.peak_bytes <= budget
        assert paged.ledger.page_in_count > 0
        service.close()

    def test_swap_from_a_paged_store_releases_its_pages(self, scene):
        config = default_serve_raster_config()
        cam = scene.train_cameras[0]
        paged, _ = _paged(scene.oracle)
        service = RenderService(paged, cache_bytes=0)
        before = service.render(RenderRequest(camera=cam))
        shards = paged.host_memory.live_by_category
        assert shards()["serve_resident_shards"] > 0
        service.swap_model(scene.initial)
        # closed: every shard spilled and the page files removed
        assert shards().get("serve_resident_shards", 0) == 0
        assert not os.path.exists(paged.page_dir)
        after = service.render(RenderRequest(camera=cam))
        assert np.array_equal(
            after.image, render(scene.initial, cam, config=config).image
        )
        assert not np.array_equal(after.image, before.image)
        assert service.stats.model_swaps == 1
        service.close()


class TestResponseIntegrity:
    def test_render_returns_the_submitted_request(self, scene):
        """render() must answer *its* request, not the oldest queued one."""
        service = RenderService(scene.oracle, cache_bytes=0)
        first = RenderRequest(camera=scene.train_cameras[0])
        second = RenderRequest(camera=scene.train_cameras[1])
        service.submit(first)
        resp = service.render(second)
        assert resp.request is second
        service.close()

    def test_client_cannot_poison_the_cache(self, scene):
        """The miss response aliases the cached buffer, so it must be
        frozen: a client mutation raises instead of corrupting hits."""
        service = RenderService(scene.oracle)
        cam = scene.train_cameras[0]
        miss = service.render(RenderRequest(camera=cam))
        with pytest.raises(ValueError):
            miss.image[0, 0, 0] = 123.0
        hit = service.render(RenderRequest(camera=cam))
        assert hit.cache_hit
        direct = render(scene.oracle, cam, config=service.config).image
        assert np.array_equal(hit.image, direct)
        service.close()
