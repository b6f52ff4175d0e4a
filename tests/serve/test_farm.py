"""Render-farm tests: pooled frames are bit-identical to inline frames."""

import numpy as np
import pytest

from repro.datasets import SyntheticSceneConfig, build_scene
from repro import pool
from repro.pool import get_raster_pool, shutdown_raster_pools
from repro.render import RasterConfig, engine
from repro.serve import (
    FrameTask,
    InMemoryServingStore,
    LODSet,
    RenderFarm,
    default_serve_raster_config,
)


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=180, width=32, height=24,
            num_train_cameras=4, num_test_cameras=2,
            altitude=12.0, seed=9,
        )
    )


def make_tasks(scene, lod_set):
    config = default_serve_raster_config()
    return [
        FrameTask(
            camera=cam, lod=i % lod_set.num_levels,
            sh_degree=lod_set.sh_degree(i % lod_set.num_levels),
            config=config,
        )
        for i, cam in enumerate(scene.train_cameras)
    ]


class TestRenderFarm:
    def test_pooled_batch_bit_identical_to_inline(self, scene):
        store = InMemoryServingStore.from_model(scene.oracle)
        lod_set = LODSet.build(scene.oracle.params)
        tasks = make_tasks(scene, lod_set)
        inline = RenderFarm(workers=0)
        inline.publish(store, lod_set.drop_level)
        pooled = RenderFarm(workers=2)
        pooled.publish(store, lod_set.drop_level)
        try:
            a = inline.render_batch(tasks)
            b = pooled.render_batch(tasks)
            assert len(a) == len(b) == len(tasks)
            for x, y in zip(a, b):
                assert np.array_equal(x, y)
        finally:
            inline.close()
            pooled.close()
            shutdown_raster_pools()

    def test_block_frames_render_in_the_workers(self, monkeypatch):
        """A worker runs a frame's tile-row blocks inline: it must not
        wait on threads or a pool of its own (a worker holds the fork
        guard it inherited, so a nested pool never starts). The views are
        four tile rows tall and the blocks 64 cells, so the inline farm's
        process cuts them into blocks on two threads; the workers inherit
        the patched block size. The shared pool gets a deadline and no
        retry, so a hang fails instead of wedging the run."""
        monkeypatch.setattr(engine, "BLOCK_CELLS", 64)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        tall = build_scene(
            SyntheticSceneConfig(
                num_points=180, width=32, height=64,
                num_train_cameras=4, num_test_cameras=1,
                altitude=12.0, seed=9,
            )
        )
        store = InMemoryServingStore.from_model(tall.oracle)
        config = RasterConfig(engine="vectorized")
        tasks = [
            FrameTask(camera=cam, lod=0, sh_degree=3, config=config)
            for cam in tall.train_cameras
        ]
        inline = RenderFarm(workers=1)
        inline.publish(store, None)
        pooled = RenderFarm(workers=2)
        pooled.publish(store, None)
        shutdown_raster_pools()
        shared = get_raster_pool(2)
        shared.task_timeout, shared.max_retries = 30.0, 0
        try:
            a = inline.render_batch(tasks)
            b = pooled.render_batch(tasks)
            assert len(a) == len(b) == len(tasks)
            for x, y in zip(a, b):
                assert x.tobytes() == y.tobytes()
        finally:
            inline.close()
            pooled.close()
            shutdown_raster_pools()

    def test_single_task_runs_inline(self, scene):
        store = InMemoryServingStore.from_model(scene.oracle)
        lod_set = LODSet.build(scene.oracle.params)
        farm = RenderFarm(workers=2)
        farm.publish(store, lod_set.drop_level)
        try:
            # one task short-circuits to the in-process path — no pool spin-up
            images = farm.render_batch(make_tasks(scene, lod_set)[:1])
            assert len(images) == 1
        finally:
            farm.close()

    def test_unpublished_farm_rejects_batches(self, scene):
        farm = RenderFarm(workers=0)
        with pytest.raises(RuntimeError, match="publish"):
            farm.render_batch([])
        farm.close()

    def test_republish_swaps_served_bytes(self, scene):
        lod_set = LODSet.build(scene.oracle.params)
        task = make_tasks(scene, lod_set)[:1]
        farm = RenderFarm(workers=0)
        farm.publish(InMemoryServingStore.from_model(scene.oracle), None)
        before = farm.render_batch(task)[0]
        farm.publish(InMemoryServingStore.from_model(scene.initial), None)
        after = farm.render_batch(task)[0]
        assert not np.array_equal(before, after)
        farm.close()
        assert not farm.published

    def test_no_drop_level_serves_full_detail_at_any_lod(self, scene):
        """publish(store, None) means no LOD filtering: a task with
        lod >= 1 must still render every splat, not a blank frame."""
        store = InMemoryServingStore.from_model(scene.oracle)
        config = default_serve_raster_config()
        farm = RenderFarm(workers=0)
        farm.publish(store, None)
        cam = scene.train_cameras[0]
        full = farm.render_batch(
            [FrameTask(camera=cam, lod=0, sh_degree=3, config=config)]
        )[0]
        coarse_lod = farm.render_batch(
            [FrameTask(camera=cam, lod=2, sh_degree=3, config=config)]
        )[0]
        assert np.array_equal(full, coarse_lod)
        farm.close()

    def test_close_is_idempotent(self, scene):
        farm = RenderFarm(workers=2)
        farm.publish(InMemoryServingStore.from_model(scene.oracle), None)
        farm.close()
        farm.close()
