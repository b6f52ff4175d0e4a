"""The serving render path (``repro.serve.farm``): a frame renders the same
bytes in a pool worker as in the serving process, depends on its store
and task alone, and a store served without a LOD array serves every level
at full detail."""

import numpy as np
import pytest

from repro.datasets import SyntheticSceneConfig, build_scene
from repro import pool
from repro.pool import PersistentPool
from repro.render import RasterConfig, engine
from repro.serve import (
    FrameTask,
    InMemoryServingStore,
    LODSet,
    default_serve_raster_config,
    render_frame,
    render_frames,
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


def _frame_in_worker(args):
    """Pool task: one frame, and the block threads the worker fans to."""
    store, drop_level, task = args
    return pool.block_threads(), render_frame(store, drop_level, task)


class TestRenderFrame:
    def test_block_frames_render_in_a_pool_worker(self, monkeypatch):
        """A pool worker runs a frame's tile-row blocks inline: it must
        not wait on threads or a pool of its own (a worker holds the fork
        guard it inherited, so a nested pool never starts). The views are
        four tile rows tall and the blocks 64 cells, so the serving
        process cuts them into blocks on two threads; the workers inherit
        the patched block size. The pool gets a deadline and no retry, so
        a hang fails instead of wedging the run."""
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
        inline = [render_frame(store, None, task) for task in tasks]
        workers = PersistentPool(2, task_timeout=30.0, max_retries=0)
        try:
            pooled = workers.map(
                _frame_in_worker, [(store, None, task) for task in tasks]
            )
        finally:
            workers.close()
        assert len(pooled) == len(tasks)
        for image, (threads, pooled_image) in zip(inline, pooled):
            assert threads == 1
            assert image.tobytes() == pooled_image.tobytes()

    def test_lod_batch_renders_the_same_in_a_pool_worker(self, scene):
        """A batch across every LOD level, rendered inline by
        :func:`render_frames`, equals the same frames rendered one per
        task in pool workers, which get the store and the level array
        pickled: nothing a frame reads lives only in the serving
        process."""
        store = InMemoryServingStore.from_model(scene.oracle)
        lod_set = LODSet.build(scene.oracle.params)
        config = default_serve_raster_config()
        tasks = [
            FrameTask(
                camera=cam, lod=i % lod_set.num_levels,
                sh_degree=lod_set.sh_degree(i % lod_set.num_levels),
                config=config,
            )
            for i, cam in enumerate(scene.train_cameras)
        ]
        inline = render_frames(store, lod_set.drop_level, tasks)
        workers = PersistentPool(2, task_timeout=30.0, max_retries=0)
        try:
            pooled = workers.map(
                _frame_in_worker,
                [(store, lod_set.drop_level, task) for task in tasks],
            )
        finally:
            workers.close()
        assert len(pooled) == len(inline) == len(tasks)
        for image, (_, pooled_image) in zip(inline, pooled):
            assert image.tobytes() == pooled_image.tobytes()

    def test_frames_follow_the_store_they_are_given(self, scene):
        """A frame is a function of its store and task alone: a second
        model's store renders other bytes, and the first store renders
        its own bytes again after it."""
        task = FrameTask(
            camera=scene.train_cameras[0], lod=0, sh_degree=3,
            config=default_serve_raster_config(),
        )
        oracle = InMemoryServingStore.from_model(scene.oracle)
        initial = InMemoryServingStore.from_model(scene.initial)
        before = render_frame(oracle, None, task)
        other = render_frame(initial, None, task)
        again = render_frame(oracle, None, task)
        assert not np.array_equal(before, other)
        assert before.tobytes() == again.tobytes()

    def test_no_drop_level_serves_full_detail_at_any_lod(self, scene):
        """``drop_level=None`` means no LOD filtering: a task with lod >= 1
        must still render every splat, not a blank frame."""
        store = InMemoryServingStore.from_model(scene.oracle)
        config = default_serve_raster_config()
        cam = scene.train_cameras[0]
        full, coarse_lod = render_frames(
            store,
            None,
            [
                FrameTask(camera=cam, lod=lod, sh_degree=3, config=config)
                for lod in (0, 2)
            ],
        )
        assert full.any()
        assert np.array_equal(full, coarse_lod)
