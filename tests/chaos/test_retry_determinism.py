"""Fault determinism matrix: a worker killed at any task slot leaves the
next result bit-identical to the fault-free one.

The render farm's supervised process pool retries a batch whose worker
died; that is only sound because every frame task is a pure function of
its payload, so a worker killed at a task slot must leave the retried
batch bit-identical. (The other fan-out, the block threads of the
``vectorized`` forward, is checked where its faults land:
``tests/render/test_forward_blocks.py::TestFaults`` and
``::TestFaultMatrix``.)

Equalities, not tolerances.
"""

import pytest

from repro.datasets import SyntheticSceneConfig, build_scene
from repro.faults import Fault, FaultPlan, active_plan
from repro.pool import raster_pool_fault_stats, shutdown_raster_pools
from repro.serve import (
    FrameTask,
    InMemoryServingStore,
    RenderFarm,
    default_serve_raster_config,
)


@pytest.fixture(scope="module", autouse=True)
def _reap_pools():
    yield
    shutdown_raster_pools()


class TestPoolTaskMatrix:
    """Kill the farm worker holding each task slot of a 4-frame batch."""

    @pytest.fixture(scope="class")
    def farm_batch(self):
        scene = build_scene(
            SyntheticSceneConfig(
                num_points=180, width=32, height=24,
                num_train_cameras=4, num_test_cameras=1,
                altitude=12.0, seed=9,
            )
        )
        config = default_serve_raster_config()
        tasks = [
            FrameTask(camera=cam, lod=0, sh_degree=3, config=config)
            for cam in scene.train_cameras
        ]
        return InMemoryServingStore.from_model(scene.oracle), tasks

    @pytest.mark.parametrize("index", [0, 3])
    def test_kill_at_task_index_bit_identical(
        self, farm_batch, tmp_path, index
    ):
        store, tasks = farm_batch
        shutdown_raster_pools()
        farm = RenderFarm(workers=2)
        farm.publish(store, None)
        try:
            clean = farm.render_batch(tasks)
            plan = FaultPlan(
                token_dir=str(tmp_path / "tokens"),
                faults=(
                    Fault(point="pool:task", action="kill", index=index),
                ),
            )
            with active_plan(plan):
                faulted = farm.render_batch(tasks)
            assert raster_pool_fault_stats()["worker_deaths"] >= 1
        finally:
            farm.close()
        assert len(faulted) == len(clean) == 4
        for a, b in zip(clean, faulted):
            assert a.tobytes() == b.tobytes()
