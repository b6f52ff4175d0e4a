"""Fault determinism matrices: a fault at any stage leaves the next
result bit-identical to the fault-free one.

Two fan-outs carry a render across cores, and each is checked where its
faults land:

* the render farm's supervised process pool — its retry is only sound
  because every frame task is a pure function of its payload, so a worker
  killed at a task slot must leave the retried batch bit-identical;
* the block threads the ``fragment`` engine runs its shard slices on —
  an exception raised at a pipeline stage (cull / pair build / composite),
  in the forward or in the backward, re-raises in the caller and leaves
  the threads usable, so the next render is bit-identical; a delayed
  slice changes nothing but the time.

Equalities, not tolerances. The CPU count is patched to 2, so the slices
run on two threads on a 1-CPU machine too.
"""

import numpy as np
import pytest

from repro import pool
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.faults import Fault, FaultPlan, InjectedFaultError, active_plan
from repro.pool import raster_pool_fault_stats, shutdown_raster_pools
from repro.render import RasterConfig
from repro.render.fragment import (
    rasterize_backward_fragment,
    rasterize_fragment,
)
from repro.serve import (
    FrameTask,
    InMemoryServingStore,
    RenderFarm,
    default_serve_raster_config,
)

GRAD_FIELDS = ("means2d", "conics", "colors", "opacities", "mean2d_abs")
W, H = 64, 48
BG = np.array([0.3, 0.1, 0.5])


@pytest.fixture(scope="module", autouse=True)
def _reap_pools():
    yield
    shutdown_raster_pools()


@pytest.fixture(scope="module")
def scene_args():
    """Random anisotropic splats, many partially off-screen."""
    rng = np.random.default_rng(7)
    n = 250
    means2d = rng.uniform([-6, -6], [W + 6, H + 6], size=(n, 2))
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
    opacities = rng.uniform(0.05, 1.0, size=n)
    depths = rng.uniform(1, 30, size=n)
    radii = 3 * np.maximum(sx, sy)
    return means2d, conics, colors, opacities, depths, radii


def fault_at(tmp_path, point, action, after=0, **kw):
    return FaultPlan(
        token_dir=str(tmp_path / "tokens"),
        faults=(Fault(point=point, action=action, after=after, **kw),),
    )


def _frag_forward(scene_args, config):
    return rasterize_fragment(
        *scene_args, width=W, height=H, background=BG, config=config
    )


def _frag_backward(scene_args, fwd, config):
    grad_image = np.random.default_rng(5).normal(size=(H, W, 3))
    return rasterize_backward_fragment(
        scene_args[0], scene_args[1], scene_args[2], scene_args[3],
        fwd, grad_image, background=BG, config=config,
    )


def _frag_round_trip(scene_args, config):
    fwd = _frag_forward(scene_args, config)
    return fwd, _frag_backward(scene_args, fwd, config)


def _assert_identical(a, b):
    (fwd_a, bwd_a), (fwd_b, bwd_b) = a, b
    np.testing.assert_array_equal(fwd_a.image, fwd_b.image)
    np.testing.assert_array_equal(
        fwd_a.final_transmittance, fwd_b.final_transmittance
    )
    for field in GRAD_FIELDS:
        np.testing.assert_array_equal(
            getattr(bwd_a, field), getattr(bwd_b, field), err_msg=field
        )


STAGES = ["fragment:cull", "fragment:pairs", "fragment:composite"]


class TestFragmentStageMatrix:
    """A fault at each stage of the per-shard fragment pipeline, on the
    block threads, in the forward and in the backward."""

    CONFIG = RasterConfig(engine="fragment", fragment_shards=4)

    @pytest.fixture(autouse=True)
    def _two_threads(self, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)

    @pytest.mark.parametrize("stage", STAGES)
    def test_raise_at_stage_then_bit_identical(
        self, scene_args, tmp_path, stage
    ):
        clean = _frag_round_trip(scene_args, self.CONFIG)
        with active_plan(fault_at(tmp_path, stage, "raise")):
            with pytest.raises(InjectedFaultError, match=stage):
                _frag_forward(scene_args, self.CONFIG)
        _assert_identical(clean, _frag_round_trip(scene_args, self.CONFIG))

    @pytest.mark.parametrize("stage", STAGES)
    def test_raise_in_backward_then_bit_identical(
        self, scene_args, tmp_path, stage
    ):
        """The backward rebuilds each shard through the same stages; the
        forward visits each stage once per shard, so ``after=4`` skips
        all of its visits and the fault lands in the backward."""
        clean = _frag_round_trip(scene_args, self.CONFIG)
        with active_plan(fault_at(tmp_path, stage, "raise", after=4)):
            fwd = _frag_forward(scene_args, self.CONFIG)
            with pytest.raises(InjectedFaultError, match=stage):
                _frag_backward(scene_args, fwd, self.CONFIG)
        _assert_identical(
            clean, (fwd, _frag_backward(scene_args, fwd, self.CONFIG))
        )

    @pytest.mark.parametrize("stage", STAGES)
    def test_delay_at_stage_bit_identical(self, scene_args, tmp_path, stage):
        """Two slices held back, one in each pass: the other thread runs
        ahead, and the merge still reduces in slice order."""
        clean = _frag_round_trip(scene_args, self.CONFIG)
        plan = FaultPlan(
            token_dir=str(tmp_path / "tokens"),
            faults=(
                Fault(point=stage, action="delay", seconds=0.05),
                Fault(point=stage, action="delay", seconds=0.05, after=4),
            ),
        )
        with active_plan(plan):
            delayed = _frag_round_trip(scene_args, self.CONFIG)
        _assert_identical(clean, delayed)


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
