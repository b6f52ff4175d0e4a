"""Retry-determinism matrix: a worker killed at any pipeline stage must
leave the retried render bit-identical to the fault-free one.

The supervised pool's retry is only sound because every task it carries
is a pure function of its payload. This matrix kills a worker at each
stage of the fragment pipeline (cull / pair build / composite), in the
forward and in the backward, then asserts the images and all gradient
arrays match the fault-free run bit for bit — not to a tolerance.
"""

import numpy as np
import pytest

from repro.faults import Fault, FaultPlan, active_plan
from repro.pool import raster_pool_fault_stats, shutdown_raster_pools
from repro.render import RasterConfig
from repro.render.fragment import (
    rasterize_backward_fragment,
    rasterize_fragment,
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


def kill_at(tmp_path, point, after=0):
    return FaultPlan(
        token_dir=str(tmp_path / "tokens"),
        faults=(Fault(point=point, action="kill", after=after),),
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
    """Kill one worker at each stage of the per-shard fragment pipeline,
    in the forward and in the backward."""

    CONFIG = RasterConfig(engine="fragment", workers=2, fragment_shards=4)

    @pytest.mark.parametrize("stage", STAGES)
    def test_kill_at_stage_bit_identical(
        self, scene_args, tmp_path, stage
    ):
        shutdown_raster_pools()  # fresh pool: deterministic kill placement
        clean = _frag_round_trip(scene_args, self.CONFIG)
        with active_plan(kill_at(tmp_path, stage)):
            faulted = _frag_round_trip(scene_args, self.CONFIG)
        assert raster_pool_fault_stats()["worker_deaths"] >= 1
        _assert_identical(clean, faulted)

    @pytest.mark.parametrize("stage", STAGES)
    def test_kill_in_backward_bit_identical(
        self, scene_args, tmp_path, stage
    ):
        """The backward rebuilds each shard through the same stages; the
        forward visits each stage once per shard, so ``after=4`` skips
        all of its visits and the kill lands in the backward."""
        shutdown_raster_pools()
        clean = _frag_round_trip(scene_args, self.CONFIG)
        with active_plan(kill_at(tmp_path, stage, after=4)):
            fwd = _frag_forward(scene_args, self.CONFIG)
            assert raster_pool_fault_stats()["worker_deaths"] == 0
            bwd = _frag_backward(scene_args, fwd, self.CONFIG)
        assert raster_pool_fault_stats()["worker_deaths"] == 1
        _assert_identical(clean, (fwd, bwd))


class TestPoolTaskMatrix:
    """Kill the worker holding each task slot of a fragment dispatch."""

    CONFIG = RasterConfig(engine="fragment", workers=2, fragment_shards=4)

    @pytest.mark.parametrize("index", [0, 3])
    def test_kill_at_task_index_bit_identical(
        self, scene_args, tmp_path, index
    ):
        shutdown_raster_pools()
        clean = _frag_round_trip(scene_args, self.CONFIG)
        plan = FaultPlan(
            token_dir=str(tmp_path / "tokens"),
            faults=(
                Fault(point="pool:task", action="kill", index=index),
            ),
        )
        with active_plan(plan):
            faulted = _frag_round_trip(scene_args, self.CONFIG)
        assert raster_pool_fault_stats()["worker_deaths"] >= 1
        _assert_identical(clean, faulted)
