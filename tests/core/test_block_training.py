"""Training never shows how many block threads rendered it.

Every system renders through the ``vectorized`` engine, whose forward
cuts a view into tile-row blocks on the process's block threads
(:func:`repro.pool.map_blocks`). These tests train each system with its
views cut into one block per tile row, on two and on three threads, and
assert that every step's loss and report and the final parameters equal
the one-thread run's, byte for byte — with the whole view rendered at
once, and split into regions. The CPU count is patched, so the threads
run on a 1-CPU machine too.
"""

import numpy as np
import pytest

from repro import pool
from repro.core import GSScaleConfig, create_system
from repro.core.config import SYSTEM_NAMES
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.render import engine

STEPS = 4

#: ``mem_limit`` of the two planners: the whole view, and regions.
MEM_LIMITS = {"whole": 1.0, "split": 0.05}

#: Every system on the whole view, and the ones that split a view
#: (GS-Scale's image splitting) on regions too.
CASES = [(system, "whole") for system in SYSTEM_NAMES] + [
    (system, "split") for system in SYSTEM_NAMES
    if system not in ("gpu_only", "baseline_offload")
]


@pytest.fixture(scope="module")
def scene():
    """Views six tile rows tall: with 64-cell blocks the forward cuts them
    into one block per tile row, two or more per thread on three."""
    return build_scene(
        SyntheticSceneConfig(
            num_points=200, width=40, height=96,
            num_train_cameras=4, num_test_cameras=1,
            altitude=12.0, seed=7,
        )
    )


def _train(scene, system, mem_limit, spill_dir):
    extra = (
        dict(resident_shards=1, spill_dir=spill_dir)
        if system == "outofcore" else {}
    )
    s = create_system(scene.initial.copy(), GSScaleConfig(
        system=system, scene_extent=scene.extent, ssim_lambda=0.2,
        mem_limit=mem_limit, seed=0, num_shards=2, **extra,
    ))
    reports = [
        s.step(scene.train_cameras[i % 4], scene.train_images[i % 4])
        for i in range(STEPS)
    ]
    s.finalize()
    params = np.asarray(s.materialized_model().params)
    return [
        (r.loss, r.l1, r.ssim, r.num_visible, r.num_regions) for r in reports
    ], params.tobytes()


@pytest.fixture(scope="module")
def inline_runs(scene, tmp_path_factory):
    """The one-thread run of each ``(system, planner)``, trained once."""
    runs = {}

    def get(system, planner):
        if (system, planner) not in runs:
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(engine, "BLOCK_CELLS", 64)
                patch.setattr(pool, "usable_cpus", lambda: 1)
                runs[system, planner] = _train(
                    scene, system, MEM_LIMITS[planner],
                    str(tmp_path_factory.mktemp("spill")),
                )
        return runs[system, planner]

    return get


class TestCpuCount:
    @pytest.mark.parametrize("cpus", [2, 3], ids=lambda c: f"cpus{c}")
    @pytest.mark.parametrize(
        "system, planner", CASES, ids=[f"{s}-{p}" for s, p in CASES]
    )
    def test_bit_identical_to_one_thread(
        self, scene, inline_runs, system, planner, cpus, tmp_path,
        monkeypatch,
    ):
        want = inline_runs(system, planner)
        cuts = []
        real_cut = engine._tile_row_blocks

        def cut(*args):
            out = real_cut(*args)
            cuts.append(len(out[0]) - 1)
            return out

        monkeypatch.setattr(engine, "_tile_row_blocks", cut)
        monkeypatch.setattr(engine, "BLOCK_CELLS", 64)
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        got = _train(scene, system, MEM_LIMITS[planner], str(tmp_path))
        # the views really were cut, two blocks or more per thread
        assert max(cuts) >= 2 * cpus
        if planner == "split":
            assert max(report[-1] for report in got[0]) >= 2
        assert got == want
