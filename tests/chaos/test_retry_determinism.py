"""Fault determinism matrix: a worker killed at a task slot leaves the
result bit-identical to the fault-free one.

The supervised process pool retries a map whose worker died; that is
only sound because every patch job is a pure function of its spec (a
sibling that finished before the kill skips on the retry, one that did
not re-trains from the same spec), so the checkpoints a faulted
``train_patches`` leaves must be byte-equal to a fault-free run's. (The
other fan-out, the block threads of the ``vectorized`` forward, is
checked where its faults land:
``tests/render/test_forward_blocks.py::TestFaults`` and
``::TestFaultMatrix``.)

Equalities, not tolerances.
"""

import pytest

from repro.core import GSScaleConfig
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.faults import Fault, FaultPlan, active_plan
from repro.pool import PersistentPool
from repro.recon import train_patches
from repro.recon.partition import partition_scene

PATCHES = 2


class TestPatchJobKillMatrix:
    """Kill the worker holding the first and the last task slot of a
    two-wide ``train_patches`` run."""

    @pytest.fixture(scope="class")
    def patch_args(self):
        scene = build_scene(
            SyntheticSceneConfig(
                num_points=160, width=32, height=24, num_train_cameras=4,
                num_test_cameras=1, seed=3,
            )
        )
        patches = partition_scene(
            scene.initial, scene.train_cameras, PATCHES
        )
        assert len(patches) == PATCHES
        return (
            patches, scene.initial, scene.train_cameras, scene.train_images,
            GSScaleConfig(system="gpu_only"), 2,
        )

    @staticmethod
    def checkpoints(report) -> list[bytes]:
        assert report.all_done
        out = []
        for path in report.checkpoint_paths():
            with open(path, "rb") as fh:
                out.append(fh.read())
        return out

    @pytest.fixture(scope="class")
    def clean(self, patch_args, tmp_path_factory):
        workdir = str(tmp_path_factory.mktemp("clean"))
        return self.checkpoints(train_patches(*patch_args, workdir, jobs=2))

    @pytest.mark.parametrize("index", [0, PATCHES - 1])
    def test_kill_at_task_slot_leaves_equal_checkpoints(
        self, patch_args, clean, tmp_path, index
    ):
        plan = FaultPlan(
            token_dir=str(tmp_path / "tokens"),
            faults=(Fault(point="pool:task", action="kill", index=index),),
        )
        workers = PersistentPool(2)
        try:
            with active_plan(plan):
                report = train_patches(
                    *patch_args, str(tmp_path / "run"), jobs=2, pool=workers
                )
            assert workers.fault_stats()["worker_deaths"] >= 1
        finally:
            workers.close()
        faulted = self.checkpoints(report)
        assert len(faulted) == len(clean) == PATCHES
        for a, b in zip(clean, faulted):
            assert a == b
