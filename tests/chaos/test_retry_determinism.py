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

A job killed between its own writes is the other fault: the checkpoint
must be the whole record of its progress, so whatever else the work
directory holds — a record left from before the last checkpoint, or no
checkpoint but its rotated ``.prev`` — a resumed job trains each step
once and ends on the uninterrupted run's checkpoint.

Equalities, not tolerances.
"""

import os

import pytest

from repro.core import GSScaleConfig
from repro.core.checkpoint import CheckpointReader
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.faults import Fault, FaultPlan, active_plan
from repro.pool import PersistentPool
from repro.recon import run_patch_job, train_patches
from repro.recon.jobs import build_specs
from repro.recon.partition import partition_scene

PATCHES = 2


@pytest.fixture(scope="module")
def patch_args():
    scene = build_scene(
        SyntheticSceneConfig(
            num_points=160, width=32, height=24, num_train_cameras=4,
            num_test_cameras=1, seed=3,
        )
    )
    patches = partition_scene(scene.initial, scene.train_cameras, PATCHES)
    assert len(patches) == PATCHES
    return (
        patches, scene.initial, scene.train_cameras, scene.train_images,
        GSScaleConfig(system="gpu_only"), 2,
    )


class TestPatchJobKillMatrix:
    """Kill the worker holding the first and the last task slot of a
    two-wide ``train_patches`` run."""

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


class TestKilledBetweenWrites:
    """A job with ``checkpoint_every=2`` killed at a point between its
    own writes, then resumed to 8 iterations, reports ``resumed`` and
    ends on the uninterrupted 8-step run's checkpoint, at iteration 8."""

    TARGET = 8

    @staticmethod
    def spec(patch_args, workdir, iterations, checkpoint_every):
        patches, model, cameras, images, config, _ = patch_args
        os.makedirs(workdir, exist_ok=True)
        return build_specs(
            patches, model, cameras, images, config, iterations,
            str(workdir), checkpoint_every=checkpoint_every,
        )[0]

    @staticmethod
    def read(path: str) -> bytes:
        with open(path, "rb") as fh:
            return fh.read()

    @pytest.fixture(scope="class")
    def straight(self, patch_args, tmp_path_factory):
        spec = self.spec(
            patch_args, tmp_path_factory.mktemp("straight"), self.TARGET, 0
        )
        assert run_patch_job(spec).status == "trained"
        return self.read(spec.checkpoint_path)

    def resume_and_compare(self, spec, straight):
        spec.iterations = self.TARGET
        result = run_patch_job(spec)
        assert result.status == "resumed"
        with CheckpointReader(spec.checkpoint_path) as reader:
            assert reader.iteration == self.TARGET
        assert self.read(spec.checkpoint_path) == straight

    def test_progress_record_older_than_the_checkpoint(
        self, patch_args, straight, tmp_path
    ):
        """Every work-directory file but the checkpoint archives is put
        back as it was after the iteration-2 snapshot, as if the job
        died after its iteration-4 checkpoint landed but before anything
        else recorded it."""
        spec = self.spec(patch_args, tmp_path, 2, checkpoint_every=2)
        assert run_patch_job(spec).status == "trained"

        def records():
            return {
                name: self.read(os.path.join(tmp_path, name))
                for name in os.listdir(tmp_path)
                if not name.endswith((".npz", ".npz.prev"))
            }

        after_two = records()
        spec.iterations = 4
        assert run_patch_job(spec).status == "resumed"
        for name in set(records()) - set(after_two):
            os.remove(os.path.join(tmp_path, name))
        for name, data in after_two.items():
            with open(os.path.join(tmp_path, name), "wb") as fh:
                fh.write(data)
        with CheckpointReader(spec.checkpoint_path) as reader:
            assert reader.iteration == 4
        self.resume_and_compare(spec, straight)

    def test_checkpoint_rotated_but_not_rewritten(
        self, patch_args, straight, tmp_path
    ):
        """A kill between the snapshot's rotation of the iteration-2
        checkpoint to ``.prev`` and the save of the iteration-4 one
        leaves only ``.prev``: the job resumes from it."""
        spec = self.spec(patch_args, tmp_path, 2, checkpoint_every=2)
        assert run_patch_job(spec).status == "trained"
        os.replace(spec.checkpoint_path, spec.checkpoint_path + ".prev")
        self.resume_and_compare(spec, straight)
