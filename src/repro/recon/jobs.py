"""Patch training jobs: independent Trainer runs on the persistent pool.

Each patch of a partitioned capture trains as one ordinary
:class:`~repro.core.trainer.Trainer` run over its buffered Gaussians and
assigned views, fanned out over the :class:`~repro.pool.PersistentPool`
process machinery. A job is restartable by construction: it checkpoints
every ``checkpoint_every`` iterations (format-v2, the same
:func:`~repro.core.checkpoint.save_checkpoint` a monolithic run uses),
and that checkpoint is the one record of how far it got. Its header's
``iteration`` and ``num_gaussians`` are read the same way by the driver
and by the worker (:class:`~repro.core.checkpoint.CheckpointReader`):

* a patch with no rows is ``empty`` and has no file;
* a patch whose readable checkpoint is at its iteration target is
  ``skipped`` (the driver never even pickles its spec);
* any other patch reloads the newer readable of ``patch{k}.npz`` and its
  rotated ``patch{k}.npz.prev`` and continues the same deterministic
  schedule from the checkpoint's own iteration counter, via
  ``Trainer.train(start_iteration=...)`` — or trains from its initial
  rows when neither reads.

So a killed farm run is resumed simply by calling :func:`train_patches`
again with the same work directory: completed patches cost one header
read, the interrupted one picks up from its last checkpoint, and no step
is trained twice.

Failures are contained: a job that raises reports ``status="failed"``
with the exception text instead of poisoning the pool, and the driver
surfaces every failure in its :class:`PatchRunReport`.

Checkpoints are crash-safe end to end: saves are atomic and the previous
checkpoint is rotated to ``<path>.prev`` first, so a save torn by a
mid-write crash (:class:`~repro.core.integrity.CorruptCheckpointError`
on the next read), or a kill between the rotation and the save, costs
one chunk of progress, not the patch.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..cameras.camera import Camera
from ..core.checkpoint import (
    CheckpointReader,
    load_checkpoint,
    save_checkpoint,
)
from ..core.config import GSScaleConfig
from ..core.integrity import CorruptCheckpointError
from ..core.trainer import Trainer
from ..gaussians import GaussianModel
from ..pool import PersistentPool
from .partition import ScenePatch

__all__ = [
    "PatchJobResult",
    "PatchJobSpec",
    "PatchRunReport",
    "run_patch_job",
    "train_patches",
]


@dataclass
class PatchJobSpec:
    """Everything one worker needs to train (or resume) a patch.

    Self-contained and picklable: the parameter subset, the patch's
    views, and the path its checkpoint lives at.
    """

    index: int
    params: np.ndarray
    cameras: list[Camera]
    images: list[np.ndarray]
    iterations: int
    config: GSScaleConfig
    checkpoint_path: str
    checkpoint_every: int = 0  # 0: checkpoint only on completion


@dataclass
class PatchJobResult:
    """Outcome of one patch job (or read off the checkpoint of a patch
    with nothing left to train)."""

    index: int
    status: str  # "trained" | "resumed" | "skipped" | "empty" | "failed"
    iterations_done: int
    num_gaussians: int
    checkpoint_path: str
    error: str = ""

    @property
    def ok(self) -> bool:
        """Whether the patch reached its iteration target."""
        return self.status != "failed"


@dataclass
class PatchRunReport:
    """Per-patch outcomes of one :func:`train_patches` call."""

    results: list[PatchJobResult] = field(default_factory=list)

    @property
    def failed(self) -> list[PatchJobResult]:
        """Jobs that did not reach their target."""
        return [r for r in self.results if not r.ok]

    @property
    def all_done(self) -> bool:
        """Whether every patch reached its iteration target."""
        return not self.failed

    def checkpoint_paths(self) -> list[str]:
        """Checkpoints of the non-empty patches, in patch order."""
        return [
            r.checkpoint_path
            for r in self.results
            if r.status != "empty" and r.checkpoint_path
        ]


def _progress(path: str) -> tuple[int, int] | None:
    """``(iteration, num_gaussians)`` of the checkpoint at ``path``, or
    ``None`` when there is no readable one."""
    if not os.path.exists(path):
        return None
    try:
        with CheckpointReader(path) as reader:
            return reader.iteration, reader.num_gaussians
    except (CorruptCheckpointError, ValueError):
        return None


def _finished(spec: PatchJobSpec) -> PatchJobResult | None:
    """The result of a patch with nothing left to train — ``empty`` (no
    rows) or ``skipped`` (a readable checkpoint at its iteration
    target) — or ``None`` when it has work left."""
    if spec.params.shape[0] == 0:
        return PatchJobResult(spec.index, "empty", 0, 0, "")
    progress = _progress(spec.checkpoint_path)
    if progress is None or progress[0] < spec.iterations:
        return None
    return PatchJobResult(
        spec.index, "skipped", *progress, spec.checkpoint_path
    )


def run_patch_job(spec: PatchJobSpec) -> PatchJobResult:
    """Train one patch to its iteration target, resuming if partial.

    Runs in a pool worker (top-level, picklable). Exceptions are folded
    into a ``failed`` result so sibling jobs keep running.
    """
    try:
        return _run_patch_job(spec)
    except Exception as exc:  # noqa: BLE001 - job isolation boundary
        return PatchJobResult(
            index=spec.index,
            status="failed",
            iterations_done=0,
            num_gaussians=int(spec.params.shape[0]),
            checkpoint_path=spec.checkpoint_path,
            error=f"{type(exc).__name__}: {exc}",
        )


def _resume(spec: PatchJobSpec) -> tuple[Trainer, str]:
    """A trainer for the patch and its status: ``resumed`` from the newer
    readable of its checkpoint and the rotated ``.prev`` (a torn save or
    a kill between the rotation and the save leaves only the latter),
    else ``trained`` from the patch's initial rows."""
    for path in (spec.checkpoint_path, spec.checkpoint_path + ".prev"):
        if not os.path.exists(path):
            continue
        trainer = Trainer(GaussianModel(spec.params), spec.config)
        try:
            load_checkpoint(path, trainer.system)
        except CorruptCheckpointError:
            continue
        return trainer, "resumed"
    return Trainer(GaussianModel(spec.params), spec.config), "trained"


def _run_patch_job(spec: PatchJobSpec) -> PatchJobResult:
    finished = _finished(spec)
    if finished is not None:
        return finished
    trainer, status = _resume(spec)
    # the checkpoint's own counter (system.iteration counts completed
    # steps) places the deterministic schedule: no step runs twice
    start = int(trainer.system.iteration)

    def snapshot() -> None:
        # rotate the last good checkpoint aside before overwriting it:
        # should this save tear (crash mid-write), the next attempt
        # resumes from .prev instead of starting over
        if os.path.exists(spec.checkpoint_path):
            os.replace(
                spec.checkpoint_path, spec.checkpoint_path + ".prev"
            )
        save_checkpoint(spec.checkpoint_path, trainer.system)

    chunk = spec.checkpoint_every
    pos = start
    while pos < spec.iterations:
        step = (
            spec.iterations - pos
            if chunk <= 0
            else min(chunk, spec.iterations - pos)
        )
        trainer.train(spec.cameras, spec.images, step, start_iteration=pos)
        pos += step
        snapshot()
    if pos == start:
        snapshot()  # zero remaining work: still emit a model
    return PatchJobResult(
        index=spec.index,
        status=status,
        iterations_done=int(trainer.system.iteration),
        num_gaussians=trainer.num_gaussians,
        checkpoint_path=spec.checkpoint_path,
    )


def build_specs(
    patches: list[ScenePatch],
    model: GaussianModel,
    cameras: list[Camera],
    images: list[np.ndarray],
    config: GSScaleConfig,
    iterations: int,
    workdir: str,
    checkpoint_every: int = 0,
) -> list[PatchJobSpec]:
    """One :class:`PatchJobSpec` per patch, subsetting model and views."""
    specs = []
    for patch in patches:
        specs.append(
            PatchJobSpec(
                index=patch.index,
                params=np.ascontiguousarray(model.params[patch.buffered_ids]),
                cameras=[cameras[i] for i in patch.camera_ids],
                images=[images[i] for i in patch.camera_ids],
                iterations=iterations,
                config=config,
                checkpoint_path=os.path.join(
                    workdir, f"patch{patch.index}.npz"
                ),
                checkpoint_every=checkpoint_every,
            )
        )
    return specs


def train_patches(
    patches: list[ScenePatch],
    model: GaussianModel,
    cameras: list[Camera],
    images: list[np.ndarray],
    config: GSScaleConfig,
    iterations: int,
    workdir: str,
    jobs: int = 2,
    checkpoint_every: int = 0,
    pool: PersistentPool | None = None,
) -> PatchRunReport:
    """Train every patch on a persistent process pool.

    Empty patches, and patches whose checkpoints already show the target
    iteration count, are resolved on the driver side (their spec is
    never even pickled); the rest fan out ``jobs`` wide. Call again with
    the same ``workdir`` after a crash to resume: finished patches skip,
    partial ones reload their checkpoints.

    Args:
        pool: an existing :class:`PersistentPool` to reuse; by default a
            private ``jobs``-wide pool is created and torn down here.
    """
    if iterations < 0:
        raise ValueError("iterations must be >= 0")
    os.makedirs(workdir, exist_ok=True)
    specs = build_specs(
        patches, model, cameras, images, config, iterations, workdir,
        checkpoint_every=checkpoint_every,
    )

    slots = {spec.index: slot for slot, spec in enumerate(specs)}
    report = PatchRunReport(results=[None] * len(specs))
    pending = []
    for spec in specs:
        finished = _finished(spec)
        if finished is None:
            pending.append(spec)
        else:
            report.results[slots[spec.index]] = finished

    if pending:
        own_pool = pool is None
        active = pool if pool is not None else PersistentPool(max(jobs, 1))
        try:
            outcomes = active.map(run_patch_job, pending)
        finally:
            if own_pool:
                active.close()
        for result in outcomes:
            report.results[slots[result.index]] = result
    return report
