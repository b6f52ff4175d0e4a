"""Patch training jobs: independent Trainer runs on the persistent pool.

Each patch of a partitioned capture trains as one ordinary
:class:`~repro.core.trainer.Trainer` run over its buffered Gaussians and
assigned views, fanned out over the :class:`~repro.pool.PersistentPool`
process machinery. A job is restartable by construction:

* it checkpoints every ``checkpoint_every`` iterations (format-v2, the
  same :func:`~repro.core.checkpoint.save_checkpoint` a monolithic run
  uses) next to a small JSON manifest recording how far it got;
* on entry it reads the manifest — a finished patch is skipped, a
  partial one reloads its checkpoint and continues the same
  deterministic schedule via ``Trainer.train(start_iteration=...)``.

So a killed farm run is resumed simply by calling :func:`train_patches`
again with the same work directory: completed patches cost one manifest
read, the interrupted one picks up from its last checkpoint.

Failures are contained: a job that raises reports ``status="failed"``
with the exception text instead of poisoning the pool, and the driver
surfaces every failure in its :class:`PatchRunReport`.

Checkpoints are crash-safe end to end: saves are atomic and the previous
checkpoint is rotated to ``<path>.prev`` first, so a save torn by a
mid-write crash costs one chunk of progress, not the patch — the next
run detects the tear (:class:`~repro.core.integrity.
CorruptCheckpointError`), reloads ``.prev``, and takes its resume
position from the checkpoint's own iteration counter. Manifests that
claim completion are never trusted without validating the checkpoint
they point at.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field

import numpy as np

from ..cameras.camera import Camera
from ..core.checkpoint import (
    load_checkpoint,
    save_checkpoint,
    validate_checkpoint,
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
    views, and the paths its checkpoint/manifest live at.
    """

    index: int
    params: np.ndarray
    cameras: list[Camera]
    images: list[np.ndarray]
    iterations: int
    config: GSScaleConfig
    checkpoint_path: str
    manifest_path: str
    checkpoint_every: int = 0  # 0: checkpoint only on completion


@dataclass
class PatchJobResult:
    """Outcome of one patch job (also reconstructed from manifests)."""

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


def _paths(workdir: str, index: int) -> tuple[str, str]:
    return (
        os.path.join(workdir, f"patch{index}.npz"),
        os.path.join(workdir, f"patch{index}.json"),
    )


def _read_manifest(path: str) -> dict | None:
    """Read a job manifest; unreadable or torn manifests read as absent.

    The manifest only memoizes progress — treating a damaged one as "no
    manifest" costs at most a re-resume from the checkpoint, which is
    strictly safer than trusting half a JSON file.
    """
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            manifest = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(manifest, dict) or not {
        "status", "iterations_done", "num_gaussians"
    } <= manifest.keys():
        return None
    return manifest


def _write_manifest(path: str, manifest: dict) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(manifest, fh)
    os.replace(tmp, path)  # atomic: a killed job never leaves half a file


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


def _run_patch_job(spec: PatchJobSpec) -> PatchJobResult:
    n = int(spec.params.shape[0])
    if n == 0:
        _write_manifest(
            spec.manifest_path,
            {"status": "empty", "iterations_done": 0, "num_gaussians": 0},
        )
        return PatchJobResult(
            index=spec.index,
            status="empty",
            iterations_done=0,
            num_gaussians=0,
            checkpoint_path="",
        )

    manifest = _read_manifest(spec.manifest_path)
    done = int(manifest["iterations_done"]) if manifest else 0
    resumable = (
        manifest is not None
        and manifest["status"] != "empty"
        and done > 0
        and os.path.exists(spec.checkpoint_path)
    )
    if (
        resumable
        and done >= spec.iterations
        and validate_checkpoint(spec.checkpoint_path) is None
    ):
        return PatchJobResult(
            index=spec.index,
            status="skipped",
            iterations_done=done,
            num_gaussians=int(manifest["num_gaussians"]),
            checkpoint_path=spec.checkpoint_path,
        )

    trainer = Trainer(GaussianModel(spec.params), spec.config)
    status = "trained"
    start = 0
    if resumable:
        try:
            load_checkpoint(spec.checkpoint_path, trainer.system)
            start, status = done, "resumed"
        except CorruptCheckpointError:
            # torn mid-write: fall back to the rotated last-good
            # checkpoint. The start position comes from the checkpoint
            # itself (system.iteration counts completed steps), so a
            # manifest that ran ahead of — or behind — the tear cannot
            # desynchronize the deterministic schedule.
            trainer = Trainer(GaussianModel(spec.params), spec.config)
            prev = spec.checkpoint_path + ".prev"
            if os.path.exists(prev):
                try:
                    load_checkpoint(prev, trainer.system)
                    start = int(trainer.system.iteration)
                    status = "resumed"
                except CorruptCheckpointError:
                    trainer = Trainer(GaussianModel(spec.params), spec.config)

    def snapshot(iterations_done: int) -> None:
        # rotate the last good checkpoint aside before overwriting it:
        # should this save tear (crash mid-write), the next attempt
        # resumes from .prev instead of starting over
        if os.path.exists(spec.checkpoint_path):
            os.replace(
                spec.checkpoint_path, spec.checkpoint_path + ".prev"
            )
        save_checkpoint(spec.checkpoint_path, trainer.system)
        _write_manifest(
            spec.manifest_path,
            {
                "status": status,
                "iterations_done": iterations_done,
                "num_gaussians": trainer.num_gaussians,
            },
        )

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
        snapshot(pos)
    if pos == start:
        snapshot(spec.iterations)  # zero remaining work: still emit a model
    return PatchJobResult(
        index=spec.index,
        status=status,
        iterations_done=spec.iterations,
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
        checkpoint_path, manifest_path = _paths(workdir, patch.index)
        specs.append(
            PatchJobSpec(
                index=patch.index,
                params=np.ascontiguousarray(model.params[patch.buffered_ids]),
                cameras=[cameras[i] for i in patch.camera_ids],
                images=[images[i] for i in patch.camera_ids],
                iterations=iterations,
                config=config,
                checkpoint_path=checkpoint_path,
                manifest_path=manifest_path,
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

    Patches whose manifests already show the target iteration count are
    skipped on the driver side (their spec is never even pickled); the
    rest fan out ``jobs`` wide. Call again with the same ``workdir``
    after a crash to resume: finished patches skip, partial ones reload
    their checkpoints.

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
        manifest = _read_manifest(spec.manifest_path)
        if (
            manifest is not None
            and manifest["status"] != "failed"
            and int(manifest["iterations_done"]) >= iterations
            and (
                manifest["status"] == "empty"
                or (
                    os.path.exists(spec.checkpoint_path)
                    # a complete-looking manifest next to a torn
                    # checkpoint must re-dispatch, not skip forever
                    and validate_checkpoint(spec.checkpoint_path) is None
                )
            )
        ):
            report.results[slots[spec.index]] = PatchJobResult(
                index=spec.index,
                status="skipped" if manifest["status"] != "empty" else "empty",
                iterations_done=int(manifest["iterations_done"]),
                num_gaussians=int(manifest["num_gaussians"]),
                checkpoint_path=(
                    "" if manifest["status"] == "empty"
                    else spec.checkpoint_path
                ),
            )
        else:
            pending.append(spec)

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
