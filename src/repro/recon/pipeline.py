"""The patch pipeline driver: partition -> train -> merge -> clean.

One call turns a capture (initial model + cameras + images) into a
single servable checkpoint without ever training the whole scene in one
process: the scene is cut into overlap-buffered patches, each patch
trains as an independent job on a persistent process pool, the trained
patch models fuse with exactly-once boundary dedup, and the quality
filters strip patch-seam artifacts. The result loads straight into
``RenderService.from_checkpoint`` (in-memory or paged).

The driver is resumable: a patch job's progress is its checkpoint in
``workdir`` (its header's iteration counter), so re-running
:func:`run_patch_pipeline` after a crash skips finished patches and
resumes partial ones from their checkpoints.

Host-memory accounting follows the repo's fp32-equivalent convention
(:mod:`repro.gaussians.layout`): the pipeline's peak is the widest
concurrent set of patch training states, vs the monolithic run's full
training state — the quantity the patch farm exists to shrink, gated in
``benchmarks/bench_patch_pipeline.py``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field

import numpy as np

from ..cameras.camera import Camera
from ..core.config import GSScaleConfig
from ..gaussians import GaussianModel, layout
from ..pool import PersistentPool
from .clean import CleanConfig, CleanReport, clean_checkpoint
from .jobs import PatchRunReport, train_patches
from .merge import MergeReport, merge_patch_checkpoints
from .partition import ScenePatch, partition_scene

__all__ = [
    "PatchPipelineConfig",
    "PipelineResult",
    "monolithic_peak_host_bytes",
    "pipeline_peak_host_bytes",
    "run_patch_pipeline",
]


@dataclass(frozen=True)
class PatchPipelineConfig:
    """Knobs of one partition -> train -> merge -> clean run.

    Attributes:
        num_patches: spatial cells to cut the scene into.
        buffer: overlap distance in world units (``None``: a tenth of the
            widest scene axis).
        iterations: optimizer steps per patch.
        jobs: concurrent patch-training processes.
        checkpoint_every: patch-job checkpoint cadence (0: only on
            completion).
        train: training configuration template for every patch job.
        clean: quality-filter thresholds.
        merge_policy: boundary-dedup policy (see :mod:`.merge`).
        min_cameras: floor on views per non-empty patch.
    """

    num_patches: int = 4
    buffer: float | None = None
    iterations: int = 50
    jobs: int = 2
    checkpoint_every: int = 0
    train: GSScaleConfig = field(default_factory=GSScaleConfig)
    clean: CleanConfig = field(default_factory=CleanConfig)
    merge_policy: str = "auto"
    min_cameras: int = 1


@dataclass
class PipelineResult:
    """Everything one pipeline run produced.

    Attributes:
        patches: the partition (cores, buffers, camera assignments).
        jobs: per-patch training outcomes.
        merge: boundary-dedup accounting; ``merge.path`` is the fused
            (pre-clean) checkpoint.
        clean: filter accounting; ``clean.path`` is the final servable
            checkpoint.
        checkpoint_path: the final servable checkpoint (= ``clean.path``).
        peak_host_bytes: modeled fp32-equivalent host high-water mark of
            the pipeline (see :func:`pipeline_peak_host_bytes`).
        monolithic_peak_host_bytes: the same model for a single
            whole-scene training run.
    """

    patches: list[ScenePatch]
    jobs: PatchRunReport
    merge: MergeReport
    clean: CleanReport
    checkpoint_path: str
    peak_host_bytes: int
    monolithic_peak_host_bytes: int


def monolithic_peak_host_bytes(num_gaussians: int) -> int:
    """Modeled host bytes of training the whole scene in one run:
    the full training state (params + grads + two Adam moments)."""
    return layout.train_state_bytes(num_gaussians)


def pipeline_peak_host_bytes(
    patches: list[ScenePatch], jobs: int, merged_rows: int | None = None
) -> int:
    """Modeled host high-water mark of the patch pipeline.

    The training phase holds at most ``jobs`` concurrent patch training
    states — bounded by the ``jobs`` largest buffered patches. The merge
    phase streams (kept blocks accumulate to the merged model plus one
    transient patch block); the clean phase gathers the merged rows into
    the one fully materialized array. The pipeline's peak is the max of
    the phases — for any buffer that grows a patch by less than
    ``jobs_total / jobs``, strictly below the monolithic training state.
    """
    sizes = sorted((p.num_buffered for p in patches), reverse=True)
    train_peak = sum(
        layout.train_state_bytes(n) for n in sizes[: max(jobs, 1)]
    )
    largest = sizes[0] if sizes else 0
    total = merged_rows
    if total is None:
        total = sum(p.num_core for p in patches)
    fuse_peak = layout.param_bytes(total) + layout.param_bytes(largest)
    return max(train_peak, fuse_peak)


def run_patch_pipeline(
    model: GaussianModel,
    cameras: list[Camera],
    images: list[np.ndarray],
    workdir: str,
    config: PatchPipelineConfig = PatchPipelineConfig(),
    pool: PersistentPool | None = None,
) -> PipelineResult:
    """Partition, train, merge, and clean one capture end to end.

    Args:
        model: initial whole-scene Gaussians.
        cameras: all training cameras.
        images: matching ground-truth images.
        workdir: job checkpoints and the merged/final
            checkpoints all live here; reuse it to resume.
        config: pipeline knobs.
        pool: optional existing :class:`PersistentPool` to run jobs on.

    Raises:
        RuntimeError: when any patch job failed — re-run with the same
            ``workdir`` to resume from the completed patches.
    """
    os.makedirs(workdir, exist_ok=True)
    patches = partition_scene(
        model,
        cameras,
        config.num_patches,
        buffer=config.buffer,
        min_cameras=config.min_cameras,
    )
    jobs = train_patches(
        patches,
        model,
        cameras,
        images,
        config.train,
        config.iterations,
        workdir,
        jobs=config.jobs,
        checkpoint_every=config.checkpoint_every,
        pool=pool,
    )
    if not jobs.all_done:
        failures = "; ".join(
            f"patch {r.index}: {r.error}" for r in jobs.failed
        )
        raise RuntimeError(
            f"{len(jobs.failed)} patch job(s) failed ({failures}) — "
            f"re-run with workdir {workdir!r} to resume"
        )
    merged_path = os.path.join(workdir, "merged.npz")
    merge = merge_patch_checkpoints(
        patches,
        {
            r.index: r.checkpoint_path
            for r in jobs.results
            if r.checkpoint_path
        },
        merged_path,
        policy=config.merge_policy,
    )
    final_path = os.path.join(workdir, "final.npz")
    clean = clean_checkpoint(merged_path, final_path, config.clean)
    return PipelineResult(
        patches=patches,
        jobs=jobs,
        merge=merge,
        clean=clean,
        checkpoint_path=final_path,
        peak_host_bytes=pipeline_peak_host_bytes(
            patches, config.jobs, merged_rows=merge.num_gaussians
        ),
        monolithic_peak_host_bytes=monolithic_peak_host_bytes(
            model.num_gaussians
        ),
    )
