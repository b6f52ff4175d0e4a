"""Reconstruction farm: scene-scale patch pipeline.

Turns "a trainer" into "a reconstruction farm": captures too large for
one training run are cut into overlap-buffered spatial patches
(:mod:`~repro.recon.partition`), trained as independent, restartable
jobs on the persistent process pool (:mod:`~repro.recon.jobs`), fused
with exactly-once boundary dedup through the lazy checkpoint reader
(:mod:`~repro.recon.merge`), and filtered into one servable checkpoint
(:mod:`~repro.recon.clean`). :func:`~repro.recon.pipeline.
run_patch_pipeline` drives the four stages end to end; the modeled
schedule lives in :func:`repro.sim.simulate_patch_farm`. See the
patch-pipeline section of ``docs/architecture.md``.
"""

from .clean import CleanConfig, CleanReport, clean_checkpoint, clean_mask
from .jobs import (
    PatchJobResult,
    PatchJobSpec,
    PatchRunReport,
    run_patch_job,
    train_patches,
)
from .merge import MergeReport, merge_patch_checkpoints
from .partition import ScenePatch, default_buffer, partition_scene
from .pipeline import (
    PatchPipelineConfig,
    PipelineResult,
    monolithic_peak_host_bytes,
    pipeline_peak_host_bytes,
    run_patch_pipeline,
)

__all__ = [
    "CleanConfig",
    "CleanReport",
    "MergeReport",
    "PatchJobResult",
    "PatchJobSpec",
    "PatchPipelineConfig",
    "PatchRunReport",
    "PipelineResult",
    "ScenePatch",
    "clean_checkpoint",
    "clean_mask",
    "default_buffer",
    "merge_patch_checkpoints",
    "monolithic_peak_host_bytes",
    "partition_scene",
    "pipeline_peak_host_bytes",
    "run_patch_job",
    "run_patch_pipeline",
    "train_patches",
]
