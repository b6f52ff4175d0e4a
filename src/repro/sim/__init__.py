"""Performance simulator: devices, memory model, cost model, timelines."""

from .costs import CostModel
from .devices import PLATFORMS, CPUSpec, GPUSpec, Platform, get_platform
from .memory import (
    ACTIVATION_BYTES_PER_PIXEL,
    fits_host,
    host_state_bytes,
    MemoryBreakdown,
    MemoryTracker,
    baseline_offload_breakdown,
    bytes_per_gaussian,
    disk_state_bytes,
    fits,
    gpu_only_breakdown,
    gsscale_breakdown,
    max_trainable_gaussians,
    outofcore_host_state_bytes,
    sharded_breakdown,
)
from .recon import PatchFarmResult, simulate_patch_farm
from .timeline import (
    SYSTEMS,
    EpochResult,
    IterationSim,
    Segment,
    geomean,
    peak_memory,
    simulate_epoch,
    simulate_iteration,
)
from .trace import render_ascii, to_chrome_trace, write_chrome_trace

__all__ = [
    "ACTIVATION_BYTES_PER_PIXEL",
    "CPUSpec",
    "CostModel",
    "EpochResult",
    "GPUSpec",
    "IterationSim",
    "MemoryBreakdown",
    "MemoryTracker",
    "PLATFORMS",
    "PatchFarmResult",
    "Platform",
    "SYSTEMS",
    "Segment",
    "baseline_offload_breakdown",
    "bytes_per_gaussian",
    "disk_state_bytes",
    "fits",
    "fits_host",
    "geomean",
    "get_platform",
    "gpu_only_breakdown",
    "host_state_bytes",
    "gsscale_breakdown",
    "max_trainable_gaussians",
    "outofcore_host_state_bytes",
    "peak_memory",
    "render_ascii",
    "sharded_breakdown",
    "simulate_epoch",
    "simulate_iteration",
    "simulate_patch_farm",
    "to_chrome_trace",
    "write_chrome_trace",
]
