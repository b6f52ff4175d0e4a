"""GPU memory model: byte-level accounting of training-state placement.

Reproduces the paper's memory analysis (Section 3.1-3.2, Figures 3b and
12): training state is parameters + gradients + two Adam moments (4x the
parameter bytes), activations scale with rendered pixels, and GS-Scale
moves all non-geometric state to the host, keeping only the geometric 17%
plus an on-demand staged window bounded by ``mem_limit`` image splitting.

Also provides :class:`MemoryTracker`, the runtime allocator ledger used by
the functional offload engine to assert it stays within a device budget.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..gaussians import layout
from .devices import GPUSpec

#: Bytes of forward/backward activation state per rendered pixel
#: (intermediate buffers, tile lists, per-pixel blending state). Calibrated
#: so that Gaussian state is ~90% of GPU memory at 1-1.6K resolutions
#: (Figure 3b) for scenes in the 10-20M-Gaussian class.
ACTIVATION_BYTES_PER_PIXEL = 1100

#: GS-Scale partitions host->device transfers into 32 MB chunks
#: (Section 4.2.2); two are in flight for double buffering.
TRANSFER_CHUNK_BYTES = 32 * 1024 * 1024
TRANSFER_BUFFER_BYTES = 2 * TRANSFER_CHUNK_BYTES

#: PyTorch keeps reserved pools larger than allocated memory (the paper's
#: footnote 1: OOM can hit before allocated reaches capacity). The capacity
#: check divides the device limit by this factor.
ALLOCATOR_RESERVE_FACTOR = 1.5

#: Fixed runtime overhead (CUDA context, framework) counted against capacity.
RUNTIME_OVERHEAD_BYTES = 600 * 1024 * 1024


@dataclass(frozen=True)
class MemoryBreakdown:
    """Bytes on the GPU by category (mirrors Figure 3b's categories)."""

    parameters: int
    gradients: int
    optimizer_states: int
    activations: int
    transfer_buffers: int = 0

    @property
    def total(self) -> int:
        """All accounted GPU bytes."""
        return (
            self.parameters
            + self.gradients
            + self.optimizer_states
            + self.activations
            + self.transfer_buffers
        )

    @property
    def gaussian_state(self) -> int:
        """Parameter-related bytes (the paper's ~90% at 1-1.6K)."""
        return self.parameters + self.gradients + self.optimizer_states

    def shares(self) -> dict[str, float]:
        """Fractional share per category."""
        t = max(self.total, 1)
        return {
            "parameters": self.parameters / t,
            "gradients": self.gradients / t,
            "optimizer_states": self.optimizer_states / t,
            "activations": self.activations / t,
            "transfer_buffers": self.transfer_buffers / t,
        }


def activation_bytes(num_pixels: int) -> int:
    """Forward/backward activation footprint for one rendered view."""
    return num_pixels * ACTIVATION_BYTES_PER_PIXEL


def effective_staged_ratio(peak_active_ratio: float, mem_limit: float) -> float:
    """Per-pass staged fraction after balance-aware image splitting.

    A view whose active ratio exceeds ``mem_limit`` is split into
    ``ceil(ratio / mem_limit)`` balanced sub-regions (Section 4.4; two
    sufficed in the paper's benchmarks), each staging ``ratio / splits`` of
    the scene.
    """
    if peak_active_ratio <= mem_limit:
        return peak_active_ratio
    import math

    splits = math.ceil(peak_active_ratio / mem_limit)
    return peak_active_ratio / splits


def gpu_only_breakdown(num_gaussians: int, num_pixels: int) -> MemoryBreakdown:
    """GPU-only training: everything resident (Section 3.1)."""
    p = layout.param_bytes(num_gaussians)
    return MemoryBreakdown(
        parameters=p,
        gradients=p,
        optimizer_states=2 * p,
        activations=activation_bytes(num_pixels),
    )


def baseline_offload_breakdown(
    num_gaussians: int, num_pixels: int, peak_active_ratio: float
) -> MemoryBreakdown:
    """Baseline GS-Scale (Section 4.1): no geometric residency, the peak
    view's full 59-parameter rows plus their gradients staged on demand."""
    staged = int(num_gaussians * peak_active_ratio)
    p = layout.param_bytes(staged)
    return MemoryBreakdown(
        parameters=p,
        gradients=p,
        optimizer_states=0,
        activations=activation_bytes(num_pixels),
    )


def gsscale_breakdown(
    num_gaussians: int,
    num_pixels: int,
    peak_active_ratio: float,
    mem_limit: float = 0.3,
) -> MemoryBreakdown:
    """GS-Scale with selective offloading + image splitting (Section 4.2/4.4).

    Resident: geometric parameters, gradients, and moments (10/59 of state);
    staged: non-geometric parameters + gradients for the worst view, capped
    by balance-aware splitting at ``mem_limit`` of the scene.
    """
    geo_param = layout.param_bytes(num_gaussians, layout.GEOMETRIC_DIM)
    effective_peak = effective_staged_ratio(peak_active_ratio, mem_limit)
    staged_rows = int(num_gaussians * effective_peak)
    staged_param = layout.param_bytes(staged_rows, layout.NON_GEOMETRIC_DIM)
    return MemoryBreakdown(
        parameters=geo_param + staged_param,
        gradients=geo_param + staged_param,
        optimizer_states=2 * geo_param,
        activations=activation_bytes(num_pixels),
        transfer_buffers=TRANSFER_BUFFER_BYTES,
    )


def sharded_breakdown(
    num_gaussians: int,
    num_pixels: int,
    peak_active_ratio: float,
    mem_limit: float = 0.3,
    num_shards: int = 4,
) -> MemoryBreakdown:
    """Per-device breakdown of the Gaussian-sharded GS-Scale system.

    Each of the ``num_shards`` devices holds a spatially balanced 1/K of
    the scene under the GS-Scale placement (geometric block resident,
    non-geometric staged) and rasterizes ~1/K of the pixels after the
    Grendel-style gather, so the per-device footprint is a GS-Scale
    breakdown of the shard.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    per_shard_n = -(-num_gaussians // num_shards)  # ceil: worst shard
    per_shard_px = -(-num_pixels // num_shards)
    return gsscale_breakdown(
        per_shard_n, per_shard_px, peak_active_ratio, mem_limit
    )


def fits(breakdown: MemoryBreakdown, gpu: GPUSpec) -> bool:
    """Whether a workload trains without OOM on ``gpu`` (reserve-adjusted)."""
    budget = gpu.memory_bytes / ALLOCATOR_RESERVE_FACTOR - RUNTIME_OVERHEAD_BYTES
    return breakdown.total <= budget


def max_trainable_gaussians(
    gpu: GPUSpec,
    num_pixels: int,
    system: str = "gpu_only",
    peak_active_ratio: float = 0.3,
    mem_limit: float = 0.3,
) -> int:
    """Largest Gaussian count that fits ``gpu`` for a given system.

    Inverts the per-system breakdown analytically. This is the quantity
    behind Figure 1 and Section 5.6's "4M -> 18M on an RTX 4070 Mobile".
    """
    budget = gpu.memory_bytes / ALLOCATOR_RESERVE_FACTOR - RUNTIME_OVERHEAD_BYTES
    budget -= activation_bytes(num_pixels)
    if budget <= 0:
        return 0
    per_g = bytes_per_gaussian(
        system, peak_active_ratio=peak_active_ratio, mem_limit=mem_limit
    )
    if system == "gsscale":
        budget -= TRANSFER_BUFFER_BYTES
    return max(int(budget / per_g), 0)


def bytes_per_gaussian(
    system: str, peak_active_ratio: float = 0.3, mem_limit: float = 0.3
) -> float:
    """Resident GPU bytes per scene Gaussian under each system."""
    full_state = layout.train_state_bytes(1)  # 944 B
    if system == "gpu_only":
        return float(full_state)
    if system == "baseline_offload":
        return 2 * layout.param_bytes(1) * peak_active_ratio
    if system == "gsscale":
        geo = layout.train_state_bytes(1, layout.GEOMETRIC_DIM)
        staged = (
            2
            * layout.param_bytes(1, layout.NON_GEOMETRIC_DIM)
            * effective_staged_ratio(peak_active_ratio, mem_limit)
        )
        return geo + staged
    raise ValueError(f"unknown system {system!r}")


#: Shard defaults of the sharded and out-of-core placement tiers, here and
#: in the timeline (mirrors ``GSScaleConfig.num_shards`` /
#: ``GSScaleConfig.resident_shards``).
DEFAULT_OUTOFCORE_SHARDS = 4
DEFAULT_RESIDENT_SHARDS = 1


def outofcore_host_state_bytes(
    num_gaussians: int,
    num_shards: int = DEFAULT_OUTOFCORE_SHARDS,
    resident_shards: int = DEFAULT_RESIDENT_SHARDS,
    staging_shards: int = 0,
) -> int:
    """Host DRAM floor of the out-of-core system.

    Only the resident shards' non-geometric training state occupies host
    memory; the defer counters of *every* shard stay resident (1 byte per
    Gaussian — they are what lets a spilled shard tick without paging).
    ``staging_shards`` adds the async prefetch leg's staging slot: while
    the current view renders, up to that many preloaded shard snapshots
    (parameters + both Adam moments, no gradients) of the next view sit
    in host memory waiting to be adopted — ``resident_shards`` bounds it
    at every ``prefetch_depth``, since the slot holds one view.
    """
    if not 1 <= resident_shards:
        raise ValueError("resident_shards must be >= 1")
    if staging_shards < 0:
        raise ValueError("staging_shards must be >= 0")
    per_shard = -(-num_gaussians // num_shards)  # ceil: worst shards
    resident_rows = min(resident_shards, num_shards) * per_shard
    state = layout.train_state_bytes(resident_rows, layout.NON_GEOMETRIC_DIM)
    staging_rows = min(staging_shards, num_shards) * per_shard
    staging = 3 * layout.param_bytes(staging_rows, layout.NON_GEOMETRIC_DIM)
    counters = num_gaussians
    return state + staging + counters


def disk_state_bytes(
    num_gaussians: int,
    num_shards: int = DEFAULT_OUTOFCORE_SHARDS,
    resident_shards: int = DEFAULT_RESIDENT_SHARDS,
) -> int:
    """Bytes of training state the out-of-core system keeps on disk.

    The spilled shards' non-geometric parameters and both Adam moments
    (3 float copies — gradients never reach the disk tier), stored raw.
    """
    per_shard = -(-num_gaussians // num_shards)
    spilled_rows = max(num_shards - resident_shards, 0) * per_shard
    return 3 * layout.param_bytes(spilled_rows, layout.NON_GEOMETRIC_DIM)


def host_state_bytes(num_gaussians: int, system: str) -> int:
    """Host-memory footprint of the offloaded training state.

    GS-Scale keeps the non-geometric parameters and their two Adam moments
    (plus the returned gradients and the defer counters) in host DRAM; the
    baseline keeps all 59 columns there. The GPU-only system offloads
    nothing, and the out-of-core system hosts only its resident shard set
    (defaults; :func:`outofcore_host_state_bytes` takes explicit knobs).
    """
    if system == "gpu_only":
        return 0
    if system == "baseline_offload":
        return layout.train_state_bytes(num_gaussians)
    if system in ("gsscale", "gsscale_no_deferred", "sharded"):
        # sharding moves device state across GPUs; the host-side
        # non-geometric state (and its counters) is unchanged in total
        state = layout.train_state_bytes(num_gaussians, layout.NON_GEOMETRIC_DIM)
        counters = num_gaussians  # one byte each
        return state + counters
    if system == "outofcore":
        return outofcore_host_state_bytes(num_gaussians)
    if system == "outofcore_async":
        # the overlap leg double-buffers one shard's pageable state
        return outofcore_host_state_bytes(num_gaussians, staging_shards=1)
    raise ValueError(f"unknown system {system!r}")


def fits_host(num_gaussians: int, system: str, host_memory_bytes: int) -> bool:
    """Whether the offloaded state fits host DRAM (Table 1 capacities).

    Host offloading moves the memory wall, it does not remove it: e.g. the
    Aerial scene's ~42 GB of training state cannot be hosted by the
    laptop's 32 GB of DRAM no matter how little GPU memory is used.
    """
    # leave room for the OS, the framework, and the image cache
    budget = host_memory_bytes * 0.85
    return host_state_bytes(num_gaussians, system) <= budget


class MemoryTracker:
    """Runtime allocation ledger for the functional offload engine.

    Tracks live bytes per category and the high-water mark, mimicking
    ``torch.cuda.max_memory_allocated`` (the paper's measurement tool).

    Trackers compose into device groups: a per-device tracker constructed
    with a ``parent`` mirrors every allocate/free into the parent, so a
    sharded multi-device system can enforce per-device capacities on the
    children while the parent reports fleet-wide live/peak bytes (the
    quantity the trainer records). Parents may nest arbitrarily deep.
    """

    def __init__(
        self,
        capacity_bytes: int | None = None,
        parent: "MemoryTracker | None" = None,
    ):
        self.capacity_bytes = capacity_bytes
        self.parent = parent
        self._live: dict[str, int] = {}
        self.peak_bytes = 0

    @property
    def live_bytes(self) -> int:
        """Currently allocated bytes."""
        return sum(self._live.values())

    def allocate(self, category: str, num_bytes: int) -> None:
        """Record an allocation; raises MemoryError past capacity.

        A rejected allocation leaves every tracker in the chain unchanged:
        capacity is checked before anything is recorded, and the parent is
        charged (recursively, same rule) before this tracker commits, so a
        raise at any level cannot desynchronize child and parent.
        """
        if num_bytes < 0:
            raise ValueError("allocation size must be non-negative")
        total = self.live_bytes + num_bytes
        if self.capacity_bytes is not None and total > self.capacity_bytes:
            raise MemoryError(
                f"device OOM: {total} bytes live > capacity "
                f"{self.capacity_bytes} (allocating {num_bytes} for "
                f"{category!r})"
            )
        if self.parent is not None:
            self.parent.allocate(category, num_bytes)
        self._live[category] = self._live.get(category, 0) + num_bytes
        self.peak_bytes = max(self.peak_bytes, total)

    def free(self, category: str, num_bytes: int) -> None:
        """Record a deallocation."""
        have = self._live.get(category, 0)
        if num_bytes > have:
            raise ValueError(
                f"freeing {num_bytes} bytes from {category!r} but only "
                f"{have} live"
            )
        self._live[category] = have - num_bytes
        if self.parent is not None:
            self.parent.free(category, num_bytes)

    def live_by_category(self) -> dict[str, int]:
        """Snapshot of live bytes per category."""
        return dict(self._live)
