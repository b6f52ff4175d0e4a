"""Discrete-event timeline of training iterations for every system in
:data:`SYSTEMS`.

Reproduces the execution schedules of Figure 9:

* ``gpu_only`` — everything serial on the GPU (Figure 9a).
* ``baseline_offload`` — CPU culling, staged transfers, CPU dense updates,
  all serialized with GPU work (Figure 9b).
* ``gsscale_no_deferred`` — selective offloading + parameter forwarding:
  the CPU leg (framework dense update) overlaps the GPU leg (Figure 9c).
* ``gsscale`` — all optimizations; the CPU leg shrinks to the deferred
  update (Figure 9d).

and three beyond the paper: ``sharded`` (GS-Scale over Gaussian shards),
``outofcore`` (the same with spilled shards paged from disk on the
critical path) and ``outofcore_async`` (that paging overlapped by the
prefetch leg).

``simulate_epoch`` runs a whole workload trace through one system and
reports throughput, a stage breakdown (Figure 7), and OOM status
(Figure 11's missing bars).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..datasets.workload import WorkloadTrace
from ..gaussians import layout
from .costs import CostModel, ITERATION_OVERHEAD_S
from .devices import Platform
from .memory import (
    DEFAULT_OUTOFCORE_SHARDS,
    DEFAULT_RESIDENT_SHARDS,
    baseline_offload_breakdown,
    fits,
    fits_host,
    gpu_only_breakdown,
    gsscale_breakdown,
    sharded_breakdown,
)

SYSTEMS = (
    "baseline_offload",
    "gsscale_no_deferred",
    "gsscale",
    "gpu_only",
    "sharded",
    "outofcore",
    "outofcore_async",
)

#: Deferred-update saturation overhead: with a 4-bit counter, 1/15 of the
#: inactive rows are force-updated per step on average (Section 4.3.2).
SATURATION_FRACTION = 1.0 / 15.0

#: Load imbalance of a spatially sharded render: median splits balance
#: populations, not per-view visible work (Grendel reports ~10-20%).
SHARD_IMBALANCE = 1.15

#: Bytes per merged fragment record crossing the interconnect in the
#: fragment-compositing schedule: the forward emit (premultiplied RGB,
#: 3 x f32 = 12 B; log-transmittance, f32 = 4 B; pixel and depth-run keys,
#: 2 x u32 = 8 B) plus the backward suffix return (pre-blend
#: transmittance + suffix offset, 2 x f32 = 8 B).
FRAGMENT_RECORD_BYTES = 32.0

#: Average shard runs per covered pixel: shards are spatial, so most
#: pixels composite one or two shard fragments — far below the
#: per-active-Gaussian traffic of a Grendel-style all-gather, which is
#: why the fragment merge replaces the exchange term.
FRAGMENT_RUNS_PER_PIXEL = 1.5

#: Marginal parallel efficiency of running the K per-shard host commits on
#: separate cores: the row sets are disjoint, but they share host DRAM
#: bandwidth (the Section 5.7 NUMA observation), so each extra shard
#: contributes only this fraction of a full worker.
SHARD_HOST_PARALLEL_EFFICIENCY = 0.5

#: Per-iteration cross-device synchronization overhead, seconds.
SHARD_SYNC_OVERHEAD_S = 0.3e-3

#: Consecutive views served per shard residency: out-of-core trainers
#: (TideGS) order views so a paged-in block trains many nearby views
#: before being evicted, amortizing its page-in/out across them.
OUTOFCORE_VIEW_LOCALITY = 8.0

#: Paged bytes per shard state byte and swap: page the evicted shard out
#: and the incoming one in.
PAGE_ROUNDTRIP = 2.0


@dataclass(frozen=True)
class Segment:
    """One busy interval on one resource (for Figure 9 timelines)."""

    resource: str  # "CPU" | "GPU" | "PCIe" | "Disk"
    label: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        """Segment length in seconds."""
        return self.end - self.start


@dataclass
class IterationSim:
    """One simulated training iteration.

    Attributes:
        time: wall-clock seconds for the iteration.
        breakdown: seconds attributed to each stage (overlapped stages
            still report their own duration).
        segments: resource-time intervals for visualization.
    """

    time: float
    breakdown: dict[str, float]
    segments: list[Segment] = field(default_factory=list)


def _num_sub_passes(ratio: float, mem_limit: float, system: str) -> int:
    """How many image-split passes a view needs (Section 4.4)."""
    if system in ("gpu_only", "baseline_offload") or ratio <= mem_limit:
        return 1
    return int(np.ceil(ratio / mem_limit))


def simulate_iteration(
    system: str,
    cost: CostModel,
    n_total: int,
    active_ratio: float,
    num_pixels: int,
    mem_limit: float = 0.3,
    num_shards: int = DEFAULT_OUTOFCORE_SHARDS,
    resident_shards: int = DEFAULT_RESIDENT_SHARDS,
) -> IterationSim:
    """Simulate one training iteration under ``system``."""
    n_active = int(n_total * active_ratio)
    splits = _num_sub_passes(active_ratio, mem_limit, system)

    if system == "gpu_only":
        return _sim_gpu_only(cost, n_total, n_active, num_pixels)
    if system == "baseline_offload":
        return _sim_baseline(cost, n_total, n_active, num_pixels)
    if system in ("gsscale_no_deferred", "gsscale"):
        return _sim_gsscale(
            cost,
            n_total,
            n_active,
            num_pixels,
            deferred=(system == "gsscale"),
            splits=splits,
        )
    if system == "sharded":
        return _sim_sharded(
            cost, n_total, n_active, num_pixels, splits, num_shards
        )
    if system == "outofcore":
        return _sim_sharded(
            cost, n_total, n_active, num_pixels, splits, num_shards,
            resident_shards=resident_shards,
        )
    if system == "outofcore_async":
        return _sim_sharded(
            cost, n_total, n_active, num_pixels, splits, num_shards,
            resident_shards=resident_shards, async_prefetch=True,
        )
    raise ValueError(f"unknown system {system!r}; choose from {SYSTEMS}")


def _sim_gpu_only(
    cost: CostModel, n_total: int, n_active: int, num_pixels: int
) -> IterationSim:
    cull = cost.gpu_cull(n_total)
    fwd_bwd = cost.forward_backward(n_active, num_pixels)
    update = cost.gpu_dense_update(n_total)
    t = 0.0
    segments = []
    for label, dur in (("cull", cull), ("fwd-bwd", fwd_bwd), ("update", update)):
        segments.append(Segment("GPU", label, t, t + dur))
        t += dur
    t += ITERATION_OVERHEAD_S
    return IterationSim(
        time=t,
        breakdown={
            "cull": cull,
            "h2d": 0.0,
            "fwd_bwd": fwd_bwd,
            "d2h": 0.0,
            "optimizer": update,
            "misc": ITERATION_OVERHEAD_S,
        },
        segments=segments,
    )


def _sim_baseline(
    cost: CostModel, n_total: int, n_active: int, num_pixels: int
) -> IterationSim:
    cull = cost.cpu_cull(n_total)
    h2d = cost.h2d_params(n_active, layout.PARAM_DIM)
    fwd_bwd = cost.forward_backward(n_active, num_pixels)
    d2h = cost.d2h_grads(n_active, layout.PARAM_DIM)
    update = cost.cpu_dense_update(n_total)

    t = 0.0
    segments = []
    for res, label, dur in (
        ("CPU", "cull", cull),
        ("PCIe", "H2D", h2d),
        ("GPU", "fwd-bwd", fwd_bwd),
        ("PCIe", "D2H", d2h),
        ("CPU", "update", update),
    ):
        segments.append(Segment(res, label, t, t + dur))
        t += dur
    t += ITERATION_OVERHEAD_S
    return IterationSim(
        time=t,
        breakdown={
            "cull": cull,
            "h2d": h2d,
            "fwd_bwd": fwd_bwd,
            "d2h": d2h,
            "optimizer": update,
            "misc": ITERATION_OVERHEAD_S,
        },
        segments=segments,
    )


def _sim_gsscale(
    cost: CostModel,
    n_total: int,
    n_active: int,
    num_pixels: int,
    deferred: bool,
    splits: int,
) -> IterationSim:
    """Pipelined schedule (Figures 9c/9d): steady-state iteration time is
    the slowest of the GPU, CPU, and PCIe legs plus fixed overhead."""
    dim = layout.NON_GEOMETRIC_DIM

    # GPU leg: fwd/bwd (+ extra per-split culling), geometric M.S.Q. update,
    # next-view frustum culling.
    cull = cost.gpu_cull(n_total) * splits
    fwd_bwd = cost.forward_backward(n_active, num_pixels)
    geo_update = cost.gpu_dense_update(n_total, layout.GEOMETRIC_DIM)
    gpu_leg = fwd_bwd + geo_update + cull

    # CPU leg: parameter forwarding peek for the next view + the lazy
    # commit of this view's gradients.
    peek = cost.cpu_forward_peek(n_active, dim)
    if deferred:
        n_updated = n_active + int((n_total - n_active) * SATURATION_FRACTION)
        update = cost.cpu_deferred_update(n_updated, n_total, dim)
    else:
        update = cost.cpu_dense_update(n_total, dim)
    cpu_leg = peek + update

    # PCIe leg: forwarded parameters in, gradients out (chunk-pipelined).
    h2d = cost.h2d_params(n_active, dim)
    d2h = cost.d2h_grads(n_active, dim) * splits
    pcie_leg = h2d + d2h

    split_overhead = (splits - 1) * ITERATION_OVERHEAD_S
    time = max(gpu_leg, cpu_leg, pcie_leg) + ITERATION_OVERHEAD_S + split_overhead

    segments = [
        Segment("CPU", "fwd-update", 0.0, peek),
        Segment("PCIe", "H2D", peek * 0.2, peek * 0.2 + h2d),
        Segment("GPU", "fwd-bwd", max(peek * 0.2 + h2d * 0.3, 0.0),
                max(peek * 0.2 + h2d * 0.3, 0.0) + fwd_bwd),
        Segment("CPU", "deferred-update" if deferred else "dense-update",
                peek, peek + update),
        Segment("GPU", "msq-update",
                max(peek * 0.2 + h2d * 0.3, 0.0) + fwd_bwd,
                max(peek * 0.2 + h2d * 0.3, 0.0) + fwd_bwd + geo_update),
        Segment("GPU", "cull",
                max(peek * 0.2 + h2d * 0.3, 0.0) + fwd_bwd + geo_update,
                max(peek * 0.2 + h2d * 0.3, 0.0) + fwd_bwd + geo_update + cull),
        Segment("PCIe", "D2H", max(peek * 0.2 + h2d * 0.3, 0.0) + fwd_bwd,
                max(peek * 0.2 + h2d * 0.3, 0.0) + fwd_bwd + d2h),
    ]
    return IterationSim(
        time=time,
        breakdown={
            "cull": cull,
            "h2d": h2d,
            "fwd_bwd": fwd_bwd,
            "d2h": d2h,
            "optimizer": peek + update,
            "misc": ITERATION_OVERHEAD_S + split_overhead,
        },
        segments=segments,
    )


def _sim_sharded(
    cost: CostModel,
    n_total: int,
    n_active: int,
    num_pixels: int,
    splits: int,
    num_shards: int,
    resident_shards: int | None = None,
    async_prefetch: bool = False,
) -> IterationSim:
    """K-device Gaussian-sharded GS-Scale (Grendel-style schedule).

    Each device runs the GS-Scale GPU leg over its ~1/K shard (with a
    load-imbalance derate), the PCIe legs stage each shard's share in
    parallel, and the host leg — aggregation across shards plus the
    deferred commit — is unchanged in total work. The per-shard renders
    are modelled as joining through a hypothetical multi-device
    fragment-compositing merge, which no functional engine implements
    (the functional sharded system gathers the visible union and renders
    it once): each shard would ship compact per-pixel fragment records to
    the host and receive two scalars per fragment back for the backward
    split, a pixel-bound ``composite`` bandwidth term that replaces the
    Grendel-style all-gather of projected splats.

    With ``resident_shards`` set (the out-of-core tier), a fourth leg pages
    shard state between host DRAM and disk: the view's active shards
    beyond the resident budget swap in (amortized over
    ``OUTOFCORE_VIEW_LOCALITY`` consecutive views by TideGS-style view
    ordering), and each spilled shard additionally pages in once per
    ``max_defer`` steps when its deferred counters saturate. The
    *synchronous* schedule pays that paging on the critical path — the
    next view cannot stage until its shards are host-resident — while
    ``async_prefetch`` overlaps it with the other legs (the background
    preload of the functional engine): only the residual past the
    slowest compute/transfer leg stalls the iteration. Both report the
    stalled portion as ``breakdown["disk_stall"]``. Every page-out is
    written by the thread that spills, so the whole round-trip counts
    toward the stall.
    """
    dim = layout.NON_GEOMETRIC_DIM
    shard_total = -(-n_total // num_shards)
    shard_active = int(-(-n_active // num_shards) * SHARD_IMBALANCE)
    shard_px = -(-num_pixels // num_shards)

    # per-device GPU leg over the shard
    cull = cost.gpu_cull(shard_total) * splits
    fwd_bwd = cost.forward_backward(shard_active, shard_px)
    geo_update = cost.gpu_dense_update(shard_total, layout.GEOMETRIC_DIM)
    gpu_leg = fwd_bwd + geo_update + cull

    # host leg: forwarding peek + cross-shard aggregation + deferred
    # commit; the per-shard commits cover disjoint rows and fan out over
    # host cores with diminishing (bandwidth-bound) returns
    peek = cost.cpu_forward_peek(n_active, dim)
    n_updated = n_active + int((n_total - n_active) * SATURATION_FRACTION)
    host_speedup = 1.0 + (num_shards - 1) * SHARD_HOST_PARALLEL_EFFICIENCY
    update = cost.cpu_deferred_update(n_updated, n_total, dim) / host_speedup
    cpu_leg = peek + update

    # per-device PCIe leg (each shard stages its own share) plus the
    # fragment-merge composite: per covered pixel, each overlapping shard
    # run ships one fragment record (forward emit + backward suffix
    # return) — bounded by pixels and overlap, not by active splats
    h2d = cost.h2d_params(shard_active, dim)
    d2h = cost.d2h_grads(shard_active, dim) * splits
    composite = cost.transfer(
        num_pixels
        * min(FRAGMENT_RUNS_PER_PIXEL, float(num_shards))
        * FRAGMENT_RECORD_BYTES
    )
    pcie_leg = h2d + d2h + composite

    # disk leg (out-of-core tier only)
    disk_leg = 0.0
    if resident_shards is not None:
        shard_state = 3 * layout.param_bytes(shard_total, dim)  # params+m+v
        active_shards = min(
            num_shards, max(1, int(np.ceil(n_active / max(n_total, 1) * num_shards)))
        )
        view_swaps = max(active_shards - resident_shards, 0) / OUTOFCORE_VIEW_LOCALITY
        spilled = max(num_shards - resident_shards, 0)
        saturation_swaps = spilled * SATURATION_FRACTION
        disk_bytes = (
            PAGE_ROUNDTRIP * (view_swaps + saturation_swaps) * shard_state
        )
        disk_leg = cost.disk_page(disk_bytes)

    split_overhead = (splits - 1) * ITERATION_OVERHEAD_S
    sync = SHARD_SYNC_OVERHEAD_S if num_shards > 1 else 0.0
    slowest_leg = max(gpu_leg, cpu_leg, pcie_leg)
    if resident_shards is None:
        disk_stall = 0.0
    elif async_prefetch:
        # the background preload hides page traffic behind whichever leg
        # bounds the iteration; only the residual stalls
        disk_stall = max(0.0, disk_leg - slowest_leg)
    else:
        # synchronous paging: staging waits for the page-ins, and the
        # page-outs block the next admit
        disk_stall = disk_leg
    time = (
        slowest_leg
        + disk_stall
        + ITERATION_OVERHEAD_S
        + split_overhead
        + sync
    )
    segments = [
        Segment("CPU", "fwd-update", 0.0, peek),
        Segment("PCIe", "H2D", peek * 0.2, peek * 0.2 + h2d),
        Segment("PCIe", "composite", peek * 0.2 + h2d,
                peek * 0.2 + h2d + composite),
        Segment("GPU", "fwd-bwd", peek * 0.2 + h2d,
                peek * 0.2 + h2d + fwd_bwd),
        Segment("CPU", "aggregate+deferred-update", peek, peek + update),
        Segment("GPU", "msq-update", peek * 0.2 + h2d + fwd_bwd,
                peek * 0.2 + h2d + fwd_bwd + geo_update),
        Segment("GPU", "cull", peek * 0.2 + h2d + fwd_bwd + geo_update,
                peek * 0.2 + h2d + fwd_bwd + geo_update + cull),
        Segment("PCIe", "D2H", peek * 0.2 + h2d + fwd_bwd,
                peek * 0.2 + h2d + fwd_bwd + d2h),
    ]
    breakdown = {
        "cull": cull,
        "h2d": h2d,
        "fwd_bwd": fwd_bwd,
        "d2h": d2h,
        "composite": composite,
        "optimizer": peek + update,
        "misc": ITERATION_OVERHEAD_S + split_overhead + sync,
    }
    if resident_shards is not None:
        breakdown["disk"] = disk_leg
        breakdown["disk_stall"] = disk_stall
        segments.append(Segment("Disk", "page", 0.0, disk_leg))
    return IterationSim(time=time, breakdown=breakdown, segments=segments)


@dataclass
class EpochResult:
    """Simulated epoch of training on one platform/system/scene.

    Attributes:
        system: system name.
        platform_key: platform registry key.
        scene_name: workload label.
        oom: True when the system cannot train the scene at all (either
            GPU memory or — for offloading systems — host memory).
        host_oom: True when specifically the *host* DRAM is the limit.
        seconds: epoch wall-clock (inf when OOM).
        images_per_second: training throughput (0 when OOM).
        breakdown: per-stage seconds summed over the epoch.
        peak_memory_bytes: modeled peak GPU allocation.
    """

    system: str
    platform_key: str
    scene_name: str
    oom: bool
    seconds: float
    images_per_second: float
    breakdown: dict[str, float]
    peak_memory_bytes: int
    host_oom: bool = False


def peak_memory(
    system: str,
    n_total: int,
    num_pixels: int,
    peak_active_ratio: float,
    mem_limit: float = 0.3,
    num_shards: int = DEFAULT_OUTOFCORE_SHARDS,
):
    """Memory breakdown at the epoch's worst view for ``system``.

    For ``sharded`` and ``outofcore`` this is the *per-device* breakdown
    (the quantity each of the K GPUs must fit); the out-of-core tier only
    changes where the *host* state lives, so its device footprint equals
    the sharded system's.
    """
    if system == "gpu_only":
        return gpu_only_breakdown(n_total, num_pixels)
    if system == "baseline_offload":
        return baseline_offload_breakdown(n_total, num_pixels, peak_active_ratio)
    if system in ("gsscale", "gsscale_no_deferred"):
        return gsscale_breakdown(n_total, num_pixels, peak_active_ratio, mem_limit)
    if system in ("sharded", "outofcore", "outofcore_async"):
        return sharded_breakdown(
            n_total, num_pixels, peak_active_ratio, mem_limit, num_shards
        )
    raise ValueError(f"unknown system {system!r}")


def simulate_epoch(
    platform: Platform,
    trace: WorkloadTrace,
    system: str,
    num_pixels: int,
    mem_limit: float = 0.3,
) -> EpochResult:
    """Run one epoch of ``trace`` through ``system`` on ``platform``."""
    n_total = trace.total_gaussians
    if system in (
        "gsscale", "gsscale_no_deferred", "sharded", "outofcore",
        "outofcore_async",
    ):
        # image splitting bounds the staged window by the worst *per-pass*
        # ratio across the epoch, not the worst raw view
        staged_peak = trace.clipped(mem_limit).peak_ratio
    else:
        staged_peak = trace.peak_ratio
    mem = peak_memory(system, n_total, num_pixels, staged_peak, mem_limit)
    gpu_ok = fits(mem, platform.gpu)
    host_ok = fits_host(n_total, system, platform.host_memory_bytes)
    if not gpu_ok or not host_ok:
        return EpochResult(
            system=system,
            platform_key=platform.key,
            scene_name=trace.scene_name,
            oom=True,
            seconds=float("inf"),
            images_per_second=0.0,
            breakdown={},
            peak_memory_bytes=mem.total,
            host_oom=not host_ok,
        )

    cost = CostModel(platform)
    total = 0.0
    breakdown: dict[str, float] = {}
    for ratio in trace.active_ratios:
        it = simulate_iteration(
            system, cost, n_total, float(ratio), num_pixels, mem_limit
        )
        total += it.time
        for k, v in it.breakdown.items():
            breakdown[k] = breakdown.get(k, 0.0) + v
    return EpochResult(
        system=system,
        platform_key=platform.key,
        scene_name=trace.scene_name,
        oom=False,
        seconds=total,
        images_per_second=trace.num_views / total,
        breakdown=breakdown,
        peak_memory_bytes=mem.total,
    )


def geomean(values) -> float:
    """Geometric mean of positive values (paper's summary statistic)."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("geomean of empty sequence")
    if np.any(arr <= 0):
        raise ValueError("geomean requires positive values")
    return float(np.exp(np.mean(np.log(arr))))
