"""Configuration of the GS-Scale training engine."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..gaussians.layout import SH_DEGREE
from ..optim.base import AdamConfig
from ..optim.lr_schedule import packed_lr_vector
from ..render.rasterize import RasterConfig
from ..train.loss import DEFAULT_SSIM_LAMBDA

#: The paper's system variants (Figure 11's four bars) plus the sharded
#: multi-device extension (Grendel-style Gaussian sharding over K stores)
#: and its out-of-core placement tier (TideGS-style disk spill/prefetch).
SYSTEM_NAMES = (
    "gpu_only",
    "baseline_offload",
    "gsscale_no_deferred",
    "gsscale",
    "sharded",
    "outofcore",
)


@dataclass
class GSScaleConfig:
    """Everything the training engine needs to know.

    Attributes:
        system: one of :data:`SYSTEM_NAMES`.
        mem_limit: image-splitting threshold — views whose active ratio
            exceeds this fraction of total Gaussians are split
            (Section 4.4; the paper uses 0.3).
        max_defer: deferred-update counter saturation (4-bit -> 15).
        sh_degree: maximum spherical-harmonics degree.
        sh_degree_interval: if set, the active degree ramps up by one every
            this many iterations (3DGS starts at degree 0 and raises it
            every 1000 iterations); ``None`` uses ``sh_degree`` throughout.
        position_lr_decay_steps: if set, the position learning rate decays
            log-linearly to ``position_lr_final_scale`` of its initial
            value over this many iterations (the 3DGS schedule).
        position_lr_final_scale: final/initial position-lr ratio.
        ssim_lambda: DSSIM weight in the photometric loss.
        scene_extent: world radius; scales the position learning rate.
        beta1, beta2, eps: Adam hyperparameters (eps=1e-15 per gsplat).
        device_capacity_bytes: optional simulated GPU capacity; the
            engine's MemoryTracker raises MemoryError past it, reproducing
            the OOM behaviour of Figure 11. For the ``sharded`` system this
            caps the *aggregate* across shards.
        num_shards: shard count of the ``sharded`` system (spatial
            partition of the Gaussian set; ignored by the other systems).
            The per-shard cull runs serially inside the store; with the
            ``fragment`` engine the shards' rasterization runs on the
            block threads, one per usable CPU (no setting).
        shard_device_capacity_bytes: optional per-shard device capacity
            (each shard's MemoryTracker raises MemoryError past it).
        spill_dir: directory of the ``outofcore`` system's page files
            (:class:`~repro.core.pager.PageFile`); ``None`` uses a
            temporary directory that dies with the system (a
            caller-provided directory is never deleted).
        resident_shards: how many shards' non-geometric host state the
            ``outofcore`` system keeps paged into host DRAM at once (the
            resident-set budget; the rest lives in the spill files).
        async_prefetch: overlap the ``outofcore`` system's disk page-ins
            with compute: a background worker snapshots the *next* view's
            spilled shards (``DiskStore.preload``, double-buffered) while
            the current view renders, and the next step adopts the
            buffers instead of reading disk on the critical path. Needs
            to be told the upcoming views
            (``OutOfCoreGSScaleSystem.hint_upcoming_views``; the
            :class:`~repro.core.trainer.Trainer` does so
            automatically). Numerics and ledger traffic are identical to
            the synchronous schedule — only the stall moves off the
            critical path.
        page_codec: how the ``outofcore`` system's spill files are stored
            on disk — ``"raw"`` (memory-mapped native dtype, the
            default), ``"lossless"`` (byte-shuffle + zlib, bit-identical
            trajectories), or ``"float16"`` (half-precision pages, 2x
            less disk traffic, tolerance-bounded drift). See
            :mod:`repro.core.pagecodec`.
        prefetch_depth: lookahead of the async staging queue — how many
            upcoming views the background worker snapshots ahead of the
            training thread. 1 is the classic double buffer; deeper
            queues need ``async_prefetch`` and pay off on
            locality-ordered view schedules (``view_order="locality"``).
        write_behind: move the ``outofcore`` system's dirty page-outs to
            a background writer thread (epoch-fenced, drained before
            densification rebuilds and checkpoints) instead of writing
            them synchronously on the admit path.
        telemetry: record measured spans and metrics. Installs the
            process-wide :mod:`repro.telemetry` tracer when the system
            is built; training phases (cull/stage/forward/backward/
            unstage/commit), disk paging, the prefetch and write-behind
            threads, and pool maps (with in-worker spans) all land in
            one ring buffer, exportable as Chrome trace JSON next to
            the simulator's modeled trace. Off by default; the
            instrumentation call sites are near-free when disabled.
        raster: rasterizer thresholds and backend selection.
        engine: one-shot convenience override for ``raster.engine`` — one
            of :data:`repro.render.rasterize.ENGINES`. Every training
            system and benchmark renders through this backend; ``None``
            keeps whatever ``raster`` says. The override is folded into
            ``raster`` and reset to ``None`` during construction, so
            ``raster.engine`` is the single source of truth afterwards.
        background: render background color.
        seed: RNG seed for anything stochastic in the engine.
    """

    system: str = "gsscale"
    mem_limit: float = 0.3
    max_defer: int = 15
    sh_degree: int = SH_DEGREE
    sh_degree_interval: int | None = None
    position_lr_decay_steps: int | None = None
    position_lr_final_scale: float = 0.01
    ssim_lambda: float = DEFAULT_SSIM_LAMBDA
    scene_extent: float = 1.0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-15
    device_capacity_bytes: int | None = None
    num_shards: int = 4
    shard_device_capacity_bytes: int | None = None
    spill_dir: str | None = None
    resident_shards: int = 1
    async_prefetch: bool = False
    page_codec: str = "raw"
    prefetch_depth: int = 1
    write_behind: bool = False
    telemetry: bool = False
    raster: RasterConfig = field(default_factory=RasterConfig)
    engine: str | None = None
    background: np.ndarray | None = None
    seed: int = 0

    def __post_init__(self):
        if self.system not in SYSTEM_NAMES:
            raise ValueError(
                f"unknown system {self.system!r}; choose from {SYSTEM_NAMES}"
            )
        if not 0.0 < self.mem_limit <= 1.0:
            raise ValueError("mem_limit must be in (0, 1]")
        if self.num_shards < 1:
            raise ValueError("num_shards must be >= 1")
        if self.resident_shards < 1:
            raise ValueError("resident_shards must be >= 1")
        # fail here, not on the first spill deep inside a training run
        from .pagecodec import get_page_codec

        get_page_codec(self.page_codec)
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        if self.prefetch_depth > 1 and not self.async_prefetch:
            raise ValueError(
                "prefetch_depth > 1 requires async_prefetch=True "
                "(the staging queue is the async leg's lookahead)"
            )
        if self.engine is not None:
            if self.engine != self.raster.engine:
                # replace() re-runs RasterConfig validation on the name
                self.raster = replace(self.raster, engine=self.engine)
            # one-shot override: clear it so a later dataclasses.replace
            # with a new `raster` is not silently reverted; `raster.engine`
            # is the single source of truth from here on
            self.engine = None

    def position_lr_scale_at(self, iteration: int) -> float:
        """Multiplier on the position lr at a (1-based) iteration."""
        if self.position_lr_decay_steps is None:
            return 1.0
        from ..optim.lr_schedule import exponential_decay

        return exponential_decay(
            iteration, self.position_lr_decay_steps, 1.0,
            self.position_lr_final_scale,
        )

    def sh_degree_at(self, iteration: int) -> int:
        """Active SH degree at a (1-based) training iteration."""
        if self.sh_degree_interval is None:
            return self.sh_degree
        return min((iteration - 1) // self.sh_degree_interval, self.sh_degree)

    def lr_vector(self, dtype=np.float64) -> np.ndarray:
        """Packed per-column learning rates."""
        return packed_lr_vector(scene_extent=self.scene_extent, dtype=dtype)

    def adam_config(self, lr: np.ndarray) -> AdamConfig:
        """Adam config with the given (sliced) lr vector."""
        return AdamConfig(
            lr=lr, beta1=self.beta1, beta2=self.beta2, eps=self.eps
        )
