"""Configuration of the GS-Scale training engine."""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..gaussians.layout import SH_DEGREE
from ..optim.base import AdamConfig, packed_lr_vector
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
        sh_degree: spherical-harmonics degree every system renders and
            trains at, from the first iteration on.
        ssim_lambda: DSSIM weight in the photometric loss.
        scene_extent: world radius; scales the position learning rate.
            The per-column learning rates are a constant of the run
            (:meth:`lr_vector`): the deferred update's closed-form
            catch-up (paper Figure 10) is exact only at a fixed rate.
        eps: Adam epsilon (1e-15 per gsplat); the moment decays are
            :class:`~repro.optim.base.AdamConfig`'s defaults.
        device_capacity_bytes: optional simulated GPU capacity; the
            engine's MemoryTracker raises MemoryError past it, reproducing
            the OOM behaviour of Figure 11. For the ``sharded`` system this
            caps the *aggregate* across shards.
        num_shards: shard count of the ``sharded`` system (spatial
            partition of the Gaussian set; ignored by the other systems).
            The per-shard cull runs serially inside the store.
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
            with compute (on by default): the prefetch lane snapshots the
            next view's spilled shards (``DiskStore.preload``) into one
            staging slot while the current view renders, and the next
            step adopts the buffers instead of reading disk on the
            critical path. Needs
            to be told the upcoming views
            (``OutOfCoreGSScaleSystem.hint_upcoming_views``; the
            :class:`~repro.core.trainer.Trainer` does so
            automatically), also after ``finalize()``: a resumed
            ``train()`` keeps prefetching. ``False`` is the synchronous
            schedule: the same leg at depth 0, which stages nothing
            (the system reports ``prefetch_depth == 0``). Numerics are
            identical under every schedule.
        page_codec: must be ``"raw"``: training spill pages are stored
            exactly (memory-mapped native dtype), so placement never
            changes numerics. Page codecs serve read-only pages
            (``PagedServingStore(codec=)``). Kept only so callers that
            pass the default keep working.
        prefetch_depth: how many upcoming views the prefetch leg reads
            with ``async_prefetch`` on (>= 1; ignored when
            ``async_prefetch`` is off). The background worker snapshots
            only the next view; at depth 2 and beyond the spill also
            keeps the upcoming views' shards resident, which pays off on
            locality-ordered view schedules (``view_order="locality"``).
        write_behind: must be ``False``: write-behind spilling was
            retired (it bought no steady-state throughput), so a spill
            writes its pages on the thread that spills. Kept only so
            callers that pass the default keep working.
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
    ssim_lambda: float = DEFAULT_SSIM_LAMBDA
    scene_extent: float = 1.0
    eps: float = 1e-15
    device_capacity_bytes: int | None = None
    num_shards: int = 4
    shard_device_capacity_bytes: int | None = None
    spill_dir: str | None = None
    resident_shards: int = 1
    async_prefetch: bool = True
    page_codec: str = "raw"
    prefetch_depth: int = 2
    write_behind: bool = False
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
        if self.page_codec != "raw":
            raise ValueError(
                f"page_codec={self.page_codec!r}: training pages are raw "
                "only; page codecs serve read-only pages "
                "(PagedServingStore(codec=))"
            )
        if self.write_behind:
            raise ValueError(
                "write_behind=True: write-behind spilling was retired; "
                "a spill writes its pages on the thread that spills"
            )
        if self.prefetch_depth < 1:
            raise ValueError("prefetch_depth must be >= 1")
        if self.engine is not None:
            if self.engine != self.raster.engine:
                # replace() re-runs RasterConfig validation on the name
                self.raster = replace(self.raster, engine=self.engine)
            # one-shot override: clear it so a later dataclasses.replace
            # with a new `raster` is not silently reverted; `raster.engine`
            # is the single source of truth from here on
            self.engine = None

    def lr_vector(self, dtype=np.float64) -> np.ndarray:
        """Packed per-column learning rates."""
        return packed_lr_vector(scene_extent=self.scene_extent, dtype=dtype)

    def adam_config(self, lr: np.ndarray) -> AdamConfig:
        """Adam config with the given (sliced) lr vector."""
        return AdamConfig(lr=lr, eps=self.eps)
