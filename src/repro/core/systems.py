"""Functional training systems as thin step-loops over parameter stores.

Unlike :mod:`repro.sim` (which *models time*), these systems *execute
training*: real culling, real rendering, real gradients, real optimizer
state. All placement policy — which column block lives where, staging,
ledger traffic, memory charges, lazy commits, what a camera sees
(``store.visible``) and what the composition is made of
(``store.leaves``) — lives in :mod:`repro.core.stores`; a system is just
a store composition plus the per-iteration loop (cull, optionally split,
render, aggregate, hand gradients back):

* :class:`GPUOnlySystem` — one :class:`~repro.core.stores.DeviceStore`
  over all 59 columns.
* :class:`BaselineOffloadSystem` — Section 4.1: one
  :class:`~repro.core.stores.HostStore` over all 59 columns, full rows
  staged per iteration, dense Adam on the host.
* :class:`GSScaleSystem` — Sections 4.2-4.4: a
  :class:`~repro.core.stores.HybridStore` of a device-resident geometric
  block (selective offloading) and a forwarding host store (parameter
  forwarding + lazy commits, optionally deferred), with balance-aware
  image splitting.
* :class:`ShardedGSScaleSystem` — the Grendel/TideGS regime on top of the
  same stores: the Gaussian set is spatially partitioned into K shards,
  each backed by its own hybrid store with a per-shard device tracker and
  transfer ledger (one simulated GPU per shard), per-view shard activation
  via the store's per-shard frustum cull, host-side gradient aggregation
  across shards, and with the ``fragment`` raster engine a per-shard
  render pipeline (no shard's rows are ever gathered into a packed union
  matrix) whose rasterization fans out over the block threads of the
  training process.
* :class:`OutOfCoreGSScaleSystem` — the sharded system with an out-of-core
  host tier: each shard's non-geometric state spills to page files
  (:mod:`repro.core.pager`) and only ``resident_shards`` shards occupy
  host DRAM at once, with per-view spill/prefetch and disk traffic
  metered on the ledger's page channel.

A :class:`~repro.sim.memory.MemoryTracker` accounts device bytes in fp32
equivalents, so OOM behaviour and peak-memory ratios can be asserted
functionally, not just modeled. Every system renders through the
rasterization backend selected by ``GSScaleConfig.engine`` (see
``docs/raster_engines.md``); the store/system layering itself is described
in ``docs/architecture.md``.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..cameras.camera import Camera
from ..gaussians import GaussianModel, layout
from ..render import (
    FragmentSource,
    projection,
    rasterize_backward_fragment,
    rasterize_fragment_sources,
    render,
    render_backward,
)
# unused here (every cull is ``store.visible``), but ``perfbench/tests``
# pins the module-level names a traced run rebinds, this one included
from ..render import frustum_cull  # noqa: F401
from ..render.culling import CullResult
from ..sim.memory import ACTIVATION_BYTES_PER_PIXEL, MemoryTracker
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from ..telemetry.trace import span as _span
from ..train.loss import photometric_loss
from .config import GSScaleConfig
from .pager import ResidentSet, _AsyncPrefetcher, _WriteBehindWriter
from .splitting import find_balanced_split_by, spatial_partition
from .stores import (
    DeviceStore,
    DiskStore,
    HostStore,
    HybridStore,
    ParameterStore,
    ShardedStore,
)


@dataclass
class TransferLedger:
    """Counts of simulated PCIe and disk-paging traffic.

    Two channels: the PCIe channel (``h2d``/``d2h``, staging windows and
    gradient returns) and the disk channel (``page_in``/``page_out``, the
    out-of-core tier spilling and prefetching shard state). A ledger built
    with a ``parent`` mirrors every record into it, so per-shard ledgers
    roll up into the system-wide ledger the trainer reads.

    The disk channel meters two sizes per transfer: ``page_*_bytes`` is
    the decoded working-set size (fp32-equivalent accounting, what the
    host gains or frees), while ``page_*_disk_bytes`` is what actually
    crossed the disk interface — smaller when the store's page codec
    compresses. ``page_in_bytes / page_in_disk_bytes`` is the effective
    disk-bandwidth multiplier the codec buys. A page-out is a write,
    recorded once per changed state a spill writes out: the spill of a
    clean :class:`~repro.core.stores.DiskStore` records nothing here.
    """

    h2d_bytes: int = 0
    d2h_bytes: int = 0
    h2d_count: int = 0
    d2h_count: int = 0
    page_in_bytes: int = 0
    page_out_bytes: int = 0
    page_in_count: int = 0
    page_out_count: int = 0
    page_in_disk_bytes: int = 0
    page_out_disk_bytes: int = 0
    parent: "TransferLedger | None" = None

    def record_h2d(self, num_bytes: int) -> None:
        """Record a host-to-device transfer."""
        self.h2d_bytes += num_bytes
        self.h2d_count += 1
        if self.parent is not None:
            self.parent.record_h2d(num_bytes)

    def record_d2h(self, num_bytes: int) -> None:
        """Record a device-to-host transfer."""
        self.d2h_bytes += num_bytes
        self.d2h_count += 1
        if self.parent is not None:
            self.parent.record_d2h(num_bytes)

    def record_page_in(self, num_bytes: int, disk_bytes: int | None = None) -> None:
        """Record a disk-to-host page-in (out-of-core prefetch).

        ``disk_bytes`` is the encoded on-disk size; ``None`` means the
        page was stored uncompressed (disk == decoded).
        """
        self.page_in_bytes += num_bytes
        self.page_in_count += 1
        self.page_in_disk_bytes += num_bytes if disk_bytes is None else disk_bytes
        if self.parent is not None:
            self.parent.record_page_in(num_bytes, disk_bytes)

    def record_page_out(self, num_bytes: int, disk_bytes: int | None = None) -> None:
        """Record a host-to-disk page-out (an out-of-core spill that
        writes its pages)."""
        self.page_out_bytes += num_bytes
        self.page_out_count += 1
        self.page_out_disk_bytes += num_bytes if disk_bytes is None else disk_bytes
        if self.parent is not None:
            self.parent.record_page_out(num_bytes, disk_bytes)

    def counts(self) -> dict[str, int]:
        """The counter fields as a plain dict (no ``parent``).

        The single rollup surface: shard reports and ad-hoc consumers
        read this instead of re-listing the fields.
        """
        from dataclasses import fields as _fields

        return {
            f.name: getattr(self, f.name)
            for f in _fields(self)
            if f.name != "parent"
        }


@dataclass
class StepReport:
    """Outcome of one training step.

    Attributes:
        iteration: 1-based step index.
        loss, l1, ssim: photometric loss and its components. A step in
            which nothing was visible reports ``loss = l1 = 0.0`` and
            ``ssim = nan`` (there was no image to compare; consumers
            averaging per-step SSIM must skip NaNs, as
            :attr:`repro.core.trainer.TrainingHistory.mean_ssim` does).
        num_visible: Gaussians inside the view frustum (union of regions).
        num_regions: 1, or 2+ when image splitting fired.
        valid_ids: the visible indices (for densification).
        mean2d_abs: screen-gradient magnitudes aligned with ``valid_ids``.
    """

    iteration: int
    loss: float
    l1: float
    ssim: float
    num_visible: int
    num_regions: int
    valid_ids: np.ndarray = field(repr=False)
    mean2d_abs: np.ndarray = field(repr=False)


@dataclass
class ShardReport:
    """Per-shard accounting snapshot of a :class:`ShardedGSScaleSystem`.

    ``page_in_bytes``/``page_out_bytes`` stay zero unless the shard's host
    state lives in the out-of-core tier.
    """

    shard: int
    num_gaussians: int
    peak_bytes: int
    live_bytes: int
    h2d_bytes: int
    d2h_bytes: int
    h2d_count: int
    d2h_count: int
    page_in_bytes: int = 0
    page_out_bytes: int = 0


@dataclass
class _RegionOutput:
    ids: np.ndarray
    grads: np.ndarray
    mean2d_abs: np.ndarray
    loss: float
    l1: float
    ssim: float


def locality_view_order(cameras: list[Camera]) -> np.ndarray:
    """View schedule that keeps consecutive views spatially close.

    Greedy nearest-neighbor walk over the camera centers, starting from
    the first view. Out-of-core training pays one shard swap whenever the
    active shard set changes; ordering views so neighbors share a
    resident set amortizes each page-in over many views — the
    ``OUTOFCORE_VIEW_LOCALITY`` assumption of ``sim/timeline.py``, made
    real. Deterministic for a fixed camera list.
    """
    n = len(cameras)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    centers = np.stack([cam.center for cam in cameras])
    remaining = np.ones(n, dtype=bool)
    order = np.empty(n, dtype=np.int64)
    order[0] = 0
    remaining[0] = False
    for i in range(1, n):
        d = np.linalg.norm(centers - centers[order[i - 1]], axis=1)
        d[~remaining] = np.inf
        order[i] = int(np.argmin(d))
        remaining[order[i]] = False
    return order


class TrainingSystem(ABC):
    """Common step-loop machinery; subclasses supply a store composition.

    ``_setup`` must set ``self.store`` (a :class:`ParameterStore` spanning
    all 59 columns) and ``self._num_gaussians``. The base :meth:`step`
    then runs the paper's iteration: plan regions (with balance-aware
    image splitting when the subclass enables it), cull, stage, render,
    return gradients per region, commit the previous step's lazy update,
    aggregate on the host, and hand the step's gradients to the store.
    """

    name = "abstract"

    #: whether views whose active ratio exceeds ``mem_limit`` are split
    #: (Section 4.4); only the staged-offload systems benefit
    splits_images = False

    store: ParameterStore

    def __init__(self, model: GaussianModel, config: GSScaleConfig):
        self.config = config
        self.iteration = 0
        if config.telemetry:
            # idempotent: every telemetry=True consumer shares one tracer
            _trace.install()
        self.memory = MemoryTracker(capacity_bytes=config.device_capacity_bytes)
        self.ledger = TransferLedger()
        self._lr = config.lr_vector(dtype=model.dtype)
        self._setup(model)

    @property
    def raster_engine(self) -> str:
        """Rasterization backend every render of this system goes through."""
        return self.config.raster.engine

    # -- subclass surface --------------------------------------------------
    @abstractmethod
    def _setup(self, model: GaussianModel) -> None:
        """Build the store composition (placement + optimizers)."""

    def materialized_model(self) -> GaussianModel:
        """Mathematically current parameters as a plain model (copy),
        including pending gradients and deferred drift."""
        return GaussianModel(self.store.materialize())

    def finalize(self) -> None:
        """Commit any pending/lazy state (end of training)."""
        self.store.flush()

    def rebuild(self, model: GaussianModel) -> None:
        """Re-place parameters after a structural change (densification).

        Run-level accounting survives the swap: the ledger keeps counting
        (the stores ``_setup`` builds record into it, per-shard ledgers
        through ``parent=``) and the fresh tracker — live state is sized
        by N — starts from the run's high-water mark.
        """
        peak = self.memory.peak_bytes
        self.memory = MemoryTracker(capacity_bytes=self.config.device_capacity_bytes)
        self.memory.peak_bytes = peak
        self._setup(model)

    def checkpoint_entries(self) -> list[tuple[str, ParameterStore, np.ndarray | None]]:
        """``(prefix, leaf store, global row ids or None)`` triples for
        :mod:`repro.core.checkpoint`."""
        return list(self.store.leaves())

    # -- shared helpers ----------------------------------------------------
    @property
    def num_gaussians(self) -> int:
        """Scene size."""
        return self._num_gaussians

    def _scheduled_lr(self) -> np.ndarray | None:
        """Full lr vector for this iteration, or None when static."""
        if self.config.position_lr_decay_steps is None:
            return None
        lr = self._lr.copy()
        lr[layout.MEAN_SLICE] *= self.config.position_lr_scale_at(self.iteration)
        return lr

    def _cull(self, camera: Camera) -> CullResult:
        """What ``camera`` sees, asked where the geometry lives."""
        return self.store.visible(camera)

    def _count_visible(self, camera: Camera) -> int:
        return self._cull(camera).num_visible

    def _plan_regions(
        self, camera: Camera
    ) -> tuple[list[tuple[Camera, int]], CullResult | None]:
        """Render regions for this view, plus the whole-view cull result
        when it can be reused (single-region case)."""
        whole = self._cull(camera)
        if (
            self.splits_images
            and whole.active_ratio > self.config.mem_limit
            and camera.width >= 2
        ):
            split = find_balanced_split_by(self._count_visible, camera)
            return list(split.regions), None
        return [(camera, 0)], whole

    def _render_one(
        self,
        compact: GaussianModel,
        camera: Camera,
        gt_region: np.ndarray,
        pixel_weight: float,
    ) -> tuple[np.ndarray, np.ndarray, float, float, float]:
        """Render a (possibly cropped) view of a compact visible-set model
        and return packed gradients scaled to whole-image units."""
        act_bytes = camera.num_pixels * ACTIVATION_BYTES_PER_PIXEL
        self.memory.allocate("activations", act_bytes)
        try:
            with _span("train/forward", "train") as fwd:
                res = render(
                    compact,
                    camera,
                    sh_degree=self.config.sh_degree_at(self.iteration),
                    background=self.config.background,
                    valid_ids=np.arange(compact.num_gaussians),
                    config=self.config.raster,
                )
                loss = photometric_loss(
                    res.image, gt_region, ssim_lambda=self.config.ssim_lambda
                )
                if _trace.enabled():
                    _metrics.record_isects(fwd, res.raster)
                    saved = res.raster.saved
                    if saved is not None:
                        # the raster state held for backward is real
                        # process memory the modeled tracker does not (and
                        # should not) charge: `activations` stands for it
                        saved_bytes = saved.nbytes
                        fwd.set(saved_bytes=saved_bytes)
                        _metrics.get_registry().gauge(
                            "render/saved_pair_bytes"
                        ).set_max(saved_bytes)
            with _span("train/backward", "train"):
                back = render_backward(
                    compact, camera, res, loss.grad_image * pixel_weight
                )
        finally:
            self.memory.free("activations", act_bytes)
        return (
            back.param_grads,
            back.mean2d_abs,
            loss.loss * pixel_weight,
            loss.l1 * pixel_weight,
            loss.ssim,
        )

    def _render_region(
        self,
        ids: np.ndarray,
        region_cam: Camera,
        gt_region: np.ndarray,
        weight: float,
    ) -> _RegionOutput:
        """One region's stage -> render -> backward -> unstage cycle.

        The default path stages the whole visible union through the store
        composition and renders it jointly; the sharded systems override
        this for the ``fragment`` engine to render shard by shard without
        ever assembling the union's packed matrix.
        """
        with _span("train/stage", "train"):
            values = self.store.stage(ids)
        returned = False
        try:
            compact = GaussianModel(values)
            grads, m2d, loss, l1, ssim = self._render_one(
                compact, region_cam, gt_region, weight
            )
            returned = True
        finally:
            with _span("train/unstage", "train"):
                self.store.unstage(ids, returned=returned)
        return _RegionOutput(
            ids=ids, grads=grads, mean2d_abs=m2d, loss=loss, l1=l1, ssim=ssim
        )

    @staticmethod
    def _aggregate(regions: list[_RegionOutput]) -> _RegionOutput:
        """Sum per-region gradients on the "host" (Section 4.4: gradients
        are aggregated on the CPU, then a single optimizer update runs).
        The sharded system funnels every shard's regions through the same
        path — host-side aggregation across shards."""
        if len(regions) == 1:
            return regions[0]
        all_ids = np.concatenate([r.ids for r in regions])
        union, inverse = np.unique(all_ids, return_inverse=True)
        # sorted segment reduction: a stable sort groups each id's rows
        # while keeping them in concatenation order, and rank k of every
        # segment is added in one pass — a0 + a1 + a2 ..., the order an
        # ``np.add.at`` scatter sums in (``np.add.reduceat`` would not:
        # it adds a0 to the sum of the rest)
        order = np.argsort(inverse, kind="stable")
        counts = np.bincount(inverse, minlength=union.size)
        starts = np.cumsum(counts) - counts
        all_grads = np.concatenate([r.grads for r in regions])
        all_m2d = np.concatenate([r.mean2d_abs for r in regions])
        first = order[starts]
        grads = all_grads[first]
        m2d = all_m2d[first]
        for rank in range(1, int(counts.max())):
            seg = np.flatnonzero(counts > rank)
            rows = order[starts[seg] + rank]
            grads[seg] += all_grads[rows]
            m2d[seg] += all_m2d[rows]
        return _RegionOutput(
            ids=union,
            grads=grads,
            mean2d_abs=m2d,
            loss=sum(r.loss for r in regions),
            l1=sum(r.l1 for r in regions),
            ssim=float(np.mean([r.ssim for r in regions])),
        )

    # -- the unified training step ----------------------------------------
    def step(self, camera: Camera, gt_image: np.ndarray) -> StepReport:
        """Run one training iteration through the store composition."""
        self.iteration += 1
        tok = _trace.begin("train/step", "train")
        try:
            return self._step_impl(camera, gt_image)
        finally:
            _trace.end(tok)

    def _step_impl(self, camera: Camera, gt_image: np.ndarray) -> StepReport:
        lr = self._scheduled_lr()
        if lr is not None:
            self.store.set_lr(lr)

        with _span("train/cull", "train"):
            regions, whole = self._plan_regions(camera)
        total_px = camera.num_pixels
        outputs: list[_RegionOutput] = []
        for region_cam, x_offset in regions:
            if whole is not None and len(regions) == 1:
                cull = whole
            else:
                with _span("train/cull", "train"):
                    cull = self._cull(region_cam)
            ids = cull.valid_ids
            if ids.size == 0:
                continue
            gt_region = gt_image[:, x_offset : x_offset + region_cam.width]
            weight = region_cam.num_pixels / total_px
            outputs.append(
                self._render_region(ids, region_cam, gt_region, weight)
            )

        # the lazy host commit of iteration N-1 (overlapped in real time)
        with _span("train/commit", "train"):
            self.store.commit()

        if not outputs:
            # nothing visible: no image was rendered (ssim is undefined —
            # NaN, not a fake 1.0), but every optimizer still ticks
            with _span("train/return_grads", "train"):
                self.store.return_grads(
                    np.empty(0, dtype=np.int64),
                    np.zeros((0, self.store.dim), dtype=self.store.dtype),
                )
            return StepReport(
                iteration=self.iteration, loss=0.0, l1=0.0,
                ssim=float("nan"),
                num_visible=0, num_regions=len(regions),
                valid_ids=np.empty(0, dtype=np.int64),
                mean2d_abs=np.empty(0, dtype=self.store.dtype),
            )

        with _span("train/aggregate", "train"):
            agg = self._aggregate(outputs)
        with _span("train/return_grads", "train"):
            self.store.return_grads(agg.ids, agg.grads)

        return StepReport(
            iteration=self.iteration,
            loss=agg.loss,
            l1=agg.l1,
            ssim=agg.ssim,
            num_visible=int(agg.ids.size),
            num_regions=len(regions),
            valid_ids=agg.ids,
            mean2d_abs=agg.mean2d_abs,
        )


class GPUOnlySystem(TrainingSystem):
    """Everything on the device; the paper's GPU-only reference."""

    name = "gpu_only"

    def _setup(self, model: GaussianModel) -> None:
        self._num_gaussians = model.num_gaussians
        self.store = DeviceStore(
            model.params,
            layout.ALL_BLOCK,
            self.config.adam_config(self._lr),
            self.memory,
        )


class BaselineOffloadSystem(TrainingSystem):
    """Baseline host offloading (Section 4.1, Figure 6): all parameters and
    optimizer state on the host; full 59-parameter rows staged on demand
    (Challenge 1: culling runs on the CPU over host-resident params);
    dense Adam on the host CPU (Challenge 2)."""

    name = "baseline_offload"

    def _setup(self, model: GaussianModel) -> None:
        self._num_gaussians = model.num_gaussians
        self.store = HostStore(
            model.params,
            layout.ALL_BLOCK,
            self.config.adam_config(self._lr),
            self.memory,
            self.ledger,
        )


class GSScaleSystem(TrainingSystem):
    """GS-Scale with selective offloading, parameter forwarding, optional
    deferred optimizer update, and balance-aware image splitting."""

    name = "gsscale"
    splits_images = True

    def __init__(
        self, model: GaussianModel, config: GSScaleConfig, deferred: bool = True
    ):
        self.deferred = deferred
        super().__init__(model, config)
        if not deferred:
            self.name = "gsscale_no_deferred"

    def _setup(self, model: GaussianModel) -> None:
        self._num_gaussians = model.num_gaussians
        cfg = self.config
        # selective offloading: geometric block + its optimizer state live
        # on the device (Section 4.2.1)
        self._geo_store = DeviceStore(
            model.geometric,
            layout.GEOMETRIC_BLOCK,
            cfg.adam_config(self._lr[layout.GEOMETRIC_SLICE]),
            self.memory,
            label="geo",
        )
        # the non-geometric block stays on the host behind the forwarding
        # pipeline (peeked staging + lazy commits, Sections 4.2.2/4.3)
        self._host_store = HostStore(
            model.non_geometric,
            layout.NON_GEOMETRIC_BLOCK,
            cfg.adam_config(self._lr[layout.NON_GEOMETRIC_SLICE]),
            self.memory,
            self.ledger,
            forwarding=True,
            deferred=self.deferred,
            max_defer=cfg.max_defer,
        )
        self.store = HybridStore([self._geo_store, self._host_store])


class ShardedGSScaleSystem(TrainingSystem):
    """GS-Scale over a spatial partition of the Gaussian set (K shards).

    Each shard is a hybrid store (device geometric + forwarding host
    non-geometric) with its own :class:`~repro.sim.memory.MemoryTracker`
    (capped by ``shard_device_capacity_bytes``) and
    :class:`TransferLedger`, both rolling up into the system-wide
    aggregates — one simulated GPU per shard, as in Grendel's
    Gaussian-sharded training and TideGS's out-of-core blocks.

    Per view, every shard frustum-culls its own geometry — inside
    :meth:`~repro.core.stores.ShardedStore.visible`, serially, and only
    the shards the candidate bound cannot clear are projected; shards
    entirely outside the frustum are skipped: no staging, no traffic.
    Rendering depends on the engine: by default the visible union is
    staged and renders jointly (the Grendel gather); with the
    ``fragment`` engine the union is never assembled — each shard stages
    and projects its own rows, and the host composites per-shard fragment
    buffers (:meth:`_render_region_fragment`), the shards' rasterization
    fanned out over the block threads (:func:`repro.pool.map_blocks`, one
    per usable CPU; no training path starts a process). Training
    numerics are independent of K and of the fan-out: with K=1 the system
    is exactly :class:`GSScaleSystem`.
    """

    name = "sharded"
    splits_images = True

    def _setup(self, model: GaussianModel) -> None:
        self._num_gaussians = model.num_gaussians
        cfg = self.config
        self.shard_rows = spatial_partition(model.means, cfg.num_shards)
        self.shard_trackers: list[MemoryTracker] = []
        self.shard_ledgers: list[TransferLedger] = []
        #: each shard's non-geometric placement, by shard index
        self.shard_host_stores: list[ParameterStore] = []
        shard_stores: list[ParameterStore] = []
        for k, rows in enumerate(self.shard_rows):
            tracker = MemoryTracker(
                capacity_bytes=cfg.shard_device_capacity_bytes,
                parent=self.memory,
            )
            ledger = TransferLedger(parent=self.ledger)
            sub = model.params[rows]
            geo = DeviceStore(
                sub[:, layout.GEOMETRIC_SLICE],
                layout.GEOMETRIC_BLOCK,
                cfg.adam_config(self._lr[layout.GEOMETRIC_SLICE]),
                tracker,
                label="geo",
            )
            host = self._make_nongeo_store(
                sub[:, layout.NON_GEOMETRIC_SLICE], tracker, ledger, k
            )
            shard_stores.append(HybridStore([geo, host]))
            self.shard_host_stores.append(host)
            self.shard_trackers.append(tracker)
            self.shard_ledgers.append(ledger)
        self.store = ShardedStore(self.shard_rows, shard_stores)

    def _make_nongeo_store(
        self,
        params_block: np.ndarray,
        tracker: MemoryTracker,
        ledger: TransferLedger,
        k: int,
    ) -> ParameterStore:
        """Placement of shard ``k``'s non-geometric block (overridable:
        the out-of-core system swaps in a :class:`DiskStore` here)."""
        cfg = self.config
        return HostStore(
            params_block,
            layout.NON_GEOMETRIC_BLOCK,
            cfg.adam_config(self._lr[layout.NON_GEOMETRIC_SLICE]),
            tracker,
            ledger,
            forwarding=True,
            deferred=True,
            max_defer=cfg.max_defer,
        )

    @property
    def num_shards(self) -> int:
        """Number of shards (stores/devices)."""
        return len(self.shard_rows)

    # -- fragment-parallel region rendering -------------------------------
    def _render_region(
        self,
        ids: np.ndarray,
        region_cam: Camera,
        gt_region: np.ndarray,
        weight: float,
    ) -> _RegionOutput:
        if self.raster_engine != "fragment":
            return super()._render_region(ids, region_cam, gt_region, weight)
        return self._render_region_fragment(ids, region_cam, gt_region, weight)

    def _render_region_fragment(
        self,
        ids: np.ndarray,
        region_cam: Camera,
        gt_region: np.ndarray,
        weight: float,
    ) -> _RegionOutput:
        """Render one region shard by shard — no union gather.

        Forward: each shard opens its own staging window (stage ->
        project -> unstage; the window is released before the next shard
        stages, so the aggregate staging peak is the *largest* shard's
        window, not the sum), contributes a :class:`FragmentSource` of
        projected columns, and the host composites fragment buffers via
        :func:`rasterize_fragment_sources`. Backward: the composited
        gradient is split along the shard boundaries of the concatenated
        row space, and each shard re-stages to run its projection adjoint
        and return its gradient slice (the second H2D window is the price
        of never holding two shards' rows at once; values are identical
        because staging is a pure optimizer peek). Numerics match the
        gather path to compositing-rounding precision (~1e-12).
        """
        cfg = self.config
        dtype = self.store.dtype
        background = (
            np.zeros(3, dtype=dtype)
            if cfg.background is None
            else np.asarray(cfg.background, dtype=dtype)
        )
        sh_degree = cfg.sh_degree_at(self.iteration)
        active = list(self.store.split(ids))

        act_bytes = region_cam.num_pixels * ACTIVATION_BYTES_PER_PIXEL
        self.memory.allocate("activations", act_bytes)
        try:
            sources: list[FragmentSource] = []
            projs = []
            for _, store, _, local in active:
                values = store.stage(local)
                try:
                    shard = GaussianModel(values)
                    proj = projection.project(
                        shard.means, shard.log_scales, shard.quats,
                        shard.opacity_logits, shard.sh, region_cam,
                        sh_degree=sh_degree,
                    )
                finally:
                    store.unstage(local, returned=False)
                projs.append(proj)
                sources.append(
                    FragmentSource(
                        means2d=proj.geom.means2d,
                        conics=proj.geom.conics,
                        colors=proj.colors,
                        opacities=proj.opacities,
                        depths=proj.geom.depths,
                        radii=proj.geom.radii,
                    )
                )

            with _span("train/forward", "train") as fwd:
                frag = rasterize_fragment_sources(
                    sources, region_cam.width, region_cam.height,
                    background=background, config=cfg.raster,
                )
                loss = photometric_loss(
                    frag.image, gt_region, ssim_lambda=cfg.ssim_lambda
                )
                if _trace.enabled():
                    _metrics.record_isects(fwd, frag)
            with _span("train/backward", "train"):
                rgrads = rasterize_backward_fragment(
                    np.concatenate([s.means2d for s in sources]),
                    np.concatenate([s.conics for s in sources]),
                    np.concatenate([s.colors for s in sources]),
                    np.concatenate([s.opacities for s in sources]),
                    frag,
                    loss.grad_image * weight,
                    background=background,
                    config=cfg.raster,
                )

            grads = np.zeros((ids.size, layout.PARAM_DIM), dtype=dtype)
            m2d = np.zeros(ids.size, dtype=dtype)
            offsets = frag.offsets
            for j, (_, store, sel, local) in enumerate(active):
                sl = slice(int(offsets[j]), int(offsets[j + 1]))
                values = store.stage(local)
                returned = False
                try:
                    shard = GaussianModel(values)
                    pgrads = projection.project_backward(
                        shard.means, shard.log_scales, shard.quats,
                        shard.sh, region_cam, projs[j],
                        grad_means2d=rgrads.means2d[sl],
                        grad_conics=rgrads.conics[sl],
                        grad_colors=rgrads.colors[sl],
                        grad_opacities=rgrads.opacities[sl],
                    )
                    returned = True
                finally:
                    store.unstage(local, returned=returned)
                grads[sel, layout.MEAN_SLICE] = pgrads.means
                grads[sel, layout.SCALE_SLICE] = pgrads.log_scales
                grads[sel, layout.QUAT_SLICE] = pgrads.quats
                grads[sel, layout.OPACITY_SLICE] = pgrads.opacity_logits
                grads[sel, layout.SH_SLICE] = pgrads.sh.reshape(
                    local.size, layout.SH_DIM
                )
                m2d[sel] = rgrads.mean2d_abs[sl]
        finally:
            self.memory.free("activations", act_bytes)
        return _RegionOutput(
            ids=ids,
            grads=grads,
            mean2d_abs=m2d,
            loss=loss.loss * weight,
            l1=loss.l1 * weight,
            ssim=loss.ssim,
        )

    # -- reporting --------------------------------------------------------
    #: ledger counters a :class:`ShardReport` carries, verbatim
    _SHARD_LEDGER_FIELDS = (
        "h2d_bytes", "d2h_bytes", "h2d_count", "d2h_count",
        "page_in_bytes", "page_out_bytes",
    )

    def shard_reports(self) -> list[ShardReport]:
        """Per-shard memory and traffic accounting."""
        reports = []
        for k, (rows, tracker, ledger) in enumerate(
            zip(self.shard_rows, self.shard_trackers, self.shard_ledgers)
        ):
            counts = ledger.counts()
            reports.append(
                ShardReport(
                    shard=k,
                    num_gaussians=int(rows.size),
                    peak_bytes=tracker.peak_bytes,
                    live_bytes=tracker.live_bytes,
                    **{f: counts[f] for f in self._SHARD_LEDGER_FIELDS},
                )
            )
        return reports


class OutOfCoreGSScaleSystem(ShardedGSScaleSystem):
    """Sharded GS-Scale with an out-of-core host tier (TideGS-style).

    Identical to :class:`ShardedGSScaleSystem` except each shard's
    non-geometric block lives in a :class:`~repro.core.stores.DiskStore`:
    parameters and Adam moments are backed by spill pages
    (:class:`~repro.core.pager.PageFile`) under ``GSScaleConfig.spill_dir``
    (a temporary directory when unset), and at most
    ``GSScaleConfig.resident_shards`` shards are paged into host DRAM at
    once (a shared :class:`~repro.core.pager.ResidentSet`).
    ``self.host_memory`` tracks the resident working set; the ledger's
    ``page_in``/``page_out`` channel meters the disk traffic.

    Each step prefetches the view's active shards, runs the ordinary
    sharded step (spilled shards page in on demand; inactive shards with
    unsaturated defer counters tick without paging at all), then spills
    whatever the view did not touch. Placement changes accounting, never
    numerics: the run is bit-identical to the in-memory sharded system.

    Three deep-tier knobs extend the leg (all default-off, preserving the
    bit-identity above): ``page_codec`` stores spilled pages compressed
    (see :mod:`repro.core.pagecodec`; ``lossless`` keeps bit-identity,
    ``float16`` trades tolerance-bounded drift for a 2x smaller disk
    leg), ``prefetch_depth`` widens the async leg's lookahead to a
    depth-D staging queue, and ``write_behind`` moves dirty page-outs to
    a background writer (epoch-fenced against :meth:`~repro.core.stores.
    DiskStore.adopt` and drained before densification rebuilds and
    checkpoints) so the admit path stops paying the write.
    """

    name = "outofcore"

    def _setup(self, model: GaussianModel) -> None:
        cfg = self.config
        if cfg.spill_dir is None:
            import tempfile

            # held on the system so the spill files die with it
            self._spill_tmp = tempfile.TemporaryDirectory(
                prefix="gsscale-spill-"
            )
            self._spill_root = self._spill_tmp.name
        else:
            self._spill_tmp = None
            self._spill_root = cfg.spill_dir
        self.host_memory = MemoryTracker()
        self.resident_set = ResidentSet(cfg.resident_shards)
        self._cull_cache: tuple[Camera, CullResult] | None = None
        self.prefetch_hits = 0
        self.prefetch_misses = 0
        self._pending_hints: list[Camera] = []
        self._scheduled_hints: list[Camera] = []
        # rebuild fences: the old prefetch thread targets old stores, and
        # every queued page-out must land before the spill files are
        # reused by the new stores
        self._close_prefetcher()
        self._sync_spill_carryover = getattr(self, "_sync_spill_carryover", 0)
        self._sync_spill_s_carryover = getattr(self, "_sync_spill_s_carryover", 0.0)
        self._clean_eviction_carryover = getattr(
            self, "_clean_eviction_carryover", 0
        )
        self._write_behind_carryover = getattr(self, "_write_behind_carryover", 0)
        for st in getattr(self, "shard_host_stores", ()):
            self._sync_spill_carryover += st.sync_spill_bytes
            self._sync_spill_s_carryover += st.sync_spill_s
            self._clean_eviction_carryover += st.clean_evictions
        self._close_writer()
        self._prefetch_staged_peak = 0  # a rebuild resets it, like host_memory
        self._prefetcher = None
        self._writer = _WriteBehindWriter() if cfg.write_behind else None
        super()._setup(model)
        if cfg.async_prefetch:
            self._prefetcher = _AsyncPrefetcher(
                self.shard_host_stores,
                self.resident_set.budget,
                self.active_shard_ids,
                depth=cfg.prefetch_depth,
            )

    @property
    def prefetch_staged_peak_bytes(self) -> int:
        """High-water host bytes of the async leg's staged double buffer.

        Not part of ``host_memory`` (the installed working set the
        resident budget bounds): the buffers belong to the background
        thread until adoption. The modeled counterpart is the
        ``staging_shards`` term of
        :func:`repro.sim.memory.outofcore_host_state_bytes` — add the
        two when sizing host DRAM for an async run.
        """
        if self._prefetcher is None:
            return self._prefetch_staged_peak
        return max(self._prefetch_staged_peak, self._prefetcher.peak_staged_bytes)

    def _close_prefetcher(self) -> None:
        prefetcher = getattr(self, "_prefetcher", None)
        if prefetcher is not None:
            self._prefetch_staged_peak = max(
                getattr(self, "_prefetch_staged_peak", 0),
                prefetcher.peak_staged_bytes,
            )
            prefetcher.close()
            self._prefetcher = None

    def _close_writer(self) -> None:
        """Drain and stop the write-behind writer (idempotent).

        The fence of the write-behind contract: after this returns every
        queued page-out has landed on disk (or its epoch went stale and
        was skipped), so checkpoints and densification rebuilds never
        race an in-flight write. Spills afterwards fall back to the
        synchronous path.
        """
        writer = getattr(self, "_writer", None)
        if writer is None:
            return
        self._writer = None
        for st in getattr(self, "shard_host_stores", ()):
            st.writer = None
        writer.close()
        self._write_behind_carryover = (
            getattr(self, "_write_behind_carryover", 0) + writer.jobs_written
        )

    @property
    def sync_spill_bytes(self) -> int:
        """Decoded bytes written *synchronously* on the training thread,
        cumulative across densification rebuilds — the admit-path disk
        stall in deterministic byte units. Write-behind runs keep this at
        zero (every page-out rides the background writer); synchronous
        runs accumulate the full page-out traffic here. A clean eviction
        writes nothing and adds nothing (see :attr:`clean_evictions`)."""
        return self._sync_spill_carryover + sum(
            st.sync_spill_bytes for st in self.shard_host_stores
        )

    @property
    def clean_evictions(self) -> int:
        """Spills of a shard whose state had not changed since its
        page-in — evictions that recorded no page-out (and, unless a
        page-in cancelled a queued write-behind page-out, wrote no page) —
        cumulative across densification rebuilds (informational)."""
        return self._clean_eviction_carryover + sum(
            st.clean_evictions for st in self.shard_host_stores
        )

    @property
    def sync_spill_seconds(self) -> float:
        """Wall-clock seconds the training thread spent in synchronous
        page-out writes (informational; byte counters are the
        deterministic comparison)."""
        return self._sync_spill_s_carryover + sum(
            st.sync_spill_s for st in self.shard_host_stores
        )

    @property
    def write_behind_jobs(self) -> int:
        """Page-outs completed by the background writer, cumulative
        across rebuilds (0 unless ``write_behind`` is on)."""
        total = getattr(self, "_write_behind_carryover", 0)
        writer = getattr(self, "_writer", None)
        if writer is not None:
            total += writer.jobs_written
        return total

    def _make_nongeo_store(
        self,
        params_block: np.ndarray,
        tracker: MemoryTracker,
        ledger: TransferLedger,
        k: int,
    ) -> ParameterStore:
        import os

        cfg = self.config
        return DiskStore(
            params_block,
            layout.NON_GEOMETRIC_BLOCK,
            cfg.adam_config(self._lr[layout.NON_GEOMETRIC_SLICE]),
            tracker,
            ledger,
            spill_path=os.path.join(self._spill_root, f"shard{k}_host"),
            host_memory=self.host_memory,
            resident_set=self.resident_set,
            forwarding=True,
            deferred=True,
            max_defer=cfg.max_defer,
            codec=cfg.page_codec,
            writer=self._writer,
        )

    # -- spill / prefetch lifecycle ---------------------------------------
    def active_shard_ids(self, camera: Camera) -> list[int]:
        """Shards with at least one Gaussian inside ``camera``'s frustum."""
        return self.store.visible(camera).active_shards

    def hint_upcoming_views(self, cameras: list[Camera]) -> None:
        """Tell the async prefetch leg the next several views, nearest
        first; only the first ``prefetch_depth`` are staged.

        With ``async_prefetch`` on, the next :meth:`step` kicks off a
        background worker that snapshots those views' spilled shards
        while the current view renders; the steps after adopt the buffers
        instead of stalling on the disk read. Without the async leg this
        is a no-op, so callers can hint unconditionally (the
        :class:`~repro.core.trainer.Trainer` does).
        """
        if self._prefetcher is not None:
            self._pending_hints = list(cameras)

    @property
    def prefetch_depth(self) -> int:
        """Lookahead depth of the async staging queue (1 = the classic
        double buffer; 0 shown when the async leg is off)."""
        return self._prefetcher.depth if self._prefetcher is not None else 0

    def prefetch(self, camera: Camera) -> list[int]:
        """Page in the view's active shards (up to the resident budget).

        The synchronous anchor of the pipeline: whatever the async leg
        managed to stage for ``camera`` is adopted here (same ledger
        records, same accounting — the read already happened off the
        critical path); everything else pages in on demand. The
        whole-view cull this needs is cached and reused by the step's own
        region planning, so prefetching adds no culling work, and the
        active shards are read off that same cull.
        """
        if self._prefetcher is not None:
            hinted, staged = self._prefetcher.take(camera)
        else:
            hinted, staged = False, {}
        whole = self.store.visible(camera)
        self._cull_cache = (camera, whole)
        active = whole.active_shards
        for k in active[: self.resident_set.budget]:
            store = self.shard_host_stores[k]
            pre = staged.pop(k, None)
            if pre is not None and store.adopt(pre):
                self.prefetch_hits += 1
                continue
            if hinted and store.is_resident:
                # already resident at a hinted view: the retention the
                # depth-D queue buys (the shard never left host DRAM), as
                # much a staging hit as an adopted snapshot
                self.prefetch_hits += 1
            elif hinted:
                # a miss only when the async leg had its chance: a staging
                # job ran for this very view and still failed to cover the
                # shard (stale snapshot, wrong prediction, racing spill)
                self.prefetch_misses += 1
            store.page_in()
        # this view's working set is settled: start staging the hinted
        # upcoming views in the background, overlapped with the render
        self._scheduled_hints = []
        if self._prefetcher is not None and self._pending_hints:
            hints, self._pending_hints = self._pending_hints, []
            nxt = [c for c in hints if c is not camera][: self._prefetcher.depth]
            if nxt:
                self._scheduled_hints = nxt
                self._prefetcher.schedule(nxt)
        return active

    def _cull(self, camera: Camera) -> CullResult:
        # geometry is immutable between prefetch and region planning
        # (gradients land after rendering), so the cached cull is exact
        if self._cull_cache is not None and self._cull_cache[0] is camera:
            return self._cull_cache[1]
        return super()._cull(camera)

    def spill_inactive(self, active: list[int]) -> None:
        """Spill every resident shard the view left untouched.

        At ``prefetch_depth > 1`` the scheduled lookahead also protects
        shards the *upcoming* views need (nearest view first, while the
        keep-set stays inside the resident budget): spilling a shard the
        staging queue just snapshotted — or that the next view will page
        right back in — is the D=1 thrash the depth-D queue exists to
        avoid. Depth 1 keeps the historical behavior exactly.
        """
        keep = set(active)
        if self._prefetcher is not None and self._prefetcher.depth > 1:
            for cam in self._scheduled_hints:
                if len(keep) >= self.resident_set.budget:
                    break
                for k in self.active_shard_ids(cam):
                    if len(keep) >= self.resident_set.budget:
                        break
                    keep.add(k)
        for k, store in enumerate(self.shard_host_stores):
            if k not in keep and store.is_resident:
                store.spill()

    def step(self, camera: Camera, gt_image: np.ndarray) -> StepReport:
        with _span("train/prefetch", "train"):
            active = self.prefetch(camera)
        try:
            report = super().step(camera, gt_image)
        finally:
            self._cull_cache = None  # geometry mutates at step end
        with _span("train/spill", "train"):
            self.spill_inactive(active)
        return report

    def finalize(self) -> None:
        self._close_prefetcher()
        super().finalize()
        # the checkpoint fence: save_checkpoint finalizes first, so every
        # queued page-out (including ones the flush's own evictions just
        # enqueued) lands before any state is serialized. Drain, don't
        # close: training may continue (mid-run checkpoints, densify).
        writer = getattr(self, "_writer", None)
        if writer is not None:
            writer.drain()

    def __del__(self):
        try:
            self._close_prefetcher()
        except Exception:
            pass
        try:
            self._close_writer()
        except Exception:
            pass


def create_system(model: GaussianModel, config: GSScaleConfig) -> TrainingSystem:
    """Factory for the Figure-11 systems plus the sharded multi-device and
    out-of-core extensions."""
    if config.system == "gpu_only":
        return GPUOnlySystem(model, config)
    if config.system == "baseline_offload":
        return BaselineOffloadSystem(model, config)
    if config.system == "gsscale_no_deferred":
        return GSScaleSystem(model, config, deferred=False)
    if config.system == "gsscale":
        return GSScaleSystem(model, config, deferred=True)
    if config.system == "sharded":
        return ShardedGSScaleSystem(model, config)
    if config.system == "outofcore":
        return OutOfCoreGSScaleSystem(model, config)
    raise ValueError(f"unknown system {config.system!r}")
