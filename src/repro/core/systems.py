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
  across shards.
* :class:`OutOfCoreGSScaleSystem` — the sharded system with an out-of-core
  host tier: each shard's non-geometric state spills to page files
  (:mod:`repro.core.pager`) and only ``resident_shards`` shards occupy
  host DRAM at once, with per-view spill/prefetch and disk traffic
  metered on the ledger's page channel.

A :class:`~repro.sim.memory.MemoryTracker` accounts device bytes in fp32
equivalents, so OOM behaviour and peak-memory ratios can be asserted
functionally, not just modeled. Every system renders through the
rasterization backend selected by ``GSScaleConfig.raster.engine`` (see
``docs/raster_engines.md``); the store/system layering itself is described
in ``docs/architecture.md``.
"""

from __future__ import annotations

import os
import tempfile
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..cameras.camera import Camera
from ..gaussians import GaussianModel, layout
from ..render import projection, render, render_backward
# unused here (every cull is ``store.visible``), but ``perfbench/tests``
# pins the module-level names a traced run rebinds, this one included
from ..render import frustum_cull  # noqa: F401
from ..render.culling import CullResult
from ..sim.memory import ACTIVATION_BYTES_PER_PIXEL, MemoryTracker
from ..telemetry import trace as _trace
from ..telemetry.trace import span as _span
from ..train.loss import photometric_loss
from .config import GSScaleConfig
from .pager import ResidentSet, SpillStats, _AsyncPrefetcher
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
    crossed the disk interface — smaller when a serving store's page
    codec compresses (training pages are raw: the two are equal).
    ``page_in_bytes / page_in_disk_bytes`` is the effective
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
        self.memory = MemoryTracker(capacity_bytes=config.device_capacity_bytes)
        self.ledger = TransferLedger()
        self._lr = config.lr_vector(dtype=model.dtype)
        self._setup(model)

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

    def _cull(self, camera: Camera, keep: str | None = None) -> CullResult:
        """What ``camera`` sees, asked where the geometry lives; a cull a
        render follows keeps its projection (``keep="backward"``), one
        that only counts keeps nothing."""
        return self.store.visible(camera, keep=keep)

    def _count_visible(self, camera: Camera) -> int:
        return self._cull(camera).num_visible

    def _plan_regions(
        self, camera: Camera
    ) -> list[tuple[Camera, int, CullResult]]:
        """``(camera, x_offset, cull)`` of every render region of this
        view. One region is rendered from the whole-view cull; a split
        view's regions from the split search's last two culls."""
        whole = self._cull(camera, keep="backward")
        if (
            self.splits_images
            and whole.active_ratio > self.config.mem_limit
            and camera.width >= 2
        ):
            split = find_balanced_split_by(
                self._count_visible, camera, cull_fn=self._cull
            )
            return [
                (region_cam, x_offset, cull)
                for (region_cam, x_offset), cull in zip(
                    split.regions, split.culls
                )
            ]
        return [(camera, 0, whole)]

    def _render_one(
        self,
        compact: GaussianModel,
        camera: Camera,
        gt_region: np.ndarray,
        pixel_weight: float,
        screen: projection.ScreenRows | None = None,
    ) -> tuple[np.ndarray, np.ndarray, float, float, float]:
        """Render a (possibly cropped) view of a compact visible-set model
        and return packed gradients scaled to whole-image units; ``screen``
        is the region cull's projection of the compact rows."""
        act_bytes = camera.num_pixels * ACTIVATION_BYTES_PER_PIXEL
        self.memory.allocate("activations", act_bytes)
        try:
            with _span("train/forward", "train") as fwd:
                res = render(
                    compact,
                    camera,
                    sh_degree=self.config.sh_degree,
                    background=self.config.background,
                    valid_ids=np.arange(compact.num_gaussians),
                    config=self.config.raster,
                    screen=screen,
                )
                loss = photometric_loss(
                    res.image, gt_region, ssim_lambda=self.config.ssim_lambda
                )
                if _trace.enabled():
                    _trace.record_isects(fwd, res.raster)
                    saved = res.raster.saved
                    if saved is not None:
                        # the raster state held for backward is real
                        # process memory the modeled tracker does not (and
                        # should not) charge: `activations` stands for it
                        fwd.set(saved_bytes=saved.nbytes)
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
        screen: projection.ScreenRows | None = None,
    ) -> _RegionOutput:
        """One region's stage -> render -> backward -> unstage cycle.

        The default path stages the whole visible union through the store
        composition and renders it jointly, from the projection the
        region's cull handed on (``screen``, the rows of ``ids``: the
        staged geometric columns are the ones the cull read).
        """
        with _span("train/stage", "train"):
            values = self.store.stage(ids)
        returned = False
        try:
            compact = GaussianModel(values)
            grads, m2d, loss, l1, ssim = self._render_one(
                compact, region_cam, gt_region, weight, screen
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
        with _span("train/cull", "train"):
            regions = self._plan_regions(camera)
        total_px = camera.num_pixels
        outputs: list[_RegionOutput] = []
        for region_cam, x_offset, cull in regions:
            ids = cull.valid_ids
            if ids.size == 0:
                continue
            gt_region = gt_image[:, x_offset : x_offset + region_cam.width]
            weight = region_cam.num_pixels / total_px
            outputs.append(
                self._render_region(
                    ids, region_cam, gt_region, weight, cull.screen
                )
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
    The visible union is staged and renders jointly (the Grendel gather).
    Training numerics are independent of K: with K=1 the system is
    exactly :class:`GSScaleSystem`.
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
    numerics: spill pages are raw, and the run is bit-identical to the
    in-memory sharded system under every schedule.

    There is one schedule: the prefetch leg at depth ``prefetch_depth``
    (2 by default) stages the next view's shards in the background, and
    the spill keep-set also protects the shards of the views after it,
    up to ``prefetch_depth`` views ahead. ``async_prefetch=False`` is the
    same leg at depth 0, which stages nothing and starts no thread.
    Page-outs are never backgrounded: a spill writes a dirty shard's
    pages on the training thread, and a clean shard's spill writes
    nothing.

    The run-level pager is built once, in ``__init__``: the spill
    directory, the prefetch lane and one
    :class:`~repro.core.pager.SpillStats` every store counts into, so the
    run counters (``clean_evictions``, ``prefetch_hits`` /
    ``prefetch_misses``) span densification rebuilds. :meth:`finalize`
    and :meth:`rebuild` fence the lane without stopping it: a rebuild
    only re-places, and training goes on after a checkpoint with the
    async leg intact.
    """

    name = "outofcore"

    def __init__(self, model: GaussianModel, config: GSScaleConfig):
        if config.spill_dir is None:
            # held on the system so the spill files die with it
            self._spill_tmp = tempfile.TemporaryDirectory(prefix="gsscale-spill-")
            self._spill_root = self._spill_tmp.name
        else:
            self._spill_root = config.spill_dir
        self._spill_stats = SpillStats()
        # the synchronous schedule is the same leg at depth 0: nothing is
        # ever staged, so its lane never starts a thread
        self._depth = config.prefetch_depth if config.async_prefetch else 0
        self._prefetcher = _AsyncPrefetcher(config.resident_shards)
        #: hinted shard visits the async leg covered / failed to cover,
        #: cumulative across densification rebuilds
        self.prefetch_hits = 0
        self.prefetch_misses = 0
        self._pending_hints: list[Camera] = []
        self._scheduled_hints: list[Camera] = []
        super().__init__(model, config)

    def _setup(self, model: GaussianModel) -> None:
        self.host_memory = MemoryTracker()
        self.resident_set = ResidentSet(self.config.resident_shards)
        self._cull_cache: tuple[Camera, CullResult] | None = None
        super()._setup(model)
        # through the store, never the system: a system the lane
        # referenced would be a cycle only a GC pass could free
        store = self.store
        self._prefetcher.retarget(
            self.shard_host_stores,
            lambda camera: store.visible(camera).active_shards,
        )

    @property
    def prefetch_staged_peak_bytes(self) -> int:
        """High-water host bytes of the prefetch leg's staging slot: one
        view's snapshots, at most ``resident_shards`` shards' state (0 at
        depth 0; a rebuild resets it, like ``host_memory``).

        Not part of ``host_memory`` (the installed working set the
        resident budget bounds): the buffers belong to the background
        thread until adoption. The modeled counterpart is the
        ``staging_shards`` term of
        :func:`repro.sim.memory.outofcore_host_state_bytes` — add the
        two when sizing host DRAM for an async run.
        """
        return self._prefetcher.peak_staged_bytes

    @property
    def clean_evictions(self) -> int:
        """Spills of a shard whose state had not changed since its
        page-in — evictions that wrote no page and recorded no page-out —
        cumulative across densification rebuilds (informational)."""
        return self._spill_stats.clean_evictions

    def _make_nongeo_store(
        self,
        params_block: np.ndarray,
        tracker: MemoryTracker,
        ledger: TransferLedger,
        k: int,
    ) -> ParameterStore:
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
            max_defer=cfg.max_defer,
            stats=self._spill_stats,
        )

    # -- spill / prefetch lifecycle ---------------------------------------
    def active_shard_ids(self, camera: Camera) -> list[int]:
        """Shards with at least one Gaussian inside ``camera``'s frustum."""
        return self.store.visible(camera).active_shards

    def hint_upcoming_views(self, cameras: list[Camera]) -> None:
        """Tell the prefetch leg the next several views, nearest first.

        The next :meth:`step` hands the prefetch lane a job that
        snapshots the first view's spilled shards while the current view
        renders; the step after adopts the buffers instead of stalling on
        the disk read. The first ``prefetch_depth`` views also form the
        lookahead :meth:`spill_inactive` keeps resident. The lane lives
        as long as the system, so hints keep working after
        :meth:`finalize` (a checkpoint, a resumed ``train()``) and
        across rebuilds. At depth 0 (the synchronous
        schedule) nothing is staged or kept, so callers can hint
        unconditionally (the :class:`~repro.core.trainer.Trainer` does).
        """
        self._pending_hints = list(cameras)

    @property
    def prefetch_depth(self) -> int:
        """Views of the hint the prefetch leg reads: it stages the first
        and keeps the shards of up to this many resident at the spill
        (``config.prefetch_depth`` with ``async_prefetch``, else 0, the
        synchronous schedule)."""
        return self._depth

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
        hinted, staged = self._prefetcher.take(camera)
        with _span("train/cull", "train"):
            whole = self.store.visible(camera, keep="backward")
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
                # spill keep-set buys (the shard never left host DRAM), as
                # much a staging hit as an adopted snapshot
                self.prefetch_hits += 1
            elif hinted:
                # a miss only when the async leg had its chance: a staging
                # job ran for this very view and still failed to cover the
                # shard (stale snapshot, wrong prediction, racing spill)
                self.prefetch_misses += 1
            store.page_in()
        # this view's working set is settled: start staging the next
        # hinted view in the background, overlapped with the render
        self._scheduled_hints = []
        if self._pending_hints:
            hints, self._pending_hints = self._pending_hints, []
            nxt = [c for c in hints if c is not camera][: self._depth]
            if nxt:
                self._scheduled_hints = nxt
                # when the next step trains this view again, its take
                # would drop a view staged now unread: stage only a
                # next view that differs from this one
                if nxt[0] is hints[0]:
                    self._prefetcher.schedule(nxt[0])
        return active

    def _cull(self, camera: Camera, keep: str | None = None) -> CullResult:
        # geometry is immutable between prefetch and region planning
        # (gradients land after rendering), so the cached cull is exact,
        # and so is the projection it keeps
        if self._cull_cache is not None and self._cull_cache[0] is camera:
            return self._cull_cache[1]
        return super()._cull(camera, keep)

    def spill_inactive(self, active: list[int]) -> None:
        """Spill every resident shard the view left untouched.

        At ``prefetch_depth > 1`` the scheduled lookahead also protects
        shards the *upcoming* views need (nearest view first, while the
        keep-set stays inside the resident budget): spilling a shard the
        next views will page right back in is the depth-1 thrash the
        lookahead exists to avoid. Depths 0 and 1 spill every shard the
        view left untouched.
        """
        keep = set(active)
        if self._depth > 1:
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

    def _fence(self) -> None:
        """Wait until the prefetch lane settles, empty its slot and drop
        the hints. Afterwards no prefetch still reads a page; the lane
        stays up."""
        self._pending_hints = []
        self._scheduled_hints = []
        self._prefetcher.fence()

    def rebuild(self, model: GaussianModel) -> None:
        # the new stores reuse the spill files' paths
        self._fence()
        super().rebuild(model)

    def finalize(self) -> None:
        super().finalize()
        # the checkpoint fence: save_checkpoint finalizes first, so no
        # prefetch still reads a page while state is serialized
        self._fence()


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
