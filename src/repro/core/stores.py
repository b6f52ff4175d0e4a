"""Composable parameter-placement stores.

The paper's contribution is a *placement policy* for the packed ``(N, 59)``
parameter matrix: which column block lives where, how rows reach the device
for a render, and when gradients are committed. This module factors that
policy out of the training systems into first-class stores, each owning

* its slice of the packed parameter matrix (a :class:`~repro.gaussians.\
layout.ColumnBlock`),
* its optimizer (dense or deferred Adam behind the
  :class:`~repro.optim.base.SparseOptimizer` surface),
* its :class:`~repro.sim.memory.MemoryTracker` charges (resident state and
  per-step staging windows), and
* its :class:`~repro.core.systems.TransferLedger` traffic.

A training step drives a store through four explicit operations::

    values = store.stage(ids)        # rows for the render (H2D for host rows)
    ...render / backward...
    store.unstage(ids)               # gradient return (D2H) + staging freed
    store.commit()                   # lazy commit of the previous step
    store.return_grads(ids, grads)   # hand this step's gradients over

plus ``materialize()`` for the mathematically current values and ``flush()``
to settle all lazy state. Two more questions are answered by the store
tree itself, so a system never reaches inside its composition:
``visible(camera)`` — which rows a view touches, culled where the
geometric columns live — and ``leaves()`` — the leaf placements the tree is
made of, named as a checkpoint names them. The placements:

* :class:`DeviceStore` — rows resident on the device; gradients applied
  immediately; no PCIe traffic (the GPU-only system, and the geometric
  block under selective offloading).
* :class:`HostStore` — rows resident on the host; staging windows are
  charged to device memory and the ledger; with ``forwarding`` the staged
  values are optimizer peeks of the not-yet-committed update and gradients
  wait for the next ``commit()`` (Sections 4.2.2/4.3.3), otherwise the
  optimizer steps synchronously (the Section 4.1 baseline).
* :class:`DiskStore` — the out-of-core tier below :class:`HostStore`:
  parameters and optimizer moments spill to one
  :class:`~repro.core.pager.PageFile` each (the store owns the residency
  *sequence* — dirty pages, spill epochs, write-behind cancellation — the
  pager the bytes) and only *paged-in* stores charge host DRAM; page
  traffic is metered on the ledger's disk channel and concurrent
  residency is bounded by a :class:`~repro.core.pager.ResidentSet`
  (TideGS-style out-of-core blocks).
* :class:`HybridStore` — composition of child stores over disjoint column
  blocks presenting one packed surface (GS-Scale's device-geometric +
  host-non-geometric split; also each shard of the sharded system).
* :class:`ShardedStore` — composition of stores over disjoint row sets
  (a spatial partition: one store, tracker and ledger per shard).
"""

from __future__ import annotations

import os
import threading
import time
from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..cameras.camera import Camera
from ..gaussians import layout
from ..gaussians.layout import ColumnBlock
from ..optim.adam import DenseAdam
from ..optim.base import AdamConfig, SparseOptimizer, StepStats, ascending
from ..optim.deferred import DeferredAdam
from ..render import CullResult, frustum_cull
from ..render.culling import gated_cull
from ..sim.memory import MemoryTracker
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from .pager import PageFile, PreloadedShard, ResidentSet, _WriteBehindWriter
from .pagecodec import get_page_codec

_F32 = 4  # accounting is in float32-equivalent bytes
_PAGED_FIELDS = ("params", "m", "v")  # the state a DiskStore spills


class ParameterStore(ABC):
    """One placement of a column block of the packed parameter matrix."""

    #: the packed columns this store owns
    block: ColumnBlock

    @property
    def dim(self) -> int:
        """Number of columns owned by this store."""
        return self.block.dim

    @property
    @abstractmethod
    def num_rows(self) -> int:
        """Number of parameter rows (Gaussians) in the store."""

    # -- step-facing operations -------------------------------------------
    @abstractmethod
    def stage(self, ids: np.ndarray) -> np.ndarray:
        """Rows ``ids`` as the next render must see them.

        Host placements charge the staging window (parameters + the
        gradient buffer that will come back) to device memory and record
        the host-to-device transfer.
        """

    @abstractmethod
    def unstage(self, ids: np.ndarray, returned: bool = True) -> None:
        """Release the staging window of :meth:`stage`.

        ``returned`` records the device-to-host gradient transfer; pass
        ``False`` when unwinding from a failed render.
        """

    @abstractmethod
    def return_grads(self, ids: np.ndarray, grads: np.ndarray) -> None:
        """Hand one step's aggregated gradients to the placement policy.

        Device placements apply them immediately; forwarding host
        placements park them for the next :meth:`commit`. An empty ``ids``
        still ticks the optimizer (its step counter must advance every
        iteration).
        """

    @abstractmethod
    def commit(self) -> None:
        """Apply the lazy (parked) update of the previous step, if any."""

    @abstractmethod
    def flush(self) -> None:
        """Settle all lazy state: pending gradients and deferred drift."""

    @abstractmethod
    def materialize(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Mathematically current values (copy), including lazy state."""

    # -- shared surface ----------------------------------------------------
    @property
    def dtype(self):
        """Floating dtype of the stored parameters."""
        return self.params.dtype

    @abstractmethod
    def set_lr(self, lr_packed: np.ndarray) -> None:
        """Update learning rates from a packed-layout ``(59,)`` vector."""

    def geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resident ``(means, log_scales, quats)`` views for culling.

        Only available on stores whose block contains the geometric
        columns.
        """
        params = self._resident_params()
        return (
            params[:, self.block.local(layout.MEAN_SLICE)],
            params[:, self.block.local(layout.SCALE_SLICE)],
            params[:, self.block.local(layout.QUAT_SLICE)],
        )

    def _resident_params(self) -> np.ndarray:
        raise NotImplementedError(
            f"store over block {self.block.name!r} holds no resident rows"
        )

    def visible(self, camera: Camera) -> CullResult:
        """The rows ``camera`` sees: a frustum cull over the resident
        geometric columns, ids in this store's row space (ascending)."""
        return frustum_cull(*self.geometry(), camera)

    def leaves(
        self, prefix: str = "", rows: np.ndarray | None = None
    ) -> Iterator[tuple[str, "ParameterStore", np.ndarray | None]]:
        """``(prefix, leaf store, global row ids or None)`` for every leaf
        placement under this store, in drive order.

        ``prefix`` is the leaf's checkpoint key prefix (a file-format
        boundary: ``""``; ``geo`` / ``host``; ``shard{k}_geo`` /
        ``shard{k}_host``); ``rows`` maps the leaf's rows into the root's
        row space (``None``: the identity).
        """
        yield prefix, self, rows

    def state_dict(self) -> dict[str, np.ndarray]:
        """Optimizer + parameter state for checkpointing (leaf stores
        only: a composite's state is that of its :meth:`leaves`)."""
        raise NotImplementedError

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Restore :meth:`state_dict` output into a same-shaped store."""
        raise NotImplementedError


def _leaf_state_dict(optimizer: SparseOptimizer) -> dict[str, np.ndarray]:
    state = {
        "params": optimizer.params,
        "m": optimizer.m,
        "v": optimizer.v,
        "steps": np.array(optimizer.step_count),
    }
    if isinstance(optimizer, DeferredAdam):
        state["counter"] = optimizer.counter
    return state


def _load_leaf_state(
    optimizer: SparseOptimizer, state: dict[str, np.ndarray]
) -> None:
    optimizer.params[...] = state["params"]
    optimizer.m[...] = state["m"]
    optimizer.v[...] = state["v"]
    optimizer.step_count = int(state["steps"])
    if isinstance(optimizer, DeferredAdam):
        optimizer.counter[...] = state["counter"]


class DeviceStore(ParameterStore):
    """Rows resident on the device with a dense optimizer.

    Charges parameters, gradients, and both Adam moments to the device
    tracker at construction; staging is free (device-to-device) and
    gradients are applied synchronously.

    Args:
        params_block: ``(N, dim)`` rows of the owned block (copied).
        block: the packed columns the rows correspond to.
        adam: optimizer hyperparameters with the block's lr slice.
        memory: device tracker charged for the resident state.
        label: memory-category prefix (``"geo"`` gives ``geo_params`` ...).
    """

    def __init__(
        self,
        params_block: np.ndarray,
        block: ColumnBlock,
        adam: AdamConfig,
        memory,
        label: str = "",
    ):
        self.block = block
        self.memory = memory
        self.params = params_block.copy()
        self.optimizer: SparseOptimizer = DenseAdam(self.params, adam)
        sep = "_" if label else ""
        self._categories = (
            f"{label}{sep}params",
            f"{label}{sep}grads",
            f"{label}{sep}opt_states",
        )
        state = layout.param_bytes(self.num_rows, self.dim)
        self.memory.allocate(self._categories[0], state)
        self.memory.allocate(self._categories[1], state)
        self.memory.allocate(self._categories[2], 2 * state)

    @property
    def num_rows(self) -> int:
        return self.params.shape[0]

    def stage(self, ids: np.ndarray) -> np.ndarray:
        return self.params[ids]

    def unstage(self, ids: np.ndarray, returned: bool = True) -> None:
        pass  # nothing was staged; gradients never leave the device

    def return_grads(self, ids: np.ndarray, grads: np.ndarray) -> None:
        self.optimizer.step_rows(ids, grads)

    def commit(self) -> None:
        pass  # updates are synchronous

    def flush(self) -> None:
        pass

    def materialize(self, ids: np.ndarray | None = None) -> np.ndarray:
        if ids is None:
            return self.params.copy()
        return self.params[ids]

    def set_lr(self, lr_packed: np.ndarray) -> None:
        self.optimizer.set_lr(lr_packed[self.block.sl])

    def _resident_params(self) -> np.ndarray:
        return self.params

    def state_dict(self) -> dict[str, np.ndarray]:
        return _leaf_state_dict(self.optimizer)

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        _load_leaf_state(self.optimizer, state)


class HostStore(ParameterStore):
    """Rows resident on the host; staged to the device per step.

    Args:
        params_block: ``(N, dim)`` rows of the owned block (copied).
        block: the packed columns the rows correspond to.
        adam: optimizer hyperparameters with the block's lr slice.
        memory: device tracker charged for the staging windows.
        ledger: transfer ledger recording the staging traffic.
        forwarding: stage optimizer *peeks* of the not-yet-committed
            update and park returned gradients until :meth:`commit`
            (parameter forwarding + lazy host commit). ``False`` stages
            raw rows and steps synchronously (the baseline).
        deferred: use :class:`DeferredAdam` (requires ``forwarding``).
        max_defer: deferred-counter saturation.
    """

    def __init__(
        self,
        params_block: np.ndarray,
        block: ColumnBlock,
        adam: AdamConfig,
        memory,
        ledger,
        forwarding: bool = False,
        deferred: bool = False,
        max_defer: int = 15,
    ):
        if deferred and not forwarding:
            raise ValueError("deferred updates require the forwarding pipeline")
        self.block = block
        self.memory = memory
        self.ledger = ledger
        self.forwarding = forwarding
        self.deferred = deferred
        self.params = params_block.copy()
        if deferred:
            self.optimizer: SparseOptimizer = DeferredAdam(
                self.params, adam, max_defer=max_defer
            )
        else:
            self.optimizer = DenseAdam(self.params, adam)
        self._pending_ids: np.ndarray | None = None
        self._pending_grads: np.ndarray | None = None

    @property
    def num_rows(self) -> int:
        return self.params.shape[0]

    def _staged_bytes(self, ids: np.ndarray) -> int:
        return ids.size * self.dim * _F32

    # -- parameter forwarding ---------------------------------------------
    def _forwarded_values(self, ids: np.ndarray) -> np.ndarray:
        """Pre-updated rows for the next render (Section 4.2.2 / 4.3.3):
        peek the post-commit values without mutating any host state."""
        if self._pending_ids is None:
            if self.deferred:
                return self.optimizer.materialized_params(ids)
            return self.params[ids]  # advanced indexing already copies
        # a pending step exists (possibly with zero rows of overlap, or —
        # for an inactive shard — zero rows at all): peek *through* it
        return self.optimizer.peek_updated(
            ids, self._scatter_pending(ids)
        )

    def _scatter_pending(self, ids: np.ndarray) -> np.ndarray:
        """Pending gradient rows aligned with ``ids`` (zeros elsewhere)."""
        pending_rows = np.zeros((ids.size, self.dim), dtype=self.params.dtype)
        if self._pending_ids.size and ids.size:
            pos = np.searchsorted(self._pending_ids, ids)
            pos = np.clip(pos, 0, self._pending_ids.size - 1)
            hit = self._pending_ids[pos] == ids
            pending_rows[hit] = self._pending_grads[pos[hit]]
        return pending_rows

    # -- step-facing operations -------------------------------------------
    def stage(self, ids: np.ndarray) -> np.ndarray:
        staged = self._staged_bytes(ids)
        self.memory.allocate("staged_params", staged)
        try:
            self.memory.allocate("staged_grads", staged)
        except MemoryError:
            # leave nothing charged when the window doesn't fit
            self.memory.free("staged_params", staged)
            raise
        self.ledger.record_h2d(staged)
        if self.forwarding:
            return self._forwarded_values(ids)
        return self.params[ids]  # advanced indexing already copies

    def unstage(self, ids: np.ndarray, returned: bool = True) -> None:
        staged = self._staged_bytes(ids)
        if returned:
            self.ledger.record_d2h(staged)
        self.memory.free("staged_params", staged)
        self.memory.free("staged_grads", staged)

    def return_grads(self, ids: np.ndarray, grads: np.ndarray) -> None:
        if self.forwarding:
            # the lazy host commit happens at the next step's commit()
            # (step 7 of Figure 8, overlapped with GPU work in real time);
            # an empty batch still pends so the optimizer ticks exactly
            # once per training step. Parked ascending: the forwarded
            # peek looks pending rows up by binary search
            self._pending_ids, self._pending_grads = ascending(ids, grads)
        else:
            self._stepped(self.optimizer.step_rows(ids, grads))

    def commit(self) -> None:
        if self._pending_ids is None:
            return
        self._stepped(
            self.optimizer.step_rows(self._pending_ids, self._pending_grads)
        )
        self._pending_ids = None
        self._pending_grads = None

    def flush(self) -> None:
        self.commit()
        if self.deferred:
            self._stepped(self.optimizer.flush())

    def _stepped(self, stats: StepStats) -> None:
        """Called after every optimizer call that may write the arrays
        (``stats.rows_updated`` rows were written)."""

    def materialize(self, ids: np.ndarray | None = None) -> np.ndarray:
        if self._pending_ids is not None:
            all_ids = np.arange(self.num_rows) if ids is None else ids
            return self.optimizer.peek_updated(
                all_ids, self._scatter_pending(all_ids)
            )
        if self.deferred:
            return self.optimizer.materialized_params(ids)
        if ids is None:
            return self.params.copy()
        return self.params[ids]

    def set_lr(self, lr_packed: np.ndarray) -> None:
        self.optimizer.set_lr(lr_packed[self.block.sl])

    def _resident_params(self) -> np.ndarray:
        return self.params

    def state_dict(self) -> dict[str, np.ndarray]:
        return _leaf_state_dict(self.optimizer)

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        _load_leaf_state(self.optimizer, state)


class DiskStore(HostStore):
    """Out-of-core host rows: state spills to page files.

    Behaves exactly like a :class:`HostStore` while *resident* (paged in);
    :meth:`spill` writes parameters and both Adam moments to their
    :class:`~repro.core.pager.PageFile` (``{spill_path}.{field}``) and
    releases the in-memory arrays, so a spilled store charges nothing to
    the host tracker. Page-ins/outs are metered on the transfer ledger's
    disk channel (``record_page_in`` / ``record_page_out``). Placement
    never changes numerics: a spill/page-in roundtrip is bit-exact, and
    every operation that needs the arrays pages in on demand (admitting
    through the optional :class:`ResidentSet`, which bounds concurrent
    residency).

    A page-out is a write, so a spill records one only when the store's
    state changed since its last page-out. The store is *dirty* at
    construction (its pages hold nothing yet), after any optimizer call
    that updates a row (a ``commit``, a non-forwarding ``return_grads``,
    a ``flush``) and after a resident ``load_state_dict``; a page-in
    leaves it clean. ``stage``, ``materialize``, ``set_lr``,
    ``state_dict`` and a metadata-only commit never dirty a store. A
    clean store's pages already hold its arrays (the codecs are
    idempotent), so its spill is a pure eviction: host bytes freed and
    the spill epoch bumped, but no page written, no write-behind job
    queued, nothing recorded on the disk channel; it is counted in
    :attr:`clean_evictions` instead. One case keeps the ledger free of
    thread timing: a page-in that re-adopts a queued write-behind
    page-out cancels that write, so the next spill of the clean store
    still writes all three pages, but records nothing — the ledger
    counted that page-out when it was first spilled.

    Three pieces of state never spill, keeping a spilled store cheap to
    drive once per step:

    * the deferred counters (1 byte/row, charged to the host tracker at
      construction) — so an empty ``commit()`` tick with no saturated row
      is metadata-only and touches no spilled array (this is the paper's
      deferred update making out-of-core placement affordable: an
      inactive shard pages in only every ``max_defer`` steps);
    * pending forwarded gradients (transient, at most one step's batch);
    * a stashed learning-rate vector, applied at the next page-in.

    Args:
        params_block: ``(N, dim)`` rows of the owned block (copied).
        block: the packed columns the rows correspond to.
        adam: optimizer hyperparameters with the block's lr slice.
        memory: *device* tracker charged for staging windows (as HostStore).
        ledger: transfer ledger for staging and page traffic.
        spill_path: filename prefix of the spill pages.
        host_memory: *host* tracker charged for the resident working set
            (fresh untracked one when omitted).
        resident_set: optional shared residency budget.
        forwarding / deferred / max_defer: as :class:`HostStore`.
        codec: page codec name (``raw``/``float16``/``lossless``). Under
            a non-raw codec the ledger's disk channel meters encoded
            bytes alongside the fp32-equivalent ones. Every page-in is
            verified: a torn or bit-rotted page raises
            :class:`~repro.core.integrity.CorruptPageError` naming the
            file instead of feeding garbage into the step.
        writer: optional :class:`_WriteBehindWriter`. When set, spills
            detach the working set and queue the file write behind the
            training thread (write-behind spilling); a page-in before the
            write lands re-adopts the queued pages, as a read of them
            would return them, and cancels it (the next spill writes
            them again).
    """

    def __init__(
        self,
        params_block: np.ndarray,
        block: ColumnBlock,
        adam: AdamConfig,
        memory,
        ledger,
        spill_path: str,
        host_memory: MemoryTracker | None = None,
        resident_set: ResidentSet | None = None,
        forwarding: bool = False,
        deferred: bool = False,
        max_defer: int = 15,
        codec: str = "raw",
        writer: "_WriteBehindWriter | None" = None,
    ):
        super().__init__(
            params_block, block, adam, memory, ledger,
            forwarding=forwarding, deferred=deferred, max_defer=max_defer,
        )
        self._n, self._d = self.params.shape
        self._dtype = self.params.dtype
        self.spill_path = spill_path
        self.codec = get_page_codec(codec)
        self.writer = writer
        self.host_memory = host_memory if host_memory is not None else MemoryTracker()
        self.resident_set = resident_set
        self._stashed_lr: np.ndarray | None = None
        # paging is thread-safe: the async prefetch leg snapshots spill
        # files from a background thread while the training thread spills
        # and pages in; the epoch counter invalidates stale snapshots
        self._page_lock = threading.RLock()
        self._spill_epoch = 0
        # write-behind state: arrays detached by the last spill (plus
        # their encoded pages) until the background writer lands them
        self._pending_write: dict[str, np.ndarray] | None = None
        self._pending_encoded: dict[str, bytes | None] | None = None
        # changed since the last page-out (see the class docstring): the
        # pages hold nothing yet
        self._dirty = True
        # a page-in re-adopted a queued page-out and cancelled its write
        self._write_cancelled = False
        #: spills of a clean store: evictions that recorded no page-out
        self.clean_evictions = 0
        # deterministic admit-path counters: bytes the training thread
        # wrote synchronously at spill (write-behind keeps this at zero),
        # plus informational wall-clock for the paging micro-bench
        self.sync_spill_bytes = 0
        self.sync_spill_s = 0.0
        self.page_in_s = 0.0
        parent = os.path.dirname(spill_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        #: the spill page of each paged field
        self.pages = {
            field: PageFile(
                f"{spill_path}.{field}", (self._n, self._d), self._dtype, codec
            )
            for field in _PAGED_FIELDS
        }
        if deferred:
            # counters stay in host memory for the store's whole life
            self.host_memory.allocate("host_defer_counters", self._n)
        self._resident = True
        if self.resident_set is not None:
            self.resident_set.admit(self)
        self.host_memory.allocate("host_resident_state", self._state_bytes())

    # -- paging ------------------------------------------------------------
    @property
    def is_resident(self) -> bool:
        """Whether the parameter/moment arrays are paged into host memory."""
        return self._resident

    @property
    def is_dirty(self) -> bool:
        """Whether the resident arrays may differ from the page files,
        i.e. whether the next :meth:`spill` writes (``False`` while
        spilled)."""
        return self._resident and (self._dirty or self._write_cancelled)

    @property
    def num_rows(self) -> int:
        return self._n

    @property
    def dtype(self):
        return self._dtype

    def _state_bytes(self) -> int:
        """fp32-equivalent bytes of the pageable state (params + m + v)."""
        return 3 * layout.param_bytes(self._n, self._d)

    def _disk_bytes(self) -> int:
        """Bytes the pageable state occupies *on disk* (post-codec)."""
        sizes = [page.disk_nbytes for page in self.pages.values()]
        return self._state_bytes() if None in sizes else sum(sizes)

    def _write_pages(
        self,
        arrays: dict[str, np.ndarray],
        encoded: dict[str, bytes | None] | None = None,
    ) -> None:
        """Persist the working set to the spill pages (``encoded``: what
        :meth:`spill` already encoded for the write-behind lane)."""
        for field, page in self.pages.items():
            page.write(arrays[field], encoded and encoded[field])

    def _read_pages(self) -> dict[str, np.ndarray]:
        """Read the spill pages into fresh writable arrays, verified."""
        return {field: page.read() for field, page in self.pages.items()}

    def _pending_pages(self) -> dict[str, np.ndarray]:
        """What :meth:`_read_pages` returns once the queued write-behind
        page-out lands (lock held): its encoded pages decoded, the
        detached arrays where a page has no encoding (raw or empty). A
        page-out re-adopted before the writer runs thus goes through the
        codec like one read back from disk, whatever the thread timing."""
        return {
            field: self._pending_write[field]
            if self._pending_encoded[field] is None
            else page.decode(self._pending_encoded[field])
            for field, page in self.pages.items()
        }

    def spill(self) -> None:
        """Page the working set out to the spill files (no-op if spilled).

        Pending forwarded gradients and deferred counters are retained in
        memory; everything else round-trips through the spill files —
        bit-exactly under the ``raw``/``lossless`` codecs. A clean store
        records no page-out (see the class docstring). With a write-behind
        writer attached, the working set is detached and the
        file write queued behind the training thread (the codec encode,
        which fixes the on-disk byte count the ledger records, still runs
        here); without one the write is synchronous and counted in
        ``sync_spill_bytes``. A synchronous write that fails leaves the
        store resident and dirty, with its accounting untouched.
        """
        with self._page_lock:
            if not self._resident:
                return
            record = self._dirty
            write = record or self._write_cancelled
            if write:
                self._page_out()
            if not record:
                self.clean_evictions += 1
            opt = self.optimizer
            opt.params = opt.m = opt.v = None
            self.params = None
            self._resident = False
            self._spill_epoch += 1
            if self.resident_set is not None:
                self.resident_set.drop(self)
            self.host_memory.free("host_resident_state", self._state_bytes())
            if record:
                self.ledger.record_page_out(
                    self._state_bytes(), self._disk_bytes()
                )
            if write and self.writer is not None:
                self.writer.enqueue(self, self._spill_epoch)

    def _page_out(self) -> None:
        """Write the working set to the pages, or detach and encode it for
        the write-behind writer (lock held, resident)."""
        opt = self.optimizer
        arrays = {"params": opt.params, "m": opt.m, "v": opt.v}
        if self.writer is not None:
            self._pending_write = arrays
            self._pending_encoded = {
                field: page.encode(arrays[field])
                for field, page in self.pages.items()
            }
            return
        t0 = time.perf_counter()
        self._write_pages(arrays)
        t1 = time.perf_counter()
        self.sync_spill_s += t1 - t0
        self.sync_spill_bytes += self._state_bytes()
        if _trace.enabled():
            _trace.get_tracer().record(
                "page/out", t0, t1, cat="page",
                attrs={"bytes": self._state_bytes()},
            )
            _metrics.get_registry().histogram(
                "page_out_seconds", store="disk"
            ).observe(t1 - t0)

    def _complete_pending_write(self, epoch: int) -> None:
        """Land a queued write-behind page-out (writer thread).

        Skipped when the store paged back in (pending cancelled) or
        spilled again (newer job queued) since the job was enqueued.
        """
        with self._page_lock:
            if self._pending_write is None or epoch != self._spill_epoch:
                return
            self._write_pages(self._pending_write, self._pending_encoded)
            self._pending_write = None
            self._pending_encoded = None

    def _install(self, arrays: dict[str, np.ndarray]) -> None:
        """Adopt ``arrays`` as the paged-in working set (lock held,
        spilled). The single page-in path: accounting and the ledger's
        disk channel see one record whether the bytes came from a
        synchronous read or an async preload. Becoming resident cancels
        any queued write-behind page-out — the on-disk page would be
        stale the moment training mutates the arrays — so the next spill
        writes even if the store stays clean."""
        if self.resident_set is not None:
            self.resident_set.admit(self)
        opt = self.optimizer
        opt.params = self.params = arrays["params"]
        opt.m = arrays["m"]
        opt.v = arrays["v"]
        self._resident = True
        self._dirty = False
        self._write_cancelled = self._pending_write is not None
        self._pending_write = None
        self._pending_encoded = None
        if self._stashed_lr is not None:
            opt.set_lr(self._stashed_lr)
            self._stashed_lr = None
        self.host_memory.allocate("host_resident_state", self._state_bytes())
        self.ledger.record_page_in(self._state_bytes(), self._disk_bytes())

    def page_in(self) -> None:
        """Page the working set back in (admitting through the budget)."""
        with self._page_lock:
            if self._resident:
                if self.resident_set is not None:
                    self.resident_set.touch(self)
                return
            if self._pending_write is not None:
                # the queued page-out never landed: re-adopt it without
                # the disk read and cancel the write
                self._install(self._pending_pages())
                return
            t0 = time.perf_counter()
            arrays = self._read_pages()
            t1 = time.perf_counter()
            self.page_in_s += t1 - t0
            if _trace.enabled():
                _trace.get_tracer().record(
                    "page/in", t0, t1, cat="page",
                    attrs={"bytes": self._state_bytes()},
                )
                _metrics.get_registry().histogram(
                    "page_in_seconds", store="disk"
                ).observe(t1 - t0)
            self._install(arrays)

    def preload(self) -> PreloadedShard | None:
        """Snapshot the spill files into plain arrays, mutating nothing.

        The async prefetch leg calls this from a background thread while
        the training thread renders; the snapshot is handed back to
        :meth:`adopt` on the training thread. Returns ``None`` when the
        store is already resident. A spill racing the read leaves a torn
        snapshot — the epoch check in :meth:`adopt` discards it. A queued
        write-behind page-out short-circuits the read
        (:meth:`_pending_pages`).
        """
        with self._page_lock:
            if self._resident:
                return None
            epoch = self._spill_epoch
            if self._pending_write is not None:
                return PreloadedShard(
                    arrays=self._pending_pages(), epoch=epoch
                )
        # read outside the lock: this is the I/O being overlapped; a torn
        # encoded page (concurrent write) can fail to decode outright,
        # which is the same stale-snapshot case the epoch check covers
        try:
            arrays = self._read_pages()
        except Exception:
            return None
        return PreloadedShard(arrays=arrays, epoch=epoch)

    def adopt(self, pre: PreloadedShard) -> bool:
        """Install a :meth:`preload` snapshot as the working set.

        Exactly :meth:`page_in` minus the disk read. Returns ``False`` —
        and installs nothing — when the store paged in or spilled since
        the snapshot was taken (the snapshot may be stale or torn); the
        caller falls back to a synchronous :meth:`page_in`.
        """
        with self._page_lock:
            if self._resident or pre.epoch != self._spill_epoch:
                return False
            self._install(pre.arrays)
            return True

    # -- step-facing operations (page in on demand) ------------------------
    def stage(self, ids: np.ndarray) -> np.ndarray:
        self.page_in()
        return super().stage(ids)

    def return_grads(self, ids: np.ndarray, grads: np.ndarray) -> None:
        if not self.forwarding:
            self.page_in()  # synchronous step touches the arrays
        super().return_grads(ids, grads)

    def commit(self) -> None:
        if self._pending_ids is None:
            return
        if (
            not self._resident
            and self.deferred
            and self._pending_ids.size == 0
            and not (self.optimizer.counter >= self.optimizer.max_defer).any()
        ):
            # metadata-only tick, identical to DeferredAdam.step_rows with
            # an empty batch and no saturated counter: no array is touched,
            # so the shard stays spilled
            self.optimizer.step_count += 1
            self.optimizer.counter += 1
            self._pending_ids = None
            self._pending_grads = None
            return
        self.page_in()
        super().commit()

    def flush(self) -> None:
        if (
            not self._resident
            and self._pending_ids is None
            and (not self.deferred or not self.optimizer.counter.any())
        ):
            return  # nothing lazy: flushing would be the identity
        self.page_in()
        super().flush()

    def materialize(self, ids: np.ndarray | None = None) -> np.ndarray:
        self.page_in()
        return super().materialize(ids)

    def _stepped(self, stats: StepStats) -> None:
        if stats.rows_updated:
            self._dirty = True

    def set_lr(self, lr_packed: np.ndarray) -> None:
        if not self._resident:
            # applied at the next page-in, before any math runs — the lazy
            # commit already uses commit-time rates, so this changes nothing
            self._stashed_lr = np.array(lr_packed[self.block.sl])
            return
        super().set_lr(lr_packed)

    def _resident_params(self) -> np.ndarray:
        self.page_in()
        return self.params

    # -- checkpointing (works from spilled state) --------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        with self._page_lock:
            if self._resident:
                return super().state_dict()
            if self._pending_write is not None:
                # a queued write-behind page-out: the file may not exist
                # yet, its pages are the authoritative state
                state = self._pending_pages()
            elif self.codec.name == "raw":
                # hand out the memmap views so a checkpoint can serialize
                # the store without materializing it in host memory
                state = {f: page.view() for f, page in self.pages.items()}
            else:
                # spilled compressed pages checkpoint in their storage
                # dtype — the lazy CheckpointReader reassembles
                # mixed-dtype blocks
                state = {
                    f: page.read(self.codec.storage_dtype)
                    for f, page in self.pages.items()
                }
            state["steps"] = np.array(self.optimizer.step_count)
            if self.deferred:
                state["counter"] = self.optimizer.counter
            return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        with self._page_lock:
            if self._resident:
                super().load_state_dict(state)
                self._dirty = True
                return
            # the incoming state supersedes any queued page-out
            self._pending_write = None
            self._pending_encoded = None
            self._write_pages({
                field: np.asarray(state[field], dtype=self._dtype)
                for field in _PAGED_FIELDS
            })
            # the spill files changed under any outstanding preload
            # snapshot: bump the epoch so adopt() rejects it
            self._spill_epoch += 1
            self.optimizer.step_count = int(state["steps"])
            if self.deferred:
                self.optimizer.counter[...] = state["counter"]


class HybridStore(ParameterStore):
    """Composition of child stores over disjoint column blocks.

    Presents the union of the children's columns as one packed surface:
    ``stage`` assembles full rows from every child, ``return_grads`` splits
    the gradient columns back. Children are driven in construction order
    (the device-geometric child first mirrors GS-Scale's step 4-then-7
    ordering).
    """

    #: checkpoint name of the child owning a block (file-format boundary:
    #: the ``geo_*`` / ``host_*`` keys every written checkpoint carries)
    _LEAF_NAMES = {"geometric": "geo", "non_geometric": "host"}

    def __init__(self, children: list[ParameterStore]):
        if not children:
            raise ValueError("HybridStore needs at least one child store")
        rows = {c.num_rows for c in children}
        if len(rows) != 1:
            raise ValueError(f"children disagree on row count: {rows}")
        # blocks must tile a contiguous range: a gap would leave
        # uninitialized columns in every stage()/materialize() output
        for prev, nxt in zip(children, children[1:]):
            if nxt.block.start != prev.block.stop:
                raise ValueError(
                    f"child blocks must be ordered and contiguous; "
                    f"{prev.block.name!r} ends at {prev.block.stop} but "
                    f"{nxt.block.name!r} starts at {nxt.block.start}"
                )
        self.children = list(children)
        self.block = ColumnBlock(
            "+".join(c.block.name for c in children),
            children[0].block.start,
            children[-1].block.stop,
        )

    def _local(self, child: ParameterStore) -> slice:
        return self.block.local(child.block.sl)

    @property
    def num_rows(self) -> int:
        return self.children[0].num_rows

    @property
    def dtype(self):
        return self.children[0].dtype

    def stage(self, ids: np.ndarray) -> np.ndarray:
        out = np.empty((ids.size, self.dim), dtype=self.dtype)
        staged: list[ParameterStore] = []
        try:
            for child in self.children:
                out[:, self._local(child)] = child.stage(ids)
                staged.append(child)
        except Exception:
            # unwind partial staging so an OOM leaves nothing charged
            for child in reversed(staged):
                child.unstage(ids, returned=False)
            raise
        return out

    def unstage(self, ids: np.ndarray, returned: bool = True) -> None:
        for child in self.children:
            child.unstage(ids, returned=returned)

    def return_grads(self, ids: np.ndarray, grads: np.ndarray) -> None:
        for child in self.children:
            child.return_grads(ids, grads[:, self._local(child)])

    def commit(self) -> None:
        for child in self.children:
            child.commit()

    def flush(self) -> None:
        for child in self.children:
            child.flush()

    def materialize(self, ids: np.ndarray | None = None) -> np.ndarray:
        n = self.num_rows if ids is None else ids.size
        out = np.empty((n, self.dim), dtype=self.dtype)
        for child in self.children:
            out[:, self._local(child)] = child.materialize(ids)
        return out

    def set_lr(self, lr_packed: np.ndarray) -> None:
        for child in self.children:
            child.set_lr(lr_packed)

    def geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The geometric child's :meth:`~ParameterStore.geometry`: what
        :meth:`visible` culls, and what a :class:`ShardedStore` reads to
        gate a shard's cull."""
        for child in self.children:
            if child.block.contains(layout.GEOMETRIC_BLOCK.sl):
                return child.geometry()
        raise NotImplementedError("no child owns the geometric columns")

    def leaves(self, prefix: str = "", rows: np.ndarray | None = None):
        sep = "_" if prefix else ""
        for child in self.children:
            name = self._LEAF_NAMES.get(child.block.name, child.block.name)
            yield from child.leaves(f"{prefix}{sep}{name}", rows)


@dataclass(frozen=True)
class ShardedCullResult(CullResult):
    """A :class:`ShardedStore` cull: the union over the shards plus
    ``shard_visible``, each shard's own visible count — per-view shard
    activation read off the cull that was run anyway — and
    ``exact_shards``, the shards whose exact test ran: every shard the
    candidate bound could not clear (see :meth:`ShardedStore.visible`),
    ascending. Deterministic, and a superset of :attr:`active_shards`."""

    #: each shard's visible count, by shard index
    shard_visible: tuple[int, ...]
    #: the shards whose exact cull ran, ascending; the others had no
    #: candidate row, so none of their rows is visible
    exact_shards: tuple[int, ...]

    @property
    def active_shards(self) -> list[int]:
        """Shards with at least one visible Gaussian, ascending."""
        return [k for k, n in enumerate(self.shard_visible) if n]


class ShardedStore(ParameterStore):
    """Row-wise composition: K disjoint shards, each backed by its own store.

    The row-space analogue of :class:`HybridStore`: every shard owns a
    sorted array of global Gaussian ids (a spatial partition from
    :func:`repro.core.splitting.spatial_partition`; together they tile
    ``0..N-1``) and a store — in the sharded GS-Scale system a
    :class:`HybridStore` with its own device tracker and transfer ledger,
    modeling one GPU per shard.

    Per-view work scales with the shards a view can see. ``visible``
    projects only the shards the candidate bound cannot clear (a shard
    wholly outside the frustum costs one depth product and one bound
    pass). ``stage``/``unstage`` touch only the shards with visible
    members (per-view shard activation: an out-of-frustum shard costs no
    staging memory and no PCIe traffic). Rows are split between shards
    through an owner map built once at construction — each row's shard
    and its index inside that shard — with one gather and one stable sort
    per call. ``return_grads`` always visits every shard — inactive shards
    receive an empty batch so each shard's optimizer ticks exactly once
    per training step, keeping per-row trajectories identical to the
    unsharded system.
    """

    def __init__(
        self, shard_rows: list[np.ndarray], stores: list[ParameterStore]
    ):
        if len(shard_rows) != len(stores) or not stores:
            raise ValueError("need one store per (non-empty list of) shard")
        for rows, store in zip(shard_rows, stores):
            if rows.size != store.num_rows:
                raise ValueError("shard row count disagrees with its store")
        self.shard_rows = [np.asarray(r, dtype=np.int64) for r in shard_rows]
        self.stores = list(stores)
        self.block = stores[0].block
        self._num_rows = int(sum(r.size for r in self.shard_rows))
        # owner map: row -> (its shard, its index inside the shard)
        every = np.concatenate(self.shard_rows)
        if not np.array_equal(
            np.bincount(every, minlength=self._num_rows),
            np.ones(self._num_rows, dtype=np.int64),
        ):
            raise ValueError("shard rows must tile 0..N-1 exactly once")
        self._owner = np.empty(
            self._num_rows, dtype=np.min_scalar_type(len(stores) - 1)
        )
        self._local = np.empty(self._num_rows, dtype=np.int64)
        for k, rows in enumerate(self.shard_rows):
            self._owner[rows] = k
            self._local[rows] = np.arange(rows.size)

    @property
    def num_rows(self) -> int:
        return self._num_rows

    @property
    def dtype(self):
        return self.stores[0].dtype

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self.stores)

    def _members(self, ids: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(sel, local)`` of every shard, as
        :func:`~repro.core.splitting.members` gives them: positions within
        ``ids`` (ascending) and shard-local row indices."""
        if ids.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return [(empty, empty)] * self.num_shards
        owner = self._owner[ids]
        order = np.argsort(owner, kind="stable")
        local = self._local[ids[order]]
        ends = np.cumsum(np.bincount(owner, minlength=self.num_shards))
        starts = np.concatenate(([0], ends[:-1]))
        return [
            (order[lo:hi], local[lo:hi]) for lo, hi in zip(starts, ends)
        ]

    def split(
        self, ids: np.ndarray
    ) -> Iterator[tuple[int, ParameterStore, np.ndarray, np.ndarray]]:
        """``(k, store, sel, local)`` for every shard with members among
        ``ids``: the shard's index and store, the positions of its members
        within ``ids``, and their shard-local row indices."""
        for k, (sel, local) in enumerate(self._members(ids)):
            if sel.size:
                yield k, self.stores[k], sel, local

    def stage(self, ids: np.ndarray) -> np.ndarray:
        out = np.empty((ids.size, self.dim), dtype=self.dtype)
        staged: list[tuple[ParameterStore, np.ndarray]] = []
        try:
            for _, store, sel, local in self.split(ids):
                out[sel] = store.stage(local)
                staged.append((store, local))
        except Exception:
            # unwind the shards already staged (per-shard OOM mid-step)
            for store, local in reversed(staged):
                store.unstage(local, returned=False)
            raise
        return out

    def unstage(self, ids: np.ndarray, returned: bool = True) -> None:
        for _, store, _, local in self.split(ids):
            store.unstage(local, returned=returned)

    def return_grads(self, ids: np.ndarray, grads: np.ndarray) -> None:
        # every shard, not only split(ids): an inactive shard's optimizer
        # must tick
        for store, (sel, local) in zip(self.stores, self._members(ids)):
            store.return_grads(local, grads[sel])

    def commit(self) -> None:
        for store in self.stores:
            store.commit()

    def flush(self) -> None:
        for store in self.stores:
            store.flush()

    def materialize(self, ids: np.ndarray | None = None) -> np.ndarray:
        if ids is None:
            out = np.empty((self.num_rows, self.dim), dtype=self.dtype)
            for rows, store in zip(self.shard_rows, self.stores):
                out[rows] = store.materialize()
            return out
        out = np.empty((ids.size, self.dim), dtype=self.dtype)
        for _, store, sel, local in self.split(ids):
            out[sel] = store.materialize(local)
        return out

    def set_lr(self, lr_packed: np.ndarray) -> None:
        for store in self.stores:
            store.set_lr(lr_packed)

    def visible(self, camera: Camera) -> ShardedCullResult:
        """Union of the per-shard culls, in global id order.

        Culling is per-Gaussian, so the union over a partition equals the
        unsharded cull bit-for-bit; each shard's pass is the work its own
        device would do, and a shard wholly outside the frustum shows as a
        zero in ``shard_visible``. The candidate bound gates each shard's
        exact test (:func:`~repro.render.culling.gated_cull`): a shard
        with no candidate is not projected at all, and one with any runs
        the exact test over all of its rows, as without the gate, so the
        result does not depend on the gate (numerics contract fact 6).
        """
        results: list[CullResult] = []
        exact: list[int] = []
        for k, store in enumerate(self.stores):
            res, ran = gated_cull(*store.geometry(), camera)
            results.append(res)
            if ran:
                exact.append(k)
        parts = [
            rows[res.valid_ids]
            for rows, res in zip(self.shard_rows, results)
            if res.num_visible
        ]
        valid = (
            np.sort(np.concatenate(parts))
            if parts
            else np.empty(0, dtype=np.int64)
        )
        return ShardedCullResult(
            valid_ids=valid,
            num_total=self._num_rows,
            num_in_depth=sum(res.num_in_depth for res in results),
            num_visible=int(valid.size),
            shard_visible=tuple(res.num_visible for res in results),
            exact_shards=tuple(exact),
        )

    def leaves(self, prefix: str = "", rows: np.ndarray | None = None):
        sep = "_" if prefix else ""
        for k, (shard, store) in enumerate(zip(self.shard_rows, self.stores)):
            yield from store.leaves(
                f"{prefix}{sep}shard{k}", shard if rows is None else rows[shard]
            )
