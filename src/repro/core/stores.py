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
  values are those of the not-yet-committed update (committed early under
  deferred Adam, optimizer peeks otherwise) and gradients wait for the
  next ``commit()`` (Sections 4.2.2/4.3.3), otherwise the optimizer steps
  synchronously (the Section 4.1 baseline).
* :class:`DiskStore` — the out-of-core tier below :class:`HostStore`:
  parameters and optimizer moments spill to one
  :class:`~repro.core.pager.PageFile` each (the store owns the residency
  *sequence* — dirty pages and spill epochs — the
  pager the bytes) and only *paged-in* stores charge host DRAM; page
  traffic is metered on the ledger's disk channel and concurrent
  residency is bounded by a :class:`~repro.core.pager.ResidentSet`
  (TideGS-style out-of-core blocks). It always forwards and defers.
* :class:`HybridStore` — composition of child stores over disjoint column
  blocks presenting one packed surface (GS-Scale's device-geometric +
  host-non-geometric split; also each shard of the sharded system).
* :class:`ShardedStore` — composition of stores over disjoint row sets
  (a spatial partition: one store, tracker and ledger per shard).
"""

from __future__ import annotations

import os
import threading
from abc import ABC, abstractmethod
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from ..cameras.camera import Camera
from ..gaussians import layout
from ..gaussians.layout import ColumnBlock
from ..optim.adam import DenseAdam
from ..optim.base import AdamConfig, SparseOptimizer, StepStats, ascending, member
from ..optim.deferred import DeferredAdam
from ..render import CullResult, frustum_cull
from ..render.culling import gated_cull
from ..render.projection import ScreenRows
from ..sim.memory import MemoryTracker
from ..telemetry import trace as _trace
from .pager import PageFile, PreloadedShard, ResidentSet, SpillStats
from .splitting import ShardMap

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

    @property
    def stages_culled_geometry(self) -> bool:
        """Whether :meth:`stage` returns the geometric values
        :meth:`visible` culls, so that the cull's projection of its kept
        rows can stand in for the render's (a forwarding host store
        stages the optimizer's peek instead)."""
        return True

    def visible(self, camera: Camera, keep: str | None = None) -> CullResult:
        """The rows ``camera`` sees: a frustum cull over the resident
        geometric columns, ids in this store's row space (ascending).

        ``keep`` is :func:`~repro.render.frustum_cull`'s; it is dropped
        where :attr:`stages_culled_geometry` does not hold."""
        if not self.stages_culled_geometry:
            keep = None
        return frustum_cull(*self.geometry(), camera, keep=keep)

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
        forwarding: stage the rows as the not-yet-committed update will
            leave them and park returned gradients until :meth:`commit`
            (parameter forwarding + lazy host commit). ``False`` stages
            raw rows and steps synchronously (the baseline).
        deferred: use :class:`DeferredAdam` (requires ``forwarding``).
        max_defer: deferred-counter saturation.

    A forwarding store with :class:`DeferredAdam` computes each forwarded
    row once: ``stage`` commits the staged rows the pending step writes
    (its gradient rows and saturated counters) in place, by the step's own
    kernel walk (:meth:`DeferredAdam.forward_rows`), and marks them in a
    bool row mask; a row staged again in the same step (the second region
    of a split view) reads them back, and :meth:`commit` walks only the
    rows not yet written, ticking counters and the step count once and
    returning the stats of the whole step. Every other staged row is an
    optimizer peek, as is every row of a :class:`DenseAdam` forwarding
    store: its step writes every row, so committing a subset early would
    turn its walk over contiguous views into a gathered one.
    """

    #: whether a deferred forwarding store commits staged rows early (see
    #: the class docstring; :class:`DiskStore` does not)
    commits_early = True

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
        # rows the pending step has already written (early commit only)
        self._written = (
            np.zeros(self.params.shape[0], dtype=bool)
            if deferred and self.commits_early else None
        )

    @property
    def num_rows(self) -> int:
        return self.params.shape[0]

    def _staged_bytes(self, ids: np.ndarray) -> int:
        return ids.size * self.dim * _F32

    @property
    def stages_culled_geometry(self) -> bool:
        return not self.forwarding

    # -- parameter forwarding ---------------------------------------------
    def _forwarded_values(self, ids: np.ndarray) -> np.ndarray:
        """Pre-updated rows for the next render (Section 4.2.2 / 4.3.3):
        the post-commit values, committed early where the store does
        (see the class docstring), otherwise peeked."""
        if self._pending_ids is None:
            if self.deferred:
                return self.optimizer.materialized_params(ids)
            return self.params[ids]  # advanced indexing already copies
        # a pending step exists (possibly with zero rows of overlap, or —
        # for an inactive shard — zero rows at all): look *through* it
        if self._written is not None:
            return self.optimizer.forward_rows(
                ids, self._pending_ids, self._pending_grads, self._written
            )
        return self.optimizer.peek_updated(
            ids, self._scatter_pending(ids)
        )

    def _scatter_pending(self, ids: np.ndarray) -> np.ndarray:
        """Pending gradient rows aligned with ``ids`` (zeros elsewhere)."""
        pending_rows = np.zeros((ids.size, self.dim), dtype=self.params.dtype)
        hit, pos = member(self._pending_ids, ids)
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
        if self._written is None:
            stats = self.optimizer.step_rows(
                self._pending_ids, self._pending_grads
            )
        else:
            stats = self.optimizer.step_rows(
                self._pending_ids, self._pending_grads, written=self._written
            )
            self._written[...] = False
        self._stepped(stats)
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
            if self._written is None:
                return self.optimizer.peek_updated(
                    all_ids, self._scatter_pending(all_ids)
                )
            # rows an early commit wrote hold their post-step values
            out = np.empty((all_ids.size, self.dim), dtype=self.params.dtype)
            done = self._written[all_ids]
            out[done] = self.params[all_ids[done]]
            rest = all_ids[~done]
            out[~done] = self.optimizer.peek_updated(
                rest, self._scatter_pending(rest)
            )
            return out
        if self.deferred:
            return self.optimizer.materialized_params(ids)
        if ids is None:
            return self.params.copy()
        return self.params[ids]

    def _resident_params(self) -> np.ndarray:
        return self.params

    def state_dict(self) -> dict[str, np.ndarray]:
        return _leaf_state_dict(self.optimizer)

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        _load_leaf_state(self.optimizer, state)
        if self._written is not None:
            self._written[...] = False  # the loaded rows are not stepped


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

    A disk store always runs the paper's pipeline (Sections 4.2-4.3): it
    forwards staged rows and defers its Adam updates (:class:`HostStore`
    with ``forwarding`` and ``deferred``), the one mode that keeps an
    inactive shard spilled between saturation flushes.

    A page-out is a write, so a spill records one only when the store's
    state changed since its last page-out. The store is *dirty* at
    construction (its pages hold nothing yet), after any optimizer call
    that updates a row (a ``commit`` or a ``flush``) and after a resident
    ``load_state_dict``; a page-in leaves it clean. ``stage``,
    ``materialize``, ``state_dict`` and a
    metadata-only commit never dirty a store. A clean store's pages
    already hold its arrays, so its spill is a pure eviction: host bytes
    freed and the spill epoch bumped, but no page written and nothing
    recorded on the disk channel; it is counted in
    ``stats.clean_evictions`` instead. A dirty store's spill writes its
    three pages on the calling thread before it releases the arrays.

    Two pieces of state never spill, keeping a spilled store cheap to
    drive once per step:

    * the deferred counters (1 byte/row, charged to the host tracker at
      construction) — so an empty ``commit()`` tick with no saturated row
      is metadata-only and touches no spilled array (this is the paper's
      deferred update making out-of-core placement affordable: an
      inactive shard pages in only every ``max_defer`` steps);
    * pending forwarded gradients (transient, at most one step's batch).

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
        max_defer: deferred-counter saturation.
        stats: the :class:`~repro.core.pager.SpillStats` this store's
            spills count into (a fresh one when omitted; the out-of-core
            system shares one over its whole run).

    A disk store peeks its forwarded rows instead of committing them at
    ``stage`` (:attr:`HostStore.commits_early` is off): an early
    commit would turn a staged shard dirty before the evictions that run
    inside ``stage``, so the page-out sequence would change (tried, it
    changed an out-of-core run's losses and page files). Where a shard's
    commit runs is the residency plan's to decide.
    """

    commits_early = False

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
        max_defer: int = 15,
        stats: SpillStats | None = None,
    ):
        super().__init__(
            params_block, block, adam, memory, ledger,
            forwarding=True, deferred=True, max_defer=max_defer,
        )
        self._n, self._d = self.params.shape
        self._dtype = self.params.dtype
        self.spill_path = spill_path
        self.stats = stats if stats is not None else SpillStats()
        self.host_memory = host_memory if host_memory is not None else MemoryTracker()
        self.resident_set = resident_set
        # paging is thread-safe: the async prefetch leg snapshots spill
        # files from a background thread while the training thread spills
        # and pages in; the epoch counter invalidates stale snapshots
        self._page_lock = threading.RLock()
        self._spill_epoch = 0
        # changed since the last page-out (see the class docstring): the
        # pages hold nothing yet
        self._dirty = True
        parent = os.path.dirname(spill_path)
        if parent:
            os.makedirs(parent, exist_ok=True)
        #: the spill page of each paged field
        self.pages = {
            field: PageFile(f"{spill_path}.{field}", (self._n, self._d), self._dtype)
            for field in _PAGED_FIELDS
        }
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
        return self._resident and self._dirty

    @property
    def num_rows(self) -> int:
        return self._n

    @property
    def dtype(self):
        return self._dtype

    def _state_bytes(self) -> int:
        """fp32-equivalent bytes of the pageable state (params + m + v)."""
        return 3 * layout.param_bytes(self._n, self._d)

    def _write_pages(self, arrays: dict[str, np.ndarray]) -> None:
        """Persist the working set to the spill pages."""
        for field, page in self.pages.items():
            page.write(arrays[field])

    def _read_pages(self) -> dict[str, np.ndarray]:
        """Read the spill pages into fresh writable arrays, verified."""
        return {field: page.read() for field, page in self.pages.items()}

    def spill(self) -> None:
        """Page the working set out to the spill files (no-op if spilled).

        Pending forwarded gradients and deferred counters are retained in
        memory; everything else round-trips through the spill files,
        bit-exactly. A dirty store writes its pages on the calling
        thread; a clean one writes nothing (see the class docstring). A
        write that fails leaves the store resident and dirty, with its
        accounting untouched.
        """
        with self._page_lock:
            if not self._resident:
                return
            record = self._dirty
            if record:
                self._page_out()
            else:
                self.stats.clean_evictions += 1
            opt = self.optimizer
            opt.params = opt.m = opt.v = None
            self.params = None
            self._resident = False
            self._spill_epoch += 1
            if self.resident_set is not None:
                self.resident_set.drop(self)
            self.host_memory.free("host_resident_state", self._state_bytes())
            if record:
                self.ledger.record_page_out(self._state_bytes())

    def _page_out(self) -> None:
        """Write the working set to the pages (lock held, resident)."""
        opt = self.optimizer
        with _trace.span("page/out", "page", bytes=self._state_bytes()):
            self._write_pages({"params": opt.params, "m": opt.m, "v": opt.v})

    def _install(self, arrays: dict[str, np.ndarray]) -> None:
        """Adopt ``arrays`` as the paged-in working set (lock held,
        spilled). The single page-in path: accounting and the ledger's
        disk channel see one record whether the bytes came from a
        synchronous read or an async preload."""
        if self.resident_set is not None:
            self.resident_set.admit(self)
        opt = self.optimizer
        opt.params = self.params = arrays["params"]
        opt.m = arrays["m"]
        opt.v = arrays["v"]
        self._resident = True
        self._dirty = False
        self.host_memory.allocate("host_resident_state", self._state_bytes())
        self.ledger.record_page_in(self._state_bytes())

    def page_in(self) -> None:
        """Page the working set back in (admitting through the budget)."""
        with self._page_lock:
            if self._resident:
                if self.resident_set is not None:
                    self.resident_set.touch(self)
                return
            with _trace.span("page/in", "page", bytes=self._state_bytes()):
                arrays = self._read_pages()
            self._install(arrays)

    def preload(self) -> PreloadedShard | None:
        """Snapshot the spill files into plain arrays, mutating nothing.

        The async prefetch leg calls this from a background thread while
        the training thread renders; the snapshot is handed back to
        :meth:`adopt` on the training thread. Returns ``None`` when the
        store is already resident. A spill racing the read leaves a torn
        snapshot — the epoch check in :meth:`adopt` discards it.
        """
        with self._page_lock:
            if self._resident:
                return None
            epoch = self._spill_epoch
        # read outside the lock: this is the I/O being overlapped; a page
        # torn by a concurrent write can fail verification outright, which
        # is the same stale-snapshot case the epoch check covers
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

    def commit(self) -> None:
        if self._pending_ids is None:
            return
        if (
            not self._resident
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
            and not self.optimizer.counter.any()
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

    def _resident_params(self) -> np.ndarray:
        self.page_in()
        return self.params

    # -- checkpointing (works from spilled state) --------------------------
    def state_dict(self) -> dict[str, np.ndarray]:
        with self._page_lock:
            if self._resident:
                return super().state_dict()
            # hand out the memmap views so a checkpoint can serialize
            # the store without materializing it in host memory
            state = {f: page.view() for f, page in self.pages.items()}
            state["steps"] = np.array(self.optimizer.step_count)
            state["counter"] = self.optimizer.counter
            return state

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        with self._page_lock:
            if self._resident:
                super().load_state_dict(state)
                self._dirty = True
                return
            self._write_pages({
                field: np.asarray(state[field], dtype=self._dtype)
                for field in _PAGED_FIELDS
            })
            # the spill files changed under any outstanding preload
            # snapshot: bump the epoch so adopt() rejects it
            self._spill_epoch += 1
            self.optimizer.step_count = int(state["steps"])
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

    def _geometric(self) -> ParameterStore:
        for child in self.children:
            if child.block.contains(layout.GEOMETRIC_BLOCK.sl):
                return child
        raise NotImplementedError("no child owns the geometric columns")

    def geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The geometric child's :meth:`~ParameterStore.geometry`: what
        :meth:`visible` culls, and what a :class:`ShardedStore` reads to
        gate a shard's cull."""
        return self._geometric().geometry()

    @property
    def stages_culled_geometry(self) -> bool:
        return self._geometric().stages_culled_geometry

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
    staging memory and no PCIe traffic); rows reach their shards through
    one :class:`~repro.core.splitting.ShardMap`, built at construction.
    ``return_grads`` always visits every shard — inactive shards
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
        self._map = ShardMap(shard_rows)
        self.stores = list(stores)
        self.block = stores[0].block

    @property
    def shard_rows(self) -> list[np.ndarray]:
        """Each shard's global row ids (read-only: the owner map's)."""
        return self._map.rows

    @property
    def num_rows(self) -> int:
        return self._map.num_rows

    @property
    def dtype(self):
        return self.stores[0].dtype

    @property
    def num_shards(self) -> int:
        """Number of shards."""
        return len(self.stores)

    def split(
        self, ids: np.ndarray
    ) -> Iterator[tuple[int, ParameterStore, np.ndarray, np.ndarray]]:
        """``(k, store, sel, local)`` for every shard with members among
        ``ids``: the shard's index and store, the positions of its members
        within ``ids``, and their shard-local row indices."""
        for k, (sel, local) in enumerate(self._map.split(ids)):
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
        for store, (sel, local) in zip(self.stores, self._map.split(ids)):
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

    @property
    def stages_culled_geometry(self) -> bool:
        return all(store.stages_culled_geometry for store in self.stores)

    def visible(
        self, camera: Camera, keep: str | None = None
    ) -> ShardedCullResult:
        """Union of the per-shard culls, in global id order.

        Culling is per-Gaussian, so the union over a partition equals the
        unsharded cull bit-for-bit; each shard's pass is the work its own
        device would do, and a shard wholly outside the frustum shows as a
        zero in ``shard_visible``. The candidate bound gates each shard's
        exact test (:func:`~repro.render.culling.gated_cull`): a shard
        with no candidate is not projected at all, and one with any runs
        the exact test over all of its rows, as without the gate, so the
        result does not depend on the gate (numerics contract fact 6).
        With ``keep``, the shards' kept projections are permuted into the
        union's id order; a shard that could not hand its rows on (see
        ``CullResult.screen``) leaves the union without one.
        """
        if not self.stages_culled_geometry:
            keep = None
        results: list[CullResult] = []
        exact: list[int] = []
        for k, store in enumerate(self.stores):
            res, ran = gated_cull(*store.geometry(), camera, keep=keep)
            results.append(res)
            if ran:
                exact.append(k)
        shown = [
            (rows[res.valid_ids], res.screen)
            for rows, res in zip(self.shard_rows, results)
            if res.num_visible
        ]
        if not shown:
            valid, screen = np.empty(0, dtype=np.int64), None
        else:
            ids = np.concatenate([part for part, _ in shown])
            order = np.argsort(ids)
            valid = ids[order]
            screens = [part for _, part in shown]
            screen = (
                None if any(part is None for part in screens)
                else ScreenRows.concat(screens).take(order)
            )
        return ShardedCullResult(
            valid_ids=valid,
            num_total=self.num_rows,
            num_in_depth=sum(res.num_in_depth for res in results),
            num_visible=int(valid.size),
            shard_visible=tuple(res.num_visible for res in results),
            exact_shards=tuple(exact),
            screen=screen,
        )

    def leaves(self, prefix: str = "", rows: np.ndarray | None = None):
        sep = "_" if prefix else ""
        for k, (shard, store) in enumerate(zip(self.shard_rows, self.stores)):
            yield from store.leaves(
                f"{prefix}{sep}shard{k}", shard if rows is None else rows[shard]
            )
