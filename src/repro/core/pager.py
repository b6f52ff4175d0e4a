"""The pager: page files, residency, and the two background page lanes.

The training spill tier (:class:`~repro.core.stores.DiskStore`) and the
serving shards (:class:`~repro.serve.store.PagedServingStore`) keep their
arrays in :class:`PageFile` objects, the only code outside
:mod:`repro.core.pagecodec` / :mod:`repro.core.integrity` that knows how
a page is laid out, encoded, checksummed and written.
Beside it live :class:`ResidentSet`, :class:`PreloadedShard`, the
write-behind lane and the prefetch lane. Stores place, systems decide, the
pager pages; the residency *sequence* (dirty pages, epochs and write-behind
for training; immutable pages and quarantine for serving) stays per tier.
"""

from __future__ import annotations

import queue
import threading
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .. import faults
from ..pool import pool_fork_guard
from ..telemetry import trace as _trace
from ..telemetry.trace import span as _span
from .integrity import CorruptPageError, atomic_write_bytes, checksum
from .pagecodec import get_page_codec

if TYPE_CHECKING:
    from ..cameras.camera import Camera
    from .stores import DiskStore


class PageFile:
    """One 2-D array on disk under a page codec.

    A ``raw`` page is ``{stem}.dat``, a memory-mapped file whose bytes
    stay exactly the array — the ledger equates its disk and host sizes,
    so it cannot carry a header and its CRC32 is held out of band, on
    this object. Every other codec is one sealed ``GSP1`` file
    ``{stem}.{codec}.pagez`` (length + CRC32 header,
    :mod:`repro.core.integrity`), replaced atomically on every write. An
    empty page has no file under any codec (zero bytes cannot be
    memory-mapped). :meth:`read` always verifies; there is no switch.

    Args:
        stem: path prefix of the page file.
        shape: ``(rows, cols)`` of the stored array.
        dtype: dtype :meth:`read` decodes to (and a raw page is stored in).
        codec: page codec name (:mod:`repro.core.pagecodec`).
    """

    def __init__(self, stem: str, shape, dtype, codec: str = "raw"):
        self.stem = stem
        self.shape = (int(shape[0]), int(shape[1]))
        self.dtype = np.dtype(dtype)
        self.codec = get_page_codec(codec)
        self._raw = self.codec.name == "raw"
        suffix = "dat" if self._raw else f"{self.codec.name}.pagez"
        self.path = f"{stem}.{suffix}" if self.shape[0] else ""
        #: encoded bytes of the page as last encoded; ``None`` = stored
        #: raw (the ledger's convention for "disk == decoded")
        self.disk_nbytes: int | None = None
        self._crc: int | None = None  # raw pages only: as last written / sealed
        self._mm = None
        if self._raw:
            self._mm = (
                np.memmap(self.path, dtype=self.dtype, mode="w+", shape=self.shape)
                if self.path
                else np.empty(self.shape, dtype=self.dtype)
            )

    def view(self) -> np.ndarray:
        """The raw page's writable mapping: checkpoint streaming of a
        spilled store, and the buffer a serving build fills block by
        block (:meth:`seal` it afterwards)."""
        if self._mm is None:
            raise TypeError(f"page {self.path!r} has no writable mapping")
        return self._mm

    def seal(self) -> None:
        """Flush a raw page and record its CRC (after filling it through
        :meth:`view`; :meth:`write` seals by itself)."""
        if self._raw and self.path:
            self._mm.flush()
            self._crc = checksum(self._mm)

    def encode(self, arr: np.ndarray) -> bytes | None:
        """The sealed bytes :meth:`write` would store (``None`` for a raw
        or empty page), fixing :attr:`disk_nbytes` now — write-behind
        encodes on the training thread, where the ledger records the
        page-out, and lands the bytes later via ``write(encoded=)``."""
        if self._raw or not self.path:
            return None
        buf = self.codec.encode_page(arr)
        self.disk_nbytes = len(buf)
        return buf

    def write(self, arr: np.ndarray, encoded: bytes | None = None,
              fsync: bool = False) -> None:
        """Store ``arr`` (or its :meth:`encode` output). ``fsync`` makes
        an encoded page durable before the rename; a raw page flushes its
        mapping either way. Visits the ``pager:page_out`` fault point
        once per call, before any byte moves."""
        faults.fault_point("pager:page_out")
        if not self.path:
            return
        if self._raw:
            self._mm[...] = arr
            self.seal()
            return
        if encoded is None:
            encoded = self.encode(arr)
        atomic_write_bytes(self.path, encoded, fsync=fsync)

    def read(self, dtype=None) -> np.ndarray:
        """The page as a fresh, writable, verified array (decoded to
        ``dtype`` when given). Raises
        :class:`~repro.core.integrity.CorruptPageError` naming the file
        on a torn (short) or bit-rotted (checksum) page."""
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        if not self.path:
            return np.empty(self.shape, dtype=dtype)
        if not self._raw:
            with open(self.path, "rb") as fh:
                buf = fh.read()
            return self.decode(buf, dtype)
        # copy out of the live mapping (measured at a third of re-reading
        # the file)
        arr = np.array(self._mm)
        actual = checksum(arr)
        if actual != self._crc:  # a page never written or sealed has none
            raise CorruptPageError(
                self.path,
                f"checksum mismatch: recorded {self._crc}, read {actual}",
            )
        return arr.reshape(self.shape).astype(dtype, copy=False)

    def decode(self, encoded: bytes, dtype=None) -> np.ndarray:
        """The array sealed page bytes hold — the file's, or :meth:`encode`
        output that has not landed yet — as :meth:`read` returns it."""
        dtype = self.dtype if dtype is None else np.dtype(dtype)
        return self.codec.decode_page(encoded, self.shape, dtype, path=self.path)


class ResidentSet:
    """LRU residency manager bounding concurrent :class:`DiskStore` page-ins.

    At most ``budget`` stores are paged in at once; admitting one more
    spills the least-recently-used resident store first, so the tracked
    host working set never exceeds the resident-set budget regardless of
    how many shards the out-of-core system ticks per step.
    """

    def __init__(self, budget: int):
        if budget < 1:
            raise ValueError("resident-set budget must be >= 1")
        self.budget = budget
        self._stores: list["DiskStore"] = []  # LRU order: oldest first

    @property
    def resident(self) -> tuple["DiskStore", ...]:
        """Currently paged-in stores, least recently used first."""
        return tuple(self._stores)

    def touch(self, store: "DiskStore") -> None:
        """Mark ``store`` most recently used."""
        if store in self._stores:
            self._stores.remove(store)
            self._stores.append(store)

    def admit(self, store: "DiskStore") -> None:
        """Make room for ``store`` (spilling LRU stores) and register it."""
        while len(self._stores) >= self.budget:
            victim = self._stores[0]
            victim.spill()  # spill() drops it from the set
            if victim in self._stores:
                raise RuntimeError(f"cannot make room: {victim!r} did not spill")
        self._stores.append(store)

    def drop(self, store: "DiskStore") -> None:
        """Forget ``store`` (it spilled itself)."""
        if store in self._stores:
            self._stores.remove(store)


@dataclass
class PreloadedShard:
    """A :meth:`DiskStore.preload` snapshot: spill-file contents read into
    plain arrays off the training thread, plus the spill epoch they were
    read at (so :meth:`DiskStore.adopt` can reject torn snapshots).
    """

    arrays: dict[str, np.ndarray]
    epoch: int

    @property
    def nbytes(self) -> int:
        """Host bytes the staged snapshot occupies."""
        return sum(a.nbytes for a in self.arrays.values())


class _WriteBehindWriter:
    """Single background thread draining queued :class:`DiskStore` page-outs.

    With write-behind enabled, :meth:`DiskStore.spill` detaches the
    working set and enqueues ``(store, epoch)`` here instead of writing
    the spill files on the training thread — the admit path stops paying
    the write. Jobs run strictly in order; each one completes under the
    store's page lock and is fenced by the spill epoch, so a store that
    paged back in (cancelling its pending write) or spilled again before
    its job ran is simply skipped. The spill of a clean store writes
    nothing and queues no job.

    ``drain()`` blocks until every queued write has landed — the fence
    :func:`~repro.core.checkpoint.save_checkpoint` relies on (via
    ``finalize()``) so a checkpoint never races a queued page-out, and
    the densification rebuild uses before discarding the old stores.
    """

    def __init__(self):
        self._queue: queue.Queue = queue.Queue()
        self._closed = False
        self._error: Exception | None = None
        self.jobs_written = 0
        self._thread = threading.Thread(
            target=self._run, name="gsscale-writeback", daemon=True
        )
        self._thread.start()

    def enqueue(self, store: "DiskStore", epoch: int) -> None:
        """Queue the store's pending page-out (tagged with its epoch)."""
        self._queue.put((store, epoch))

    def drain(self) -> None:
        """Block until every queued write has been applied or skipped."""
        self._queue.join()
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def close(self) -> None:
        """Drain outstanding writes and stop the thread (idempotent)."""
        if self._closed:
            return
        self._closed = True
        self._queue.put(None)
        self._thread.join()
        if self._error is not None:
            error, self._error = self._error, None
            raise error

    def _run(self) -> None:
        while True:
            job = self._queue.get()
            try:
                if job is None:
                    return
                store, epoch = job
                _trace.name_current_thread("gsscale-writeback")
                faults.fault_point("pager:write_behind")
                with _span("page/writeback", "page"):
                    store._complete_pending_write(epoch)
                self.jobs_written += 1
            except Exception as exc:  # surfaced by the next drain()/close()
                self._error = exc
            finally:
                self._queue.task_done()


class _AsyncPrefetcher:
    """Background leg of the out-of-core pipeline.

    Given a hint of the upcoming views, a daemon thread predicts their
    active shards (a cull over the device-resident geometry) and
    snapshots the spilled ones into host buffers
    (:meth:`~repro.core.stores.DiskStore.preload`) while the training
    thread renders the *current* view — the TideGS-style overlap of page
    traffic with compute. The snapshots are staged per hinted view:
    nothing is installed into any store until the training thread
    reaches that view's prefetch point and adopts them there, so store
    state, trackers, and the ledger only ever mutate on the training
    thread, and a stale prediction (the geometry moved, a racing spill)
    degrades to the ordinary synchronous page-in.

    At ``depth == 1`` this is exactly the historical single-slot double
    buffer: one view staged at a time, the slot drained on every
    :meth:`take`. At ``depth > 1`` the hint is a lookahead *list*
    (``locality_view_order`` makes it predictive) and staged views
    survive :meth:`take` until consumed or dropped from a newer hint —
    the depth-D staging queue. Host bytes held by the queue are capped
    at ``depth x resident budget x worst shard state`` (the staging
    budget); the worker stops staging deeper views at the cap.

    ``stores`` are the shards' spilling stores by shard index, ``budget``
    the resident-set budget, ``active_shards`` the system's ``camera ->
    shard indices`` cull (this module knows no geometry).
    """

    def __init__(
        self,
        stores: list[DiskStore],
        budget: int,
        active_shards: Callable[[Camera], list[int]],
        depth: int = 1,
    ):
        self._stores = stores
        self._budget = budget
        self._active_shards = active_shards
        self.depth = depth
        self._cameras: list[Camera] = []
        #: staged snapshots keyed by ``id(camera)`` — identity, not
        #: equality: the trainer hints the very objects it will train on
        self._results: dict[int, tuple[Camera, dict]] = {}
        #: host bytes of the staged queue, current and high-water (kept
        #: here, not on a MemoryTracker: trackers are training-
        #: thread-only, and the buffers are owned by this thread until
        #: adoption — the sim's ``staging_shards`` term models them)
        self.staged_bytes = 0
        self.peak_staged_bytes = 0
        self._have_job = threading.Event()
        self._done = threading.Event()
        self._done.set()
        self._stop = False
        self._thread = threading.Thread(
            target=self._run, name="gsscale-prefetch", daemon=True
        )
        self._thread.start()

    def staging_budget_bytes(self) -> int:
        """Cap on staged host bytes: depth x resident budget x the worst
        shard's state size (never binding at depth 1, where a single
        view can stage at most one budget's worth)."""
        worst = max((s._state_bytes() for s in self._stores), default=0)
        return self.depth * self._budget * worst

    def schedule(self, cameras: list[Camera]) -> None:
        """Start prefetching for ``cameras``, nearest first (waits out
        any running job). Staged views absent from the new hint are
        dropped; views already staged are not re-read."""
        if self._stop:
            return
        self._done.wait()
        keep = {id(c) for c in cameras}
        for key in list(self._results):
            if key not in keep:
                del self._results[key]
        self._refresh_staged()
        self._cameras = [c for c in cameras if id(c) not in self._results]
        self._done.clear()
        self._have_job.set()

    def take(self, camera: Camera) -> tuple[bool, dict]:
        """``(matched, buffers)`` for ``camera``.

        ``matched`` says a staging job ran for exactly this view — the
        denominator of any hit/miss accounting. At depth 1 any other
        staged view is discarded (the double-buffer contract); at
        depth > 1 deeper views stay queued for their own take.
        """
        self._done.wait()
        entry = self._results.pop(id(camera), None)
        if self.depth == 1:
            self._results.clear()
        self._refresh_staged()
        if entry is not None:
            return True, entry[1]
        return False, {}

    def close(self) -> None:
        """Stop the worker thread (idempotent)."""
        self._stop = True
        self._have_job.set()
        self._thread.join(timeout=5.0)

    def _refresh_staged(self) -> None:
        # fp32-equivalent units, like every MemoryTracker in the repo
        self.staged_bytes = sum(
            self._stores[k]._state_bytes()
            for _, buffers in self._results.values()
            for k in buffers
        )
        self.peak_staged_bytes = max(self.peak_staged_bytes, self.staged_bytes)

    def _run(self) -> None:
        while True:
            self._have_job.wait()
            self._have_job.clear()
            if self._stop:
                self._done.set()
                return
            _trace.name_current_thread("gsscale-prefetch")
            cap = self.staging_budget_bytes()
            for camera in self._cameras:
                try:
                    # fork guard: a render-farm or patch-job pool must
                    # never fork while this thread is mid-read (inherited
                    # half-held locks would wedge the child workers)
                    with pool_fork_guard, _span("page/prefetch", "page"):
                        buffers = self._prepare(camera, cap)
                except Exception:
                    buffers = {}  # a failed prefetch is just a cache miss
                self._results[id(camera)] = (camera, buffers)
                self._refresh_staged()
            self._done.set()

    def _prepare(self, camera: Camera, cap: int) -> dict:
        buffers = {}
        total = self.staged_bytes
        for k in self._active_shards(camera)[: self._budget]:
            store = self._stores[k]
            cost = store._state_bytes()
            if total + cost > cap:
                break  # staging deeper would blow the host budget
            pre = store.preload()
            if pre is not None:
                buffers[k] = pre
                total += cost
        return buffers
