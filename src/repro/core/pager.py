"""The pager: page files, residency, and the prefetch lane.

The training spill tier (:class:`~repro.core.stores.DiskStore`) and the
serving shards (:class:`~repro.serve.store.PagedServingStore`) keep their
arrays in :class:`PageFile` objects, the only code outside
:mod:`repro.core.pagecodec` / :mod:`repro.core.integrity` that knows how
a page is laid out, encoded, checksummed and written.
Beside it live :class:`ResidentSet`, :class:`PreloadedShard` and the
prefetch lane. Page-outs run on the thread that spills; only page-ins
are overlapped. Stores place, systems decide, the pager pages; the
residency *sequence* (dirty pages and epochs for training; immutable
pages and quarantine for serving) stays per tier.
"""

from __future__ import annotations

import contextlib
import os
from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable

import numpy as np

from .. import faults
from ..pool import Lane
from ..telemetry.trace import span as _span
from .integrity import CorruptPageError, atomic_write_bytes, checksum
from . import pagecodec

if TYPE_CHECKING:
    from ..cameras.camera import Camera
    from .stores import DiskStore


class PageFile:
    """One 2-D array on disk under a page codec.

    A ``raw`` page — every training page, and a serving page while it is
    built — is ``{stem}.dat``, a memory-mapped file whose bytes stay
    exactly the array (this mapping is the raw page format's one
    definition): the ledger equates its disk and host sizes, so it
    cannot carry a header and its CRC32 is held out of band, on this
    object. A ``float16`` page (serving only) is one sealed ``GSP1`` file
    ``{stem}.float16.pagez`` (length + CRC32 header,
    :mod:`repro.core.integrity`), replaced atomically on every write. An
    empty page has no file under any codec (zero bytes cannot be
    memory-mapped). :meth:`read` and :meth:`hold` always verify; there is
    no switch.

    Args:
        stem: path prefix of the page file.
        shape: ``(rows, cols)`` of the stored array.
        dtype: dtype :meth:`read` decodes to (and a raw page is stored in).
        codec: page codec name, one of
            :data:`~repro.core.pagecodec.CODECS` (:class:`ValueError`
            otherwise).
    """

    def __init__(self, stem: str, shape, dtype, codec: str = "raw"):
        self.stem = stem
        self.shape = (int(shape[0]), int(shape[1]))
        self.dtype = np.dtype(dtype)
        self.codec = pagecodec.check_codec(codec)
        self._raw = codec == "raw"
        suffix = "dat" if self._raw else f"{codec}.pagez"
        self.path = f"{stem}.{suffix}" if self.shape[0] else ""
        #: sealed bytes of an encoded page as last written; ``None`` =
        #: stored raw (the ledger's convention for "disk == decoded")
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

    def write(self, arr: np.ndarray, fsync: bool = False) -> None:
        """Store ``arr``. ``fsync`` makes an encoded page durable before
        the rename; a raw page flushes its mapping either way. Visits the
        ``pager:page_out`` fault point once per call, before any byte
        moves."""
        faults.fault_point("pager:page_out")
        if not self.path:
            return
        if self._raw:
            self._mm[...] = arr
            self.seal()
            return
        buf = pagecodec.encode_page(arr)
        self.disk_nbytes = len(buf)
        atomic_write_bytes(self.path, buf, fsync=fsync)

    def read(self) -> np.ndarray:
        """The page as a fresh, writable, verified array. Raises
        :class:`~repro.core.integrity.CorruptPageError` naming the file
        on a torn (short), bit-rotted (checksum) or misshapen (a payload
        that is not ``rows x cols`` values) page."""
        return self._load(pagecodec.decode_page)

    def hold(self):
        """The verified page as a read-only reader keeps it resident
        (:func:`~repro.core.pagecodec.hold`): indexed by an array
        of rows, it gives those rows of :meth:`read`, byte for byte. A
        float16 page stays encoded and decodes only the rows asked for.
        Verified as :meth:`read` verifies."""
        return self._load(pagecodec.hold_page)

    def _load(self, open_page):
        """The one verified read: visits the ``pager:page_in`` fault point
        once, before any byte is read, then checks the raw page's size
        and CRC or hands the sealed bytes to ``open_page``."""
        faults.fault_point("pager:page_in")
        if not self.path:
            return np.empty(self.shape, dtype=self.dtype)
        if not self._raw:
            with open(self.path, "rb") as fh:
                buf = fh.read()
            return open_page(buf, self.shape, self.dtype, path=self.path)
        # a file shorter than its mapping would fault on the copy
        size = os.path.getsize(self.path)
        if size != self._mm.nbytes:
            raise CorruptPageError(
                self.path,
                f"file holds {size} bytes, a {self.shape} page {self._mm.nbytes}",
            )
        # copy out of the live mapping (measured at a third of re-reading
        # the file)
        arr = np.array(self._mm)
        actual = checksum(arr)
        if actual != self._crc:  # a page never written or sealed has none
            raise CorruptPageError(
                self.path,
                f"checksum mismatch: recorded {self._crc}, read {actual}",
            )
        return arr.reshape(self.shape)


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


@dataclass
class SpillStats:
    """Spill counter of :class:`DiskStore` page-outs, training thread only.

    A standalone store keeps its own; the out-of-core system hands one
    record to every store it builds, so the count adds up over the run,
    densification rebuilds included.
    """

    #: spills of a clean store: evictions that wrote no page and recorded
    #: no page-out
    clean_evictions: int = 0


class _AsyncPrefetcher:
    """Background leg of the out-of-core pipeline: one staging slot.

    Given the next view, the prefetch lane predicts its active shards (a
    cull over the device-resident geometry) and snapshots the spilled
    ones into host buffers (:meth:`~repro.core.stores.DiskStore.preload`)
    while the training thread renders the *current* view — the
    TideGS-style overlap of page traffic with compute. Nothing is
    installed into any store until the training thread reaches that
    view's prefetch point and adopts the snapshots there, so store
    state, trackers, and the ledger only ever mutate on the training
    thread, and a stale prediction (the geometry moved, a racing spill)
    degrades to the ordinary synchronous page-in.

    The slot holds one view: :meth:`schedule` replaces it, and
    :meth:`take` always empties it and reports a match only for the view
    it held. A view stages at most ``budget`` snapshots (the shards
    :meth:`~repro.core.systems.OutOfCoreGSScaleSystem.prefetch` admits),
    so the slot holds at most ``resident budget x worst shard state``
    host bytes. A synchronous run never schedules, so its lane never
    starts a thread.

    One prefetcher serves a whole run. ``budget`` is the resident-set
    budget; :meth:`retarget` hands it the shards' spilling stores (by
    shard index) and their ``camera -> shard indices`` cull (this module
    knows no geometry) — at construction and after every densification
    rebuild. :meth:`fence` waits out the lane and empties the slot; the
    lane itself stays up and exits when the prefetcher is freed.
    """

    def __init__(self, budget: int):
        self._budget = budget
        self._stores: list[DiskStore] = []
        self._active_shards: Callable[[Camera], list[int]] = lambda camera: []
        #: the staged view and its snapshots by shard index; the view is
        #: matched by identity, not equality: the trainer hints the very
        #: objects it will train on
        self._slot: tuple[Camera, dict] | None = None
        #: host bytes of the slot, current and high-water (kept here, not
        #: on a MemoryTracker: trackers are training-thread-only, and the
        #: buffers are owned by the lane until adoption — the sim's
        #: ``staging_shards`` term models them)
        self.staged_bytes = 0
        self.peak_staged_bytes = 0
        self._lane = Lane("prefetch")

    def retarget(self, stores: list[DiskStore], active_shards: Callable[[Camera], list[int]]):
        """Stage from ``stores`` through ``active_shards`` from now on.
        Nothing staged from the old stores survives, and the high-water
        mark restarts (as the host tracker does at a rebuild)."""
        self.fence()
        self._stores = stores
        self._active_shards = active_shards
        self.peak_staged_bytes = 0

    def schedule(self, camera: Camera) -> None:
        """Start prefetching for ``camera`` in place of whatever the slot
        held (waits out any running job)."""
        self._settle()
        self._slot = (camera, {})  # a miss until staged
        self._refresh_staged()
        self._lane.submit(self._stage, camera)

    def take(self, camera: Camera) -> tuple[bool, dict]:
        """``(matched, buffers)`` for ``camera``, emptying the slot.

        ``matched`` says a staging job ran for exactly this view — the
        denominator of any hit/miss accounting.
        """
        self._settle()
        slot, self._slot = self._slot, None
        self._refresh_staged()
        if slot is not None and slot[0] is camera:
            return True, slot[1]
        return False, {}

    def fence(self) -> None:
        """Wait out the running job and empty the slot (the lane stays
        usable: the next :meth:`schedule` stages again)."""
        self._settle()
        self._slot = None
        self._refresh_staged()

    def _settle(self) -> None:
        """Wait out the outstanding ticket. A failed one leaves the view
        staged empty, as :meth:`schedule` left it: a failed prefetch, like
        a failed snapshot, is just a miss."""
        self._lane.drain()

    def _refresh_staged(self) -> None:
        # fp32-equivalent units, like every MemoryTracker in the repo
        buffers = self._slot[1] if self._slot is not None else {}
        self.staged_bytes = sum(self._stores[k]._state_bytes() for k in buffers)
        self.peak_staged_bytes = max(self.peak_staged_bytes, self.staged_bytes)

    def _stage(self, camera: Camera) -> None:
        buffers = {}
        # a failed snapshot leaves the view staged empty: just a miss
        with contextlib.suppress(Exception), _span("page/prefetch", "page"):
            for k in self._active_shards(camera)[: self._budget]:
                pre = self._stores[k].preload()
                if pre is not None:
                    buffers[k] = pre
            self._slot = (camera, buffers)
        self._refresh_staged()
