"""Read-only serving stores: where a trained model lives while it serves.

Training placements (:mod:`repro.core.stores`) carry optimizer state and
gradient plumbing; serving needs none of that — just the committed
``(N, 59)`` parameter matrix, gatherable per view. Two placements:

* :class:`InMemoryServingStore` — the whole packed matrix resident in
  host memory. Fast and simple.
* :class:`PagedServingStore` — the out-of-core tier for models larger
  than the host budget (TideGS's regime, inference-side): the geometric
  columns (17%) stay resident for culling, while the non-geometric
  columns are spatially sharded into page files
  (:class:`~repro.core.pager.PageFile`, the training spill tier's
  format) and at most ``resident`` shards occupy host DRAM at once — a
  ``float16`` one still encoded, decoded row by row as gathers ask.
  Rows reach their pages through the training tier's owner map
  (:class:`~repro.core.splitting.ShardMap`), residency reuses its LRU
  machinery (:class:`~repro.core.pager.ResidentSet`), page traffic is
  metered on the :class:`~repro.core.systems.TransferLedger` page
  channel, and a capacity-capped :class:`~repro.sim.memory.MemoryTracker`
  *enforces* the byte budget — an accounting bug raises instead of
  silently overshooting.

Both expose the :class:`ServingStore` surface the frame renderer needs:
``geometry()`` for culling, ``gather_tick(ids)`` for one tick's union of
visible rows (``gather(ids)`` for packed rows), ``max_gather_rows`` to
cap that union, and ``num_rows``. Placement never changes pixels: a
paged gather returns the same bytes an in-memory gather would.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np

from ..core.checkpoint import CheckpointReader
from ..core.integrity import CorruptPageError
from ..core.pagecodec import check_codec, decode_halves
from ..core.pager import PageFile, ResidentSet
from ..core.splitting import ShardMap, spatial_partition
from ..core.systems import TransferLedger
from ..gaussians import layout
from ..sim.memory import MemoryTracker
from ..telemetry import trace as _trace
from ..telemetry.trace import span as _span

__all__ = [
    "InMemoryServingStore",
    "PageQuarantinedError",
    "PagedServingStore",
    "ServingStore",
    "TickRows",
]

#: the opacity and the SH columns inside a non-geometric page row
_PAGE_OPACITY = slice(0, layout.OPACITY_DIM)
_PAGE_SH = slice(layout.OPACITY_DIM, layout.NON_GEOMETRIC_DIM)


class PageQuarantinedError(RuntimeError):
    """A serving shard's page failed integrity checks and was fenced off.

    Raised on the page-in that detects the corruption and on every later
    attempt to touch the quarantined shard — requests needing it fail
    individually (and are reported) while the rest of the model keeps
    serving; the store as a whole never crashes on a bad page.
    """


class _TickSH:
    """The SH columns of a tick's rows, decoded on demand: ``sh[rows]``
    is those rows' ``(k, 16, 3)`` coefficients, and :attr:`shaded`
    counts the rows handed out.

    ``values`` is ``(M, 48)``: decoded coefficients when ``scales`` is
    ``None``, else float16 roots as their page held them, row ``r``
    under the column scales ``scales[part[r]]`` of its shard — decoded
    exactly as the page decodes them (:func:`~repro.core.pagecodec.\
decode_halves`)."""

    def __init__(self, values, dtype, scales=None, part=None):
        self.values = values
        self.dtype = dtype
        self.scales = scales
        self.part = part
        self.shaded = 0

    def __getitem__(self, rows: np.ndarray) -> np.ndarray:
        self.shaded += len(rows)
        if self.scales is None:
            out = self.values[rows]
        else:
            out = decode_halves(
                self.values[rows], self.scales[self.part[rows]], self.dtype
            )
        return out.reshape(-1, layout.SH_COEFFS_PER_CHANNEL, 3)


class TickRows:
    """What one serving tick gathered for the sorted union of its frames'
    rows (:meth:`ServingStore.gather_tick`), readable as a model by
    :func:`~repro.render.render`: the geometric columns and the opacity
    of every row are decoded (``means`` … ``opacity_logits``); the SH
    are decoded only for the rows a frame reads, ``sh[rows]``, and
    :attr:`shaded` counts those."""

    def __init__(self, head: np.ndarray, sh: _TickSH):
        #: ``(M, 11)``: the geometric columns, then the opacity logit
        self.head = head
        self.sh = sh

    @classmethod
    def of(cls, params: np.ndarray) -> "TickRows":
        """Wrap packed, fully decoded ``(M, 59)`` rows."""
        return cls(
            params[:, : layout.OPACITY_SLICE.stop],
            _TickSH(params[:, layout.SH_SLICE], params.dtype),
        )

    @property
    def shaded(self) -> int:
        """Rows whose SH were read so far."""
        return self.sh.shaded

    @property
    def num_gaussians(self) -> int:
        return self.head.shape[0]

    @property
    def dtype(self):
        return self.head.dtype

    @property
    def means(self) -> np.ndarray:
        return self.head[:, layout.MEAN_SLICE]

    @property
    def log_scales(self) -> np.ndarray:
        return self.head[:, layout.SCALE_SLICE]

    @property
    def quats(self) -> np.ndarray:
        return self.head[:, layout.QUAT_SLICE]

    @property
    def opacity_logits(self) -> np.ndarray:
        return self.head[:, layout.OPACITY_SLICE]


class ServingStore:
    """Read-only model placement surface the frame renderer draws from.

    Four lifetime counters say what serving did with it:
    :attr:`rows_projected`, :attr:`rows_gathered`, and — non-zero only
    for a placement that pages — :attr:`shards_touched` and
    :attr:`page_ins`. They count the work done on this object, in this
    process, only.
    """

    #: rows the frame culls ran the exact projection on so far — the
    #: candidates the bounding-radius reject let through
    #: (:func:`repro.serve.farm.visible_ids`), not the rows of the model
    rows_projected = 0
    #: rows returned by :meth:`gather` so far
    rows_gathered = 0
    #: shard pages visited by gathers so far (a gather counts each shard
    #: holding one of its rows once)
    shards_touched = 0

    @property
    def page_ins(self) -> int:
        """Shard visits that missed and read their page from disk."""
        return 0

    @property
    def num_rows(self) -> int:
        """Number of Gaussians in the served model."""
        raise NotImplementedError

    @property
    def dtype(self):
        """Floating dtype of the served parameters."""
        raise NotImplementedError

    @property
    def model_bytes(self) -> int:
        """fp32-equivalent bytes of the full packed parameter matrix."""
        return layout.param_bytes(self.num_rows)

    def geometry(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Resident ``(means, log_scales, quats)`` for frustum culling."""
        raise NotImplementedError

    def gather(self, ids: np.ndarray) -> np.ndarray:
        """Packed ``(M, 59)`` rows for ``ids`` (copy)."""
        raise NotImplementedError

    def gather_tick(self, ids: np.ndarray) -> TickRows:
        """A serving tick's gather of ``ids``: the same rows, page-ins and
        counters as :meth:`gather`, with the SH decoded only for the rows
        a frame shades (:class:`TickRows`)."""
        return TickRows.of(self.gather(ids))

    @property
    def max_gather_rows(self) -> int | None:
        """Most rows one :meth:`gather` should be asked for (``None`` =
        no cap: the placement already holds the whole model)."""
        return None

    def close(self) -> None:
        """Release any backing resources (idempotent)."""


class InMemoryServingStore(ServingStore):
    """The whole committed model resident in host memory.

    Args:
        params: packed ``(N, 59)`` matrix.
        copy: defensively copy ``params`` (``False`` wraps an array the
            caller owns and no longer writes, such as a freshly loaded
            checkpoint's).
    """

    def __init__(self, params: np.ndarray, copy: bool = True):
        if params.ndim != 2 or params.shape[1] != layout.PARAM_DIM:
            raise ValueError(
                f"params must be (N, {layout.PARAM_DIM}), got {params.shape}"
            )
        self.params = params.copy() if copy else params

    @classmethod
    def from_model(cls, model) -> "InMemoryServingStore":
        """Wrap a :class:`~repro.gaussians.model.GaussianModel` (copy)."""
        return cls(model.params)

    @classmethod
    def from_checkpoint(cls, path: str) -> "InMemoryServingStore":
        """Load the committed model of a checkpoint, any placement."""
        from ..core.checkpoint import resume_model

        return cls(resume_model(path).params, copy=False)

    @property
    def num_rows(self) -> int:
        return self.params.shape[0]

    @property
    def dtype(self):
        return self.params.dtype

    def geometry(self):
        return (
            self.params[:, layout.MEAN_SLICE],
            self.params[:, layout.SCALE_SLICE],
            self.params[:, layout.QUAT_SLICE],
        )

    def gather(self, ids: np.ndarray) -> np.ndarray:
        self.rows_gathered += ids.size
        return self.params[ids]  # advanced indexing already copies


class _ServeShard:
    """One spatial shard's non-geometric page: a
    :class:`~repro.core.pager.PageFile` plus, while paged in, what the
    page holds resident (:meth:`~repro.core.pager.PageFile.hold`), driven
    through the shared
    :class:`~repro.core.pager.ResidentSet` (which calls :meth:`spill`
    on the LRU shard to make room — the same protocol the training
    tier's :class:`~repro.core.stores.DiskStore` speaks)."""

    def __init__(self, store: "PagedServingStore", index: int, num_rows: int):
        self._store = store
        self.index = index
        self.num_rows = num_rows
        # the build buffer is always a raw page — checkpoint blocks stream
        # into its mapping incrementally; :meth:`seal` re-stores it under
        # the store's codec once building is done
        self.page = PageFile(
            os.path.join(store.page_dir, f"serve_shard{index}"),
            (num_rows, layout.NON_GEOMETRIC_DIM),
            store.dtype,
        )
        #: the resident page (:meth:`~repro.core.pager.PageFile.hold`):
        #: ``values[local]`` is those rows' columns, decoded
        self.values = None

    @property
    def page_path(self) -> str:
        """The shard's page file (``""`` for an empty shard)."""
        return self.page.path

    def seal(self) -> None:
        """Finish building: record the build page's checksum and, under
        ``float16``, re-store it as one encoded page (durably) and
        delete the raw buffer — a page-in then holds what the codec keeps
        of it (:meth:`~repro.core.pager.PageFile.hold`: a float16 page
        stays encoded and a gather decodes only its rows). One shard's
        rows are transient at a time."""
        build = self.page
        build.seal()
        codec = self._store.codec
        if codec == build.codec or not self.num_rows:
            return
        self.page = PageFile(build.stem, build.shape, build.dtype, codec)
        self.page.write(np.asarray(build.view()), fsync=True)
        os.remove(build.path)

    @property
    def is_resident(self) -> bool:
        return self.values is not None

    @property
    def state_bytes(self) -> int:
        """fp32-equivalent bytes of the paged columns."""
        return layout.param_bytes(self.num_rows, layout.NON_GEOMETRIC_DIM)

    def page_in(self) -> None:
        """Make the shard's columns host-resident (LRU-admitting).

        A page that fails integrity validation quarantines the shard:
        this call — and every later one for the same shard — raises
        :class:`PageQuarantinedError`, leaving the rest of the store
        serving.
        """
        store = self._store
        quarantined = store.quarantined.get(self.index)
        if quarantined is not None:
            raise PageQuarantinedError(
                f"serving shard {self.index} is quarantined: {quarantined}"
            )
        if self.is_resident:
            store.resident_set.touch(self)
            return
        # admit first, read second: the LRU shard is gone before this
        # page arrives, so the host never holds budget + 1 pages (the
        # training tier reads first — its snapshot may come from another
        # thread). The price is the rollback: a read that fails for any
        # reason must not leave a non-resident entry in the set, which
        # no later admit could spill
        store.resident_set.admit(self)
        tok = _trace.begin("serve/page_in", "page")
        try:
            self.values = self.page.hold()
        except Exception as exc:
            store.resident_set.drop(self)
            if isinstance(exc, CorruptPageError):
                store._quarantine(self, exc)
            raise
        finally:
            _trace.end(tok)
        store.host_memory.allocate("serve_resident_shards", self.state_bytes)
        store.ledger.record_page_in(self.state_bytes, self.page.disk_nbytes)

    def spill(self) -> None:
        """Drop the host copy (the page file stays authoritative)."""
        if not self.is_resident:
            return
        store = self._store
        with _span("serve/page_out", "page", shard=self.index):
            self.values = None
            store.resident_set.drop(self)
            store.host_memory.free(
                "serve_resident_shards", self.state_bytes
            )
            # serving pages are immutable: a spill writes nothing to disk
            store.ledger.record_page_out(self.state_bytes, 0)


class PagedServingStore(ServingStore):
    """Serve a model larger than host memory by paging shard columns.

    The geometric block ``(N, 10)`` stays resident (every request culls
    against it); the non-geometric ``(N, 49)`` lives in per-shard
    page files under ``page_dir`` and at most ``resident`` shards are
    paged into host DRAM at once, where::

        resident = (host_budget_bytes - geo_bytes) // worst_shard_bytes

    A :class:`~repro.sim.memory.MemoryTracker` capped at
    ``host_budget_bytes`` charges the geometric block and every page-in,
    so the budget is enforced, not just reported; page traffic lands on
    the ledger's ``page_in``/``page_out`` channel.

    :meth:`gather` reads the shards that are already resident before it
    admits any other, so one call never evicts a page it is about to
    read: it pages in exactly the touched shards that were not resident
    when it started — the floor for any replacement policy under the
    same budget — and a serving tick that gathers once for the union of
    its frames (:func:`repro.serve.farm.render_frames`) pays each shard
    at most once. :attr:`max_gather_rows` (``resident x largest shard``,
    i.e. derived from ``host_budget_bytes``) bounds that union, so the
    rows a tick assembles never exceed what the page budget itself
    holds and no process builds the model.

    Args:
        geo: resident geometric columns ``(N, 10)``.
        shard_rows: sorted global row ids per shard (a
            :func:`~repro.core.splitting.spatial_partition`); together
            they must tile ``0..N-1`` exactly once, or :class:`ValueError`
            is raised.
        host_budget_bytes: byte cap on tracked host memory.
        page_dir: directory of the page files (a temporary directory
            that dies with the store when ``None``).
        ledger: transfer ledger for the page channel (fresh when
            ``None``).
        codec: page codec name, ``"raw"`` or ``"float16"`` (see
            :mod:`repro.core.pagecodec`). Under ``float16`` each shard's
            page is stored encoded (sealed once building finishes) and
            verified on page-in; a resident page stays encoded and
            :meth:`gather` decodes only the rows it copies out. Residency
            and the byte budget count fp32-equivalent pages whatever the
            codec; the ledger's ``page_in_disk_bytes`` meters the encoded
            size next to the fp32-equivalent ``page_in_bytes``. The
            codecs are serving's alone: training pages are raw.
    """

    def __init__(
        self,
        geo: np.ndarray,
        shard_rows: list[np.ndarray],
        host_budget_bytes: int,
        page_dir: str | None = None,
        ledger: TransferLedger | None = None,
        codec: str = "raw",
    ):
        if geo.ndim != 2 or geo.shape[1] != layout.GEOMETRIC_DIM:
            raise ValueError(
                f"geo must be (N, {layout.GEOMETRIC_DIM}), got {geo.shape}"
            )
        self.geo = np.ascontiguousarray(geo)
        self.codec = check_codec(codec)
        self._map = ShardMap(shard_rows)
        if self._map.num_rows != geo.shape[0]:
            raise ValueError("shard rows must partition the model's rows")
        self.ledger = ledger if ledger is not None else TransferLedger()
        if page_dir is None:
            self._page_tmp = tempfile.TemporaryDirectory(prefix="gsscale-serve-")
            self.page_dir = self._page_tmp.name
        else:
            self._page_tmp = None
            self.page_dir = page_dir
            os.makedirs(page_dir, exist_ok=True)

        geo_bytes = layout.param_bytes(self.num_rows, layout.GEOMETRIC_DIM)
        worst = max(
            layout.param_bytes(int(r.size), layout.NON_GEOMETRIC_DIM)
            for r in self.shard_rows
        )
        resident = (host_budget_bytes - geo_bytes) // max(worst, 1)
        if resident < 1:
            raise ValueError(
                f"host budget {host_budget_bytes} cannot hold the resident "
                f"geometry ({geo_bytes} B) plus one shard page ({worst} B)"
            )
        self.host_memory = MemoryTracker(capacity_bytes=host_budget_bytes)
        self.host_memory.allocate("serve_geo", geo_bytes)
        self.resident_set = ResidentSet(min(int(resident), len(self.shard_rows)))
        #: shard index -> corruption detail for pages fenced off by a
        #: failed integrity check (surfaced in serving stats)
        self.quarantined: dict[int, str] = {}
        self.shards = [
            _ServeShard(self, k, int(r.size))
            for k, r in enumerate(self.shard_rows)
        ]

    def _quarantine(self, shard: _ServeShard, exc: CorruptPageError) -> None:
        """Fence off a corrupt shard page and re-raise as quarantined."""
        detail = str(exc)
        self.quarantined[shard.index] = detail
        raise PageQuarantinedError(
            f"serving shard {shard.index} quarantined: {detail}"
        ) from exc

    # -- construction ------------------------------------------------------
    def _fill(self, blocks) -> None:
        """Write ``(rows, columns, values)`` blocks of non-geometric
        columns (``rows=None``: every row) into the shards' build pages,
        then seal the pages; they are read-only afterwards."""
        base = layout.NON_GEOMETRIC_SLICE.start
        for rows, columns, values in blocks:
            ids = np.arange(self.num_rows) if rows is None else rows
            cols = slice(columns.start - base, columns.stop - base)
            for shard, (sel, local) in zip(self.shards, self._map.split(ids)):
                if sel.size:
                    shard.page.view()[local, cols] = values[sel]
        for shard in self.shards:
            shard.seal()

    @classmethod
    def from_model(
        cls,
        model,
        host_budget_bytes: int,
        num_shards: int = 4,
        page_dir: str | None = None,
        ledger: TransferLedger | None = None,
        codec: str = "raw",
    ) -> "PagedServingStore":
        """Shard an in-memory model into page files and serve it paged."""
        params = model.params
        shard_rows = spatial_partition(
            params[:, layout.MEAN_SLICE], num_shards
        )
        store = cls(
            params[:, layout.GEOMETRIC_SLICE],
            shard_rows,
            host_budget_bytes,
            page_dir=page_dir,
            ledger=ledger,
            codec=codec,
        )
        ng = layout.NON_GEOMETRIC_SLICE
        store._fill([(None, ng, params[:, ng])])
        return store

    @classmethod
    def from_checkpoint(
        cls,
        path: str,
        host_budget_bytes: int,
        num_shards: int = 4,
        page_dir: str | None = None,
        ledger: TransferLedger | None = None,
        codec: str = "raw",
    ) -> "PagedServingStore":
        """Open a trained checkpoint for paged serving.

        Streams the checkpoint block by block through
        :class:`~repro.core.checkpoint.CheckpointReader`: the packed
        ``(N, 59)`` matrix is never materialized — only the geometric
        columns (resident anyway) plus one checkpoint block at a time —
        so a spilled out-of-core checkpoint opens for serving within
        roughly the same host footprint it trained under.
        """
        with CheckpointReader(path) as reader:
            geo = reader.assemble_columns(layout.GEOMETRIC_SLICE)
            shard_rows = spatial_partition(
                geo[:, layout.MEAN_SLICE], num_shards
            )
            store = cls(
                geo, shard_rows, host_budget_bytes,
                page_dir=page_dir, ledger=ledger, codec=codec,
            )
            store._fill(reader.iter_column_blocks(layout.NON_GEOMETRIC_SLICE))
        return store

    # -- serving surface ---------------------------------------------------
    @property
    def shard_rows(self) -> list[np.ndarray]:
        """Each shard's global row ids (read-only: the owner map's)."""
        return self._map.rows

    @property
    def num_rows(self) -> int:
        return self.geo.shape[0]

    @property
    def dtype(self):
        return self.geo.dtype

    @property
    def resident_budget(self) -> int:
        """How many shard pages may be host-resident at once."""
        return self.resident_set.budget

    def geometry(self):
        return (
            self.geo[:, layout.MEAN_SLICE],
            self.geo[:, layout.SCALE_SLICE],
            self.geo[:, layout.QUAT_SLICE],
        )

    @property
    def max_gather_rows(self) -> int:
        """Rows the page budget holds: ``resident_budget`` pages of the
        largest shard. Callers batching several frames into one
        :meth:`gather` keep the union under it."""
        return self.resident_budget * max(r.size for r in self.shard_rows)

    @property
    def page_ins(self) -> int:
        return self.ledger.page_in_count

    def _page_loop(self, ids: np.ndarray, copy) -> None:
        """Page in every shard holding one of ``ids`` and call ``copy(
        shard, sel, local)`` while it is resident (``sel``: positions in
        ``ids``, ``local``: rows of the shard's page) — the one page loop
        behind :meth:`gather` and :meth:`gather_tick`."""
        self.rows_gathered += ids.size
        touched = [
            (shard, sel, local)
            for shard, (sel, local) in zip(self.shards, self._map.split(ids))
            if sel.size
        ]
        self.shards_touched += len(touched)
        # resident pages first (stable: shard order within each half), so
        # no admit below can spill a page this call has yet to read
        touched.sort(key=lambda member: not member[0].is_resident)
        for shard, sel, local in touched:
            # copy while resident: a later shard's admit may spill this one
            shard.page_in()
            copy(shard, sel, local)

    def gather(self, ids: np.ndarray) -> np.ndarray:
        out = np.empty((ids.size, layout.PARAM_DIM), dtype=self.dtype)
        out[:, layout.GEOMETRIC_SLICE] = self.geo[ids]

        def copy(shard, sel, local):
            out[sel, layout.NON_GEOMETRIC_SLICE] = shard.values[local]

        self._page_loop(ids, copy)
        return out

    def gather_tick(self, ids: np.ndarray) -> TickRows:
        """:meth:`gather`'s page loop, decoding the opacity of every row
        but keeping a float16 page's SH columns encoded — the halves and
        the shard each row came from — so that a frame decodes only the
        rows it shades, each exactly as :meth:`gather` decodes it. A raw
        page holds decoded values: there is nothing to defer."""
        if self.codec == "raw":
            return super().gather_tick(ids)
        head = np.empty((ids.size, layout.OPACITY_SLICE.stop), self.dtype)
        head[:, layout.GEOMETRIC_SLICE] = self.geo[ids]
        halves = np.empty((ids.size, layout.SH_DIM), np.float16)
        part = np.empty(ids.size, np.intp)
        scales = []

        def copy(shard, sel, local):
            page = shard.values
            head[sel, layout.OPACITY_SLICE] = page[local, _PAGE_OPACITY]
            halves[sel] = page.halves[local, _PAGE_SH]
            part[sel] = len(scales)
            scales.append(page.scales[_PAGE_SH])

        self._page_loop(ids, copy)
        scales = np.array(scales).reshape(-1, layout.SH_DIM)
        return TickRows(head, _TickSH(halves, self.dtype, scales, part))

    def close(self) -> None:
        for shard in self.shards:
            shard.spill()
        if self._page_tmp is not None:
            self._page_tmp.cleanup()
            self._page_tmp = None
