"""Multi-core tile-span rasterization (forward + backward).

PR 1's vectorized engine removed the interpreter from the raster hot path
but still runs on one core. This module adds the next multiplier: after
the flat intersection sort, the table is cut into contiguous **tile
spans** — load-balanced by pair counts (clipped-rect areas), not tile
counts, the BalanceGS observation — and the spans run on a **persistent**
``multiprocessing`` pool. A pixel's blend segment lives entirely inside
one tile, so spans composite disjoint pixels: the forward merge is a
scatter, and the backward merge is a fixed-order sum of per-span
``np.bincount`` partials.

Data reaches the workers through a shared-memory pair table
(:mod:`multiprocessing.shared_memory`): the parent packs the splat arrays
and the sorted intersection table into one segment, workers attach by
name and slice their span — nothing but the task tuple and the per-span
partial results crosses the pickle channel. The pool itself is managed by
:class:`PersistentPool`, the lifecycle helper shared with the sharded
system's culling fan-out: lazily started, reused across calls (so respawn
cost is paid once, not per render), and torn down deterministically — on
``close()``, on interpreter exit, and on every exception path.

Numerics match the vectorized engine to ~1e-12 (the only difference is
prefix-scan rounding at span boundaries) for every worker count, and
repeated runs with a fixed worker count are bit-identical: span
partitioning is a pure function of the inputs and the merge order is
fixed. ``tests/render/test_parallel_engine.py`` pins both.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import threading
import time
import weakref
from multiprocessing import shared_memory

import numpy as np

from .. import faults
from ..telemetry import trace as _trace
from ..telemetry.metrics import aggregate_counts
from ..telemetry.trace import span as _tspan
from .backward import RasterGrads, alloc_grads
from .engine import (
    TILE_SIZE,
    _check_config,
    _transmittance_scan,
    clip_isect_rects,
    pairs_for_isects,
    resolve_dtype,
    visible_intersections,
)
from .rasterize import RasterConfig, RasterResult, config_bboxes
from .tiles import adaptive_span_count, partition_spans

__all__ = [
    "PersistentPool",
    "PoolFaultError",
    "get_raster_pool",
    "raster_pool_fault_stats",
    "rasterize_parallel",
    "rasterize_backward_parallel",
    "shutdown_raster_pools",
]


# ---------------------------------------------------------------------------
# pool lifecycle
# ---------------------------------------------------------------------------

#: Every live pool, so one interpreter-exit hook can reap them all even
#: when an exception skipped the owner's teardown.
_LIVE_POOLS: "weakref.WeakSet[PersistentPool]" = weakref.WeakSet()

#: Serializes fork-based pool creation against background work that must
#: not be mid-flight at fork time. The async prefetch thread holds this
#: while it reads spill files, so a child process can never be forked
#: with that thread's locks/allocations half-done (hold it around any
#: similar background leg that coexists with PersistentPool use).
pool_fork_guard = threading.Lock()


@atexit.register
def _reap_pools() -> None:
    for pool in list(_LIVE_POOLS):
        pool.close()


class PoolFaultError(RuntimeError):
    """A pool map kept failing on worker death / deadline after all
    retries were spent (application exceptions re-raise as themselves)."""


class _WorkerDied(RuntimeError):
    """Internal: a worker process exited mid-map (supervision signal)."""


class _TaskDeadline(RuntimeError):
    """Internal: an in-flight map exceeded its per-call deadline."""


def _supervised_task(payload):
    """Pool task wrapper that carries a fault plan into the worker.

    Only installed when a :mod:`repro.faults` plan is armed in the
    parent — production maps ship bare ``(fn, task)`` pickles and never
    pay for this indirection. The plan is cleared afterward so a
    persistent worker never leaks one into later, unplanned maps.
    """
    fn, index, task, plan = payload
    faults.install_plan(plan)
    try:
        faults.fault_point("pool:task", index=index)
        return fn(task)
    finally:
        faults.clear_plan()


class PersistentPool:
    """A lazily-started, reusable, *supervised* multiprocessing pool.

    The shared lifecycle helper of the ``parallel`` raster engine, the
    fragment engine, the sharded system's ``shard_workers`` culling
    fan-out, the render farm, and ``train_patches``. Guarantees:

    * workers spawn on first :meth:`map`, not at construction, and are
      reused by every later call (no per-call respawn cost);
    * :meth:`close` is idempotent, exception-safe, and bounded — join
      runs under a hard timeout with a ``kill()`` fallback, so teardown
      after a worker death can never hang the caller;
    * a failed :meth:`map` tears the pool down before re-raising (wedged
      workers are never left behind for the next call to trip over);
    * **liveness supervision**: :meth:`map` dispatches asynchronously and
      polls, watching the worker processes it dispatched onto — a worker
      that exits mid-map (``stdlib`` ``Pool.map`` would deadlock: the
      dead worker's task is simply lost) or a map that exceeds its
      deadline tears the pool down, respawns it, and re-runs the whole
      map with exponential backoff. Every task kind routed through this
      pool is a pure function of its payload, so the retried map is
      bit-identical to what the fault-free run would have produced.
      Application exceptions are *not* retried — they re-raise
      immediately, exactly as before;
    * every live pool is reaped at interpreter exit, so exception paths
      that skip the owner's ``finalize()`` still leak nothing.

    Args:
        processes: worker count.
        start_method: multiprocessing start method; default prefers
            ``fork`` (cheap, data arrives via shared memory anyway) and
            falls back to the platform default where fork is unavailable.
        task_timeout: default per-:meth:`map` deadline in seconds
            (``None`` = no deadline).
        max_retries: default respawn-and-retry budget per :meth:`map`
            for worker-death / deadline faults.
        retry_backoff_s: initial backoff before a retry; doubles per
            attempt.

    Attributes:
        worker_deaths, respawns, retries, deadline_hits: cumulative
            supervision counters, surfaced by :meth:`fault_stats`.
    """

    #: How often the supervision loop samples result/liveness state.
    _poll_interval_s = 0.05

    def __init__(
        self,
        processes: int,
        start_method: str | None = None,
        task_timeout: float | None = None,
        max_retries: int = 2,
        retry_backoff_s: float = 0.05,
    ):
        if processes < 1:
            raise ValueError("processes must be >= 1")
        if max_retries < 0:
            raise ValueError("max_retries must be >= 0")
        self.processes = processes
        self.task_timeout = task_timeout
        self.max_retries = max_retries
        self.retry_backoff_s = retry_backoff_s
        self._method = (
            start_method
            if start_method is not None
            else self.default_start_method()
        )
        self._pool = None
        self.worker_deaths = 0
        self.respawns = 0
        self.retries = 0
        self.deadline_hits = 0
        _LIVE_POOLS.add(self)

    @staticmethod
    def default_start_method() -> str:
        """``fork`` where available, else the platform default."""
        if "fork" in mp.get_all_start_methods():
            return "fork"
        return mp.get_start_method(allow_none=False)

    @property
    def started(self) -> bool:
        """Whether worker processes are currently alive."""
        return self._pool is not None

    def _ensure(self):
        if self._pool is None:
            ctx = mp.get_context(self._method)
            with pool_fork_guard:
                self._pool = ctx.Pool(processes=self.processes)
        return self._pool

    def fault_stats(self) -> dict[str, int]:
        """Cumulative supervision counters for this pool."""
        return {
            "worker_deaths": self.worker_deaths,
            "respawns": self.respawns,
            "retries": self.retries,
            "deadline_hits": self.deadline_hits,
        }

    def _map_once(self, fn, tasks, timeout):
        """One supervised map attempt: dispatch async, poll, watch lives.

        Raises :class:`_WorkerDied` when a worker that this map was
        dispatched onto exits (its in-flight task is lost and the bare
        result would never complete), :class:`_TaskDeadline` past the
        per-call deadline. Application exceptions surface through
        ``result.get`` unchanged.
        """
        pool = self._ensure()
        procs = [p for p in pool._pool if p.exitcode is None]
        result = pool.map_async(fn, tasks)
        deadline = None if timeout is None else time.monotonic() + timeout
        while True:
            try:
                return result.get(timeout=self._poll_interval_s)
            except mp.TimeoutError:
                pass
            dead = [p for p in procs if p.exitcode is not None]
            if dead:
                self.worker_deaths += len(dead)
                raise _WorkerDied(
                    f"{len(dead)} pool worker(s) exited mid-map "
                    f"(exitcodes {[p.exitcode for p in dead]})"
                )
            if deadline is not None and time.monotonic() > deadline:
                self.deadline_hits += 1
                raise _TaskDeadline(f"map exceeded {timeout}s deadline")

    def map(self, fn, tasks, timeout=None, retries=None):
        """Supervised ``pool.map`` with respawn + bounded retry.

        Args:
            fn: top-level picklable function applied to each task.
            tasks: task payloads (pure inputs — retried maps re-run all
                of them, which is only sound because they are).
            timeout: per-call deadline override (default
                ``self.task_timeout``).
            retries: retry-budget override (default ``self.max_retries``).
        """
        timeout = self.task_timeout if timeout is None else timeout
        retries = self.max_retries if retries is None else retries
        # tracing wraps innermost (before any fault plan), so the span
        # capture rides inside the supervised wrapper and retried maps
        # re-ship their spans like any other result
        traced = _trace.enabled()
        if traced:
            tasks = [(fn, task) for task in tasks]
            fn = _trace.traced_task
        plan = faults.get_plan()
        if plan is not None:
            tasks = [
                (fn, i, task, plan) for i, task in enumerate(tasks)
            ]
            fn = _supervised_task
        else:
            tasks = list(tasks)
        backoff = self.retry_backoff_s
        attempt = 0
        tok = _trace.begin("pool/map", "pool")
        try:
            while True:
                try:
                    results = self._map_once(fn, tasks, timeout)
                    break
                except (_WorkerDied, _TaskDeadline) as exc:
                    self.close()
                    if attempt >= retries:
                        raise PoolFaultError(
                            f"map failed after {attempt + 1} attempt(s): {exc}"
                        ) from exc
                    attempt += 1
                    self.retries += 1
                    self.respawns += 1
                    time.sleep(backoff)
                    backoff *= 2
                except Exception:
                    self.close()
                    raise
        finally:
            _trace.end(tok)
        if traced:
            results = self._adopt_worker_spans(results, tok)
        return results

    def _adopt_worker_spans(self, results, tok):
        """Unwrap ``traced_task`` results, replaying shipped spans.

        Each task's spans land on a synthetic ``pool-worker-K`` lane
        (K = task index modulo pool size — a deterministic attribution;
        the OS scheduler's true assignment isn't observable from the
        results) anchored at the host-side map start.
        """
        tracer = _trace.get_tracer()
        anchor = tok[3] if tok is not None else None
        out = []
        for i, item in enumerate(results):
            result, spans = item
            if tracer is not None and anchor is not None:
                tracer.record_shipped(
                    spans, anchor, f"pool-worker-{i % self.processes}"
                )
            out.append(result)
        return out

    def close(self, join_timeout: float = 10.0) -> None:
        """Terminate and join the workers (idempotent, exception-safe).

        Join runs on a helper thread under ``join_timeout``; if the pool
        machinery wedges (e.g. after a SIGKILLed worker), the remaining
        workers are killed outright rather than hanging the caller.
        """
        pool, self._pool = self._pool, None
        if pool is None:
            return
        procs = list(getattr(pool, "_pool", None) or [])
        try:
            pool.terminate()
        except Exception:
            pass
        joiner = threading.Thread(target=pool.join, daemon=True)
        joiner.start()
        joiner.join(join_timeout)
        if joiner.is_alive():
            for proc in procs:
                try:
                    proc.kill()
                except Exception:
                    pass
            joiner.join(join_timeout)

    def __enter__(self) -> "PersistentPool":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass


#: Raster pools by worker count: renders with the same ``workers`` share
#: one persistent pool across calls, systems, and densification rebuilds.
_RASTER_POOLS: dict[int, PersistentPool] = {}


def get_raster_pool(workers: int) -> PersistentPool:
    """The shared persistent pool for ``workers`` processes.

    One pool per worker count, shared by every consumer that fans
    generic picklable tasks out — the tile-span raster engine and the
    serving subsystem's render farm — so their worker processes are
    pooled rather than duplicated. Torn down by
    :func:`shutdown_raster_pools` or at interpreter exit.
    """
    pool = _RASTER_POOLS.get(workers)
    if pool is None:
        pool = PersistentPool(workers)
        _RASTER_POOLS[workers] = pool
    return pool


def shutdown_raster_pools() -> None:
    """Tear down every persistent raster pool (idempotent).

    Raster pools are process-level caches shared by every system and
    render call, so ``finalize()`` deliberately leaves them running
    (tearing them down there would make each densification rebuild pay a
    respawn); they are reaped at interpreter exit. Call this explicitly
    to release the worker processes earlier — the next parallel render
    restarts them.

    Idempotent and exception-safe: the registry is cleared before any
    teardown runs (so a failure can't leave half-closed pools cached for
    reuse), every pool is attempted, and the first failure — if any —
    re-raises after the rest are down.
    """
    pools, errors = list(_RASTER_POOLS.values()), []
    _RASTER_POOLS.clear()
    for pool in pools:
        try:
            pool.close()
        except Exception as exc:  # noqa: BLE001 - collect, close the rest
            errors.append(exc)
    if errors:
        raise errors[0]


def raster_pool_fault_stats() -> dict[str, int]:
    """Aggregate supervision counters across the live raster pools.

    Serving reads this each tick to surface retry/respawn counts in its
    stats; counters of pools already shut down are not included.
    """
    return aggregate_counts(
        (pool.fault_stats() for pool in _RASTER_POOLS.values()),
        keys=("worker_deaths", "respawns", "retries", "deadline_hits"),
    )


# ---------------------------------------------------------------------------
# shared-memory pair tables
# ---------------------------------------------------------------------------

def _pack_shm(arrays: dict[str, np.ndarray]):
    """Copy ``arrays`` into one shared-memory segment.

    Returns ``(shm, metas)`` where ``metas`` is the picklable recipe
    (name, dtype, shape, byte offset) workers rebuild their views from.
    """
    items = [(k, np.ascontiguousarray(v)) for k, v in arrays.items()]
    metas, offset = [], 0
    for name, arr in items:
        metas.append((name, arr.dtype.str, arr.shape, offset))
        offset += arr.nbytes
    shm = shared_memory.SharedMemory(create=True, size=max(offset, 1))
    for (name, dt, shape, off), (_, arr) in zip(metas, items):
        np.ndarray(shape, dtype=dt, buffer=shm.buf, offset=off)[...] = arr
    return shm, metas


def _attach_shm(name: str) -> shared_memory.SharedMemory:
    """Attach to a segment without inheriting resource-tracker ownership
    (the parent unlinks; a tracking attach would double-free at exit)."""
    try:
        return shared_memory.SharedMemory(name=name, track=False)
    except TypeError:
        # Python < 3.13 has no track kwarg. On POSIX, pool workers —
        # fork and spawn alike — share the parent's resource tracker
        # process (its fd travels in the spawn preparation data), whose
        # name cache is a set: the attach-side re-register is a no-op
        # and the parent's unlink settles the one cache entry. Windows
        # has no resource tracker for shared memory at all.
        return shared_memory.SharedMemory(name=name)


def _shm_views(shm, metas) -> dict[str, np.ndarray]:
    return {
        name: np.ndarray(shape, dtype=dt, buffer=shm.buf, offset=off)
        for name, dt, shape, off in metas
    }


# ---------------------------------------------------------------------------
# per-span kernels (run in workers; also in-process for workers <= 1)
# ---------------------------------------------------------------------------

def _forward_span(arr, start, stop, width, height, tiles_x, config, tile_size):
    """Composite one tile span; returns ``(nz, trans, rgb)`` or ``None``.

    ``nz`` are the span's touched pixel ids — disjoint from every other
    span's, because spans cut only at tile boundaries.
    """
    faults.fault_point("span:forward")
    pairs = pairs_for_isects(
        arr["means2d"], arr["conics"], arr["opacities"], arr["bboxes"],
        arr["tile_ids"][start:stop], arr["sid"][start:stop], tiles_x,
        width, height, config, tile_size,
    )
    if pairs.alpha.size == 0:
        return None
    seg_log_t, t_before = _transmittance_scan(pairs)
    weight = np.multiply(t_before, pairs.alpha, out=t_before)
    # reduce onto segment ids, not global pixel ids: work stays O(span
    # pairs), never O(image) per span. Pair order within a segment is
    # unchanged, so the per-pixel sums are bit-identical to a global
    # bincount.
    seg_ids = np.repeat(
        np.arange(pairs.nz.size, dtype=np.int64), pairs.counts
    )
    rgb = np.empty((pairs.nz.size, 3), dtype=np.float64)
    for k in range(3):
        col = np.ascontiguousarray(arr["colors"][:, k])
        rgb[:, k] = np.bincount(
            seg_ids, weights=weight * col[pairs.sid],
            minlength=pairs.nz.size,
        )
    return pairs.nz, np.exp2(seg_log_t), rgb


def _backward_span(arr, start, stop, width, height, tiles_x, config, tile_size):
    """Gradient partials of one tile span.

    Mirrors the pair-level arithmetic of
    :func:`repro.render.engine.rasterize_backward_vectorized` exactly;
    only the reduction is local. Returns ``(uids, colors, opacities,
    conics, gmx, gmy)`` — partial sums over just the splats this span
    touches (``uids``), which the parent scatter-adds in span order — or
    ``None`` for an empty span. Keeping the partials sparse bounds the
    result shipped back through the pool by the span's splat count, not
    the scene's.
    """
    faults.fault_point("span:backward")
    means2d, conics, colors = arr["means2d"], arr["conics"], arr["colors"]
    pairs = pairs_for_isects(
        means2d, conics, arr["opacities"], arr["bboxes"],
        arr["tile_ids"][start:stop], arr["sid"][start:stop], tiles_x,
        width, height, config, tile_size,
    )
    if pairs.alpha.size == 0:
        return None
    pix, sid, alpha = pairs.pixel, pairs.sid, pairs.alpha
    starts, counts = pairs.starts, pairs.counts
    g_flat = arr["grad_image"]
    t_final = arr["t_final"]
    background = arr["background"]

    # reduce onto the span's own splat set: uids are sorted, so the
    # local-id mapping is monotonic and every per-splat sum sees its
    # pairs in the same order as a global bincount (bit-identical).
    # uids come from the intersection slice (orders of magnitude fewer
    # rows than pairs) and the pair-level mapping is one LUT gather.
    uids = np.unique(arr["sid"][start:stop])
    lut = np.zeros(means2d.shape[0], dtype=np.int64)
    lut[uids] = np.arange(uids.size)
    lid = lut[sid]
    m_local = uids.size

    _, t_before = _transmittance_scan(pairs)
    weight = t_before * alpha

    g_pair = [np.ascontiguousarray(g_flat[:, k])[pix] for k in range(3)]
    c_pair = [np.ascontiguousarray(colors[:, k])[sid] for k in range(3)]

    grad_colors = np.empty((m_local, 3), dtype=np.float64)
    for k in range(3):
        grad_colors[:, k] = np.bincount(
            lid, weights=g_pair[k] * weight, minlength=m_local
        )

    gdot_color = g_pair[0] * c_pair[0]
    gdot_color += g_pair[1] * c_pair[1]
    gdot_color += g_pair[2] * c_pair[2]
    gw = weight * gdot_color
    incl = np.cumsum(gw)
    ends = starts + counts - 1
    seg_gw = incl[ends] - incl[starts] + gw[starts]
    incl -= np.repeat(incl[starts] - gw[starts], counts)
    pref = (g_flat[pairs.nz] @ background) * t_final[pairs.nz]
    pref += seg_gw
    gdot_suffix = np.repeat(pref, counts)
    gdot_suffix -= incl

    one_minus = 1.0 - alpha
    grad_alpha = gdot_color * t_before
    grad_alpha -= gdot_suffix / one_minus
    np.copyto(grad_alpha, 0.0, where=alpha >= config.alpha_max)

    op_pair = arr["opacities"][sid]
    gval = alpha / op_pair
    grad_alpha *= gval
    grad_opac = np.bincount(lid, weights=grad_alpha, minlength=m_local)
    grad_power = np.multiply(grad_alpha, op_pair, out=grad_alpha)

    dx = (pix % width) + 0.5
    dx -= np.ascontiguousarray(means2d[:, 0])[sid]
    dy = (pix // width) + 0.5
    dy -= np.ascontiguousarray(means2d[:, 1])[sid]
    gpx = grad_power * dx
    gpy = grad_power * dy
    grad_conics = np.empty((m_local, 3), dtype=np.float64)
    grad_conics[:, 0] = -0.5 * np.bincount(
        lid, weights=gpx * dx, minlength=m_local
    )
    grad_conics[:, 1] = -np.bincount(lid, weights=gpx * dy, minlength=m_local)
    grad_conics[:, 2] = -0.5 * np.bincount(
        lid, weights=gpy * dy, minlength=m_local
    )
    c_a = np.ascontiguousarray(conics[:, 0])[sid]
    c_b = np.ascontiguousarray(conics[:, 1])[sid]
    c_c = np.ascontiguousarray(conics[:, 2])[sid]
    gmx_pair = c_a * gpx
    gmx_pair += c_b * gpy
    gmy_pair = c_b * gpx
    gmy_pair += c_c * gpy
    gmx = np.bincount(lid, weights=gmx_pair, minlength=m_local)
    gmy = np.bincount(lid, weights=gmy_pair, minlength=m_local)
    return uids, grad_colors, grad_opac, grad_conics, gmx, gmy


_SPAN_FNS = {"forward": _forward_span, "backward": _backward_span}


def _span_task(args):
    """Pool task: attach the shared pair table, run one span, detach."""
    (shm_name, metas, start, stop, mode, width, height, tiles_x, config,
     tile_size) = args
    shm = _attach_shm(shm_name)
    arr = None
    try:
        arr = _shm_views(shm, metas)
        with _tspan(f"pool/{mode}", "pool"):
            out = _SPAN_FNS[mode](
                arr, start, stop, width, height, tiles_x, config, tile_size
            )
    finally:
        del arr  # drop buffer views so close() cannot see exports
        shm.close()
    return out


# ---------------------------------------------------------------------------
# span planning / dispatch
# ---------------------------------------------------------------------------

def _plan_spans(tile_ids, sid, bboxes, tiles_x, tile_size, num_spans):
    """Pair-count-weighted contiguous spans of the intersection table."""
    rx0, rx1, ry0, ry1 = clip_isect_rects(
        bboxes, tile_ids, sid, tiles_x, tile_size
    )
    weights = (rx1 - rx0) * (ry1 - ry0)
    return partition_spans(tile_ids, weights, num_spans)


def _run_spans(mode, arrays, spans, width, height, tiles_x, config, tile_size):
    """Execute spans in-process (``workers <= 1``) or on the shared pool.

    Results come back in span order either way, so the merge — and the
    composited output — is identical for every worker count up to
    prefix-scan rounding, and bit-identical across repeated runs.
    """
    workers = config.workers
    if workers <= 1 or len(spans) <= 1:
        return [
            _SPAN_FNS[mode](
                arrays, s0, s1, width, height, tiles_x, config, tile_size
            )
            for s0, s1 in spans
        ]
    shm, metas = _pack_shm(arrays)
    try:
        tasks = [
            (shm.name, metas, s0, s1, mode, width, height, tiles_x, config,
             tile_size)
            for s0, s1 in spans
        ]
        return get_raster_pool(workers).map(_span_task, tasks)
    finally:
        shm.close()
        shm.unlink()


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def rasterize_parallel(
    means2d: np.ndarray,
    conics: np.ndarray,
    colors: np.ndarray,
    opacities: np.ndarray,
    depths: np.ndarray,
    radii: np.ndarray,
    width: int,
    height: int,
    background: np.ndarray | None = None,
    config: RasterConfig | None = None,
    tile_size: int = TILE_SIZE,
) -> RasterResult:
    """Multi-core tile-span compositor; same contract as
    :func:`repro.render.rasterize.rasterize`.

    ``config.workers`` selects the span/pool fan-out; ``0``/``1`` run the
    span pipeline serially in-process (useful for parity testing the span
    machinery without process overhead).
    """
    config = _check_config(config)
    order = np.argsort(depths, kind="stable")
    bboxes = config_bboxes(means2d, radii, width, height, config)
    means2d, conics, colors, opacities = resolve_dtype(
        config, means2d, conics, colors, opacities
    )
    dtype = means2d.dtype
    if background is None:
        background = np.zeros(3, dtype=dtype)
    background = np.asarray(background, dtype=dtype)

    # pruned on the host, before span planning: every worker count (and
    # the in-process path) composites the same table
    tile_ids, sid, tiles_x, _ = visible_intersections(
        means2d, conics, opacities, bboxes, order, width, height, config,
        tile_size,
    )
    n_pix = width * height
    image = np.zeros((n_pix, 3), dtype=dtype)
    trans = np.ones(n_pix, dtype=dtype)
    if tile_ids.size:
        spans = _plan_spans(
            tile_ids, sid, bboxes, tiles_x, tile_size,
            adaptive_span_count(
                config.workers, config.span_oversubscription
            ),
        )
        arrays = {
            "means2d": means2d, "conics": conics, "colors": colors,
            "opacities": opacities, "bboxes": bboxes,
            "tile_ids": tile_ids, "sid": sid,
        }
        for res in _run_spans(
            "forward", arrays, spans, width, height, tiles_x, config,
            tile_size,
        ):
            if res is None:
                continue
            nz, span_trans, rgb = res
            trans[nz] = span_trans
            image[nz] = rgb
    image += trans[:, None] * background
    return RasterResult(
        image=image.reshape(height, width, 3),
        final_transmittance=trans.reshape(height, width),
        order=order,
        bboxes=bboxes,
    )


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def rasterize_backward_parallel(
    means2d: np.ndarray,
    conics: np.ndarray,
    colors: np.ndarray,
    opacities: np.ndarray,
    result: RasterResult,
    grad_image: np.ndarray,
    background: np.ndarray | None = None,
    config: RasterConfig | None = None,
    tile_size: int = TILE_SIZE,
) -> RasterGrads:
    """Multi-core adjoint of :func:`rasterize_parallel`; same contract as
    :func:`repro.render.backward.rasterize_backward`."""
    config = _check_config(config)
    means2d, conics, colors, opacities = resolve_dtype(
        config, means2d, conics, colors, opacities
    )
    dtype = means2d.dtype
    height, width = grad_image.shape[:2]
    if background is None:
        background = np.zeros(3, dtype=dtype)
    background = np.asarray(background, dtype=dtype)

    m_count = means2d.shape[0]
    grads = alloc_grads(m_count, dtype)
    tile_ids, sid, tiles_x, _ = visible_intersections(
        means2d, conics, opacities, result.bboxes, result.order, width,
        height, config, tile_size,
    )
    if tile_ids.size == 0:
        return grads
    spans = _plan_spans(
        tile_ids, sid, result.bboxes, tiles_x, tile_size,
        adaptive_span_count(
            config.workers, config.span_oversubscription
        ),
    )
    arrays = {
        "means2d": means2d, "conics": conics, "colors": colors,
        "opacities": opacities, "bboxes": result.bboxes,
        "tile_ids": tile_ids, "sid": sid,
        "grad_image": np.ascontiguousarray(
            grad_image.reshape(-1, 3), dtype=dtype
        ),
        "t_final": np.ascontiguousarray(
            result.final_transmittance.reshape(-1), dtype=dtype
        ),
        "background": background,
    }
    acc_colors = np.zeros((m_count, 3), dtype=np.float64)
    acc_opac = np.zeros(m_count, dtype=np.float64)
    acc_conics = np.zeros((m_count, 3), dtype=np.float64)
    acc_gmx = np.zeros(m_count, dtype=np.float64)
    acc_gmy = np.zeros(m_count, dtype=np.float64)
    for res in _run_spans(
        "backward", arrays, spans, width, height, tiles_x, config, tile_size
    ):
        if res is None:
            continue
        uids, span_colors, span_opac, span_conics, span_gmx, span_gmy = res
        acc_colors[uids] += span_colors
        acc_opac[uids] += span_opac
        acc_conics[uids] += span_conics
        acc_gmx[uids] += span_gmx
        acc_gmy[uids] += span_gmy
    grads.colors[:] = acc_colors
    grads.opacities[:] = acc_opac
    grads.conics[:] = acc_conics
    grads.means2d[:, 0] = acc_gmx
    grads.means2d[:, 1] = acc_gmy
    grads.mean2d_abs[:] = np.hypot(acc_gmx, acc_gmy)
    return grads
