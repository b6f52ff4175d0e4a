"""The supervised process pool and its shared-memory transport.

:class:`PersistentPool` is the one lifecycle helper behind every
multi-process fan-out in the repo — the render farm and the patch
reconstruction jobs; no training path starts a process. Lazily started,
reused across calls (so respawn cost is paid once, not per map), supervised (a dead worker or a blown deadline
respawns the pool and re-runs the map), and torn down deterministically —
on ``close()``, on interpreter exit, and on every exception path.

Data reaches the workers through one shared-memory segment per map
(:func:`pack_shm` / :func:`attach_shm` / :func:`shm_views`): the parent
packs its arrays once, workers attach by name and build views, and
nothing but the task tuple and the per-task result crosses the pickle
channel.

:func:`map_blocks` is the in-process fan-out beside it, the one
multi-core mechanism of a single view: the tile-row blocks of the
``vectorized`` raster engine and the shards of the ``fragment`` engine
run on threads of the calling process (numpy releases the GIL in its
array passes), one per CPU the process may run on, and inline inside a
:class:`PersistentPool` worker, which is already one core of a fan-out.
"""

from __future__ import annotations

import atexit
import multiprocessing as mp
import os
import threading
import time
import weakref
from concurrent.futures import ThreadPoolExecutor, wait
from multiprocessing import shared_memory

import numpy as np

from . import faults
from .telemetry import trace as _trace
from .telemetry.metrics import aggregate_counts

__all__ = [
    "PersistentPool",
    "PoolFaultError",
    "attach_shm",
    "block_threads",
    "get_raster_pool",
    "map_blocks",
    "pack_shm",
    "pool_fork_guard",
    "raster_pool_fault_stats",
    "shm_views",
    "shutdown_raster_pools",
    "usable_cpus",
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

    The shared lifecycle helper of the render farm and
    ``train_patches``. Guarantees:

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
      that skip the owner's ``finalize()`` still leak nothing;
    * a worker is one core of the fan-out: :func:`map_blocks` runs inline
      in it and never starts block threads of its own.

    Args:
        processes: worker count. Workers start by ``fork`` (cheap, data
            arrives via shared memory anyway), or by the platform default
            where fork is unavailable.
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
            ctx = mp.get_context(self.default_start_method())
            with pool_fork_guard:
                self._pool = ctx.Pool(
                    processes=self.processes, initializer=_mark_pool_worker
                )
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


#: Raster pools by worker count: farms with the same ``workers`` share one
#: persistent pool across calls and hot swaps.
_RASTER_POOLS: dict[int, PersistentPool] = {}


def get_raster_pool(workers: int) -> PersistentPool:
    """The shared persistent pool for ``workers`` processes.

    One pool per worker count, shared by every consumer that fans
    generic picklable frames out — the serving subsystem's render farms —
    so their worker processes are pooled rather than duplicated. Torn
    down by
    :func:`shutdown_raster_pools` or at interpreter exit.
    """
    pool = _RASTER_POOLS.get(workers)
    if pool is None:
        pool = PersistentPool(workers)
        _RASTER_POOLS[workers] = pool
    return pool


def shutdown_raster_pools() -> None:
    """Tear down every persistent raster pool (idempotent).

    Raster pools are process-level caches shared by every farm and
    service, so closing one deliberately leaves them running (tearing
    them down there would make each hot swap pay a respawn); they are
    reaped at interpreter exit. Call this explicitly to release the
    worker processes earlier — the next pooled render restarts them.

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
# in-process block threads
# ---------------------------------------------------------------------------

#: Set by :class:`PersistentPool`'s worker initializer: a worker is one
#: core of a fan-out already, so :func:`map_blocks` runs inline there.
_IN_POOL_WORKER = False

#: ``((pid, threads), executor)`` of this process's block threads. Keyed
#: by pid: a forked child inherits the object but not its threads, and
#: builds its own on first use.
_BLOCK_POOL: tuple[tuple[int, int], ThreadPoolExecutor] | None = None


def _mark_pool_worker() -> None:
    global _IN_POOL_WORKER
    _IN_POOL_WORKER = True


def usable_cpus() -> int:
    """The CPUs this process may run on (its affinity mask, where the
    platform has one)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def block_threads() -> int:
    """Threads :func:`map_blocks` fans out to: one per usable CPU, and 1
    inside a :class:`PersistentPool` worker."""
    return 1 if _IN_POOL_WORKER else usable_cpus()


def _block_executor(threads: int) -> ThreadPoolExecutor:
    global _BLOCK_POOL
    key = (os.getpid(), threads)
    pool = _BLOCK_POOL
    if pool is None or pool[0] != key:
        # a replaced executor's threads exit once it is collected; two
        # first uses racing build one executor too many, which goes the
        # same way
        pool = _BLOCK_POOL = (key, ThreadPoolExecutor(
            threads, thread_name_prefix="repro-block"
        ))
    return pool[1]


def map_blocks(fn, tasks) -> list:
    """``[fn(task) for task in tasks]``, on this process's block threads.

    Results come back in task order. Every task has finished before this
    returns or raises, and a task's exception re-raises in the caller —
    the first one in task order — leaving the threads usable. Runs inline
    for a single task, on a single CPU, and inside a
    :class:`PersistentPool` worker. Any number of caller threads may map
    at once; the tasks must not map themselves (they would wait on the
    threads they occupy).
    """
    tasks = list(tasks)
    threads = block_threads()
    if threads <= 1 or len(tasks) <= 1:
        return [fn(task) for task in tasks]
    executor = _block_executor(threads)
    futures = [executor.submit(fn, task) for task in tasks]
    wait(futures)
    return [future.result() for future in futures]


# ---------------------------------------------------------------------------
# shared-memory transport
# ---------------------------------------------------------------------------

def pack_shm(arrays: dict[str, np.ndarray]):
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


def attach_shm(name: str) -> shared_memory.SharedMemory:
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


def shm_views(shm, metas) -> dict[str, np.ndarray]:
    """Array views over an attached segment, by the names of
    :func:`pack_shm`'s ``metas`` (drop them before ``shm.close()``)."""
    return {
        name: np.ndarray(shape, dtype=dt, buffer=shm.buf, offset=off)
        for name, dt, shape, off in metas
    }
