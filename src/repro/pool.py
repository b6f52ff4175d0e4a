"""The supervised process pool, the block threads and the background lane.

:class:`PersistentPool` is the one multi-process fan-out in the repo,
behind the patch reconstruction jobs; no training or serving path starts
a process. Lazily started, reused across calls (so respawn cost is paid
once, not per map), supervised (a dead worker or a blown deadline
respawns the pool and re-runs the map), and torn down deterministically —
on ``close()``, on interpreter exit, and on every exception path.

:func:`map_blocks` is the in-process fan-out beside it, the one
multi-core mechanism of training and serving: the tile-row blocks of the
``vectorized`` raster engine's forward run on threads of the calling
process (numpy releases the GIL in its
array passes), one per CPU the process may run on, and inline inside a
:class:`PersistentPool` worker, which is already one core of a fan-out.

:class:`Lane` is the one background-work primitive: a long-lived thread
running its tasks in order — the pager's prefetch lane.
"""

from __future__ import annotations

import atexit
import itertools
import multiprocessing as mp
import os
import threading
import time
import weakref
from concurrent.futures import Future, ThreadPoolExecutor, wait

from . import faults
from .telemetry import trace as _trace

__all__ = [
    "Lane",
    "PersistentPool",
    "PoolFaultError",
    "block_threads",
    "map_blocks",
    "pool_fork_guard",
    "usable_cpus",
]


# ---------------------------------------------------------------------------
# pool lifecycle
# ---------------------------------------------------------------------------

#: Every live pool, so one interpreter-exit hook can reap them all even
#: when an exception skipped the owner's teardown.
_LIVE_POOLS: "weakref.WeakSet[PersistentPool]" = weakref.WeakSet()

#: Serializes fork-based pool creation against background work that must
#: not be mid-flight at fork time: every :class:`Lane` task holds it, so
#: a child process can never be forked with a lane's locks or
#: allocations half-done.
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

    The lifecycle helper of ``train_patches``. Guarantees:

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
        processes: worker count. Workers start by ``fork`` (cheap), or
            by the platform default where fork is unavailable.
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
# background lanes
# ---------------------------------------------------------------------------

class Lane:
    """One long-lived background thread running submitted tasks in order.

    :meth:`submit` returns a plain :class:`~concurrent.futures.Future` as
    the ticket; a task's error stays on its ticket (``result()`` re-raises
    it) and the lane runs the next task. Around every task the lane
    labels its thread ``gsscale-{name}`` on the tracer, visits the fault
    point ``lane:{name}`` (``index`` = the task's ordinal on this lane)
    and holds :data:`pool_fork_guard`, so a lane task may not start a
    :class:`PersistentPool` (it would wait on the guard it holds).
    """

    def __init__(self, name: str):
        self.name = name
        self._executor = ThreadPoolExecutor(1, thread_name_prefix=f"gsscale-{name}")
        self._seq = itertools.count()
        self._last: Future | None = None

    def submit(self, fn, *args) -> Future:
        """Queue ``fn(*args)`` behind every task submitted before it."""
        self._last = self._executor.submit(self._run, next(self._seq), fn, args)
        return self._last

    def drain(self) -> None:
        """Wait for every outstanding ticket (failed ones included)."""
        if self._last is not None:
            wait([self._last])  # one thread, FIFO: the last ticket ends last

    def _run(self, seq: int, fn, args):
        _trace.name_current_thread(f"gsscale-{self.name}")
        faults.fault_point(f"lane:{self.name}", index=seq)
        with pool_fork_guard:
            return fn(*args)
