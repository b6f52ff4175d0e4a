"""Low-overhead measured span tracing (the real-time twin of ``sim/trace``).

:mod:`repro.sim.trace` exports *modeled* timelines; this module records
what the running system actually did. A process-wide :class:`Tracer`
holds a ring buffer of completed :class:`SpanEvent` records, stamped with
``time.perf_counter`` and the recording thread, so the training step's
phases, its page-outs, the prefetch lane's disk reads, and the serving
tick all land on their own timeline lanes.
:mod:`repro.telemetry.export` turns the buffer into the same Chrome
trace-event JSON the simulator writes, so a measured and a modeled run of
the same config open side by side in one chrome://tracing viewer.

Three recording surfaces:

* ``with span("train/forward"):`` — the context-manager API used at
  instrumentation sites. When no tracer is installed (or tracing is
  disabled) it returns a shared no-op object: no allocation, no lock, no
  clock read — the near-zero disabled mode the <2% overhead gate pins.
  ``with span(...) as sp: ...; sp.set(rows=n)`` attaches args that are
  only known after the work ran (a no-op on the disabled object).
* ``tok = begin("pool/map"); ...; end(tok)`` — the explicit API for
  sites where the span brackets non-lexical scopes (retry loops, early
  returns). ``begin`` returns ``None`` when disabled and ``end(None)``
  is a no-op, so call sites need no guards.
* :meth:`Tracer.record` / :meth:`Tracer.record_rel` — for code that
  already timed itself (the serving tick records one ``serve/request``
  span per response over the tick's own clock readings) and
  for remapping spans shipped back from pool worker processes.

Cross-process spans: :func:`traced_task` is a picklable pool-task wrapper
that runs the wrapped function under a fresh worker-local tracer and
ships the recorded spans back *with the task result* (times relative to
task start, attributes included). :meth:`Tracer.record_shipped` then replays them onto a
synthetic per-worker lane anchored at the host-side dispatch time — a
pure function of the shipped spans and the anchor, so the remap is
deterministic.
"""

from __future__ import annotations

import threading
from time import perf_counter
from typing import NamedTuple

__all__ = [
    "SpanEvent",
    "Tracer",
    "begin",
    "enabled",
    "end",
    "get_tracer",
    "install",
    "name_current_thread",
    "record_isects",
    "set_tracer",
    "span",
    "traced_task",
    "uninstall",
]

#: Default ring-buffer capacity (completed spans retained).
DEFAULT_CAPACITY = 65_536

#: Capacity of the throwaway per-task tracer inside pool workers.
WORKER_CAPACITY = 4_096


class SpanEvent(NamedTuple):
    """One completed span.

    ``start`` is seconds since the owning tracer's epoch; ``dur`` is the
    span length in seconds. ``tid`` is the recording thread's
    ``threading.get_ident()`` — or a caller-chosen string lane for spans
    replayed from another process (``"pool-worker-0"``).
    """

    name: str
    cat: str
    tid: int | str
    start: float
    dur: float
    attrs: dict | None


class _NullSpan:
    """Shared do-nothing context manager returned while tracing is off."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def set(self, **attrs):
        pass


_NULL_SPAN = _NullSpan()


class _Span:
    """Context manager recording one span into a live tracer."""

    __slots__ = ("_tracer", "_name", "_cat", "_attrs", "_t0")

    def __init__(self, tracer: "Tracer", name: str, cat: str, attrs: dict | None):
        self._tracer = tracer
        self._name = name
        self._cat = cat
        self._attrs = attrs

    def __enter__(self):
        self._t0 = perf_counter()
        return self

    def set(self, **attrs):
        """Attach args known only once the spanned work has run."""
        self._attrs = {**(self._attrs or {}), **attrs}

    def __exit__(self, *exc):
        self._tracer.record(
            self._name, self._t0, perf_counter(), cat=self._cat,
            attrs=self._attrs,
        )
        return False


class Tracer:
    """Ring-buffer span recorder on a monotonic clock.

    Thread-safe: spans record under a short lock from any thread (the
    training loop, the pager's prefetch lane). The
    ring holds the most recent ``capacity`` spans; older ones are
    overwritten and counted in :attr:`dropped` rather than growing
    memory unboundedly on long runs.
    """

    def __init__(self, capacity: int = DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("tracer capacity must be >= 1")
        self.capacity = capacity
        self.enabled = True
        #: perf_counter value all span starts are relative to
        self.epoch = perf_counter()
        self.dropped = 0
        self._events: list[SpanEvent] = []
        self._head = 0  # index of the oldest event once the ring wraps
        self._lock = threading.Lock()
        #: explicit lane names (tid -> display name); export falls back
        #: to live ``threading.enumerate()`` names for unnamed idents
        self.thread_names: dict[int | str, str] = {}

    # -- recording ---------------------------------------------------------
    def record(
        self,
        name: str,
        t_start: float,
        t_end: float,
        cat: str = "app",
        tid: int | str | None = None,
        attrs: dict | None = None,
    ) -> None:
        """Record a completed span given absolute ``perf_counter`` times."""
        self.record_rel(
            name, t_start - self.epoch, t_end - t_start,
            cat=cat, tid=tid, attrs=attrs,
        )

    def record_rel(
        self,
        name: str,
        start_s: float,
        dur_s: float,
        cat: str = "app",
        tid: int | str | None = None,
        attrs: dict | None = None,
    ) -> None:
        """Record a span whose start is relative to the tracer epoch."""
        if tid is None:
            tid = threading.get_ident()
        ev = SpanEvent(name, cat, tid, start_s, dur_s, attrs)
        with self._lock:
            if len(self._events) < self.capacity:
                self._events.append(ev)
            else:
                self._events[self._head] = ev
                self._head = (self._head + 1) % self.capacity
                self.dropped += 1

    def record_shipped(
        self,
        shipped: list[tuple],
        anchor: float,
        lane: str,
    ) -> None:
        """Replay spans shipped back from a worker process.

        ``shipped`` is the ``(name, cat, start, dur, attrs)`` list produced
        by :func:`traced_task` (times relative to task start); ``anchor`` is
        the absolute host-side ``perf_counter`` the spans are re-based
        onto (the map dispatch time); ``lane`` is the synthetic thread
        lane they land on. Deterministic: same inputs, same events.
        """
        base = anchor - self.epoch
        for name, cat, start, dur, attrs in shipped:
            self.record_rel(
                name, base + start, dur, cat=cat, tid=lane, attrs=attrs
            )

    # -- explicit begin/end ------------------------------------------------
    def begin(self, name: str, cat: str = "app", attrs: dict | None = None):
        """Open a span; pass the returned token to :meth:`end`."""
        return (name, cat, attrs, perf_counter(), threading.get_ident())

    def end(self, token) -> None:
        """Close a span opened by :meth:`begin`."""
        name, cat, attrs, t0, tid = token
        self.record(name, t0, perf_counter(), cat=cat, tid=tid, attrs=attrs)

    # -- inspection --------------------------------------------------------
    def events(self) -> list[SpanEvent]:
        """Recorded spans, oldest first (a copy; safe to iterate)."""
        with self._lock:
            return self._events[self._head:] + self._events[: self._head]

    def clear(self) -> None:
        """Drop every recorded span (capacity and epoch unchanged)."""
        with self._lock:
            self._events = []
            self._head = 0
            self.dropped = 0

    def name_thread(self, name: str, tid: int | str | None = None) -> None:
        """Give a timeline lane a display name (default: this thread)."""
        if tid is None:
            tid = threading.get_ident()
        self.thread_names[tid] = name


# ---------------------------------------------------------------------------
# process-wide tracer
# ---------------------------------------------------------------------------

_tracer: Tracer | None = None


def get_tracer() -> Tracer | None:
    """The installed process-wide tracer (``None`` = tracing off)."""
    return _tracer


def set_tracer(tracer: Tracer | None) -> Tracer | None:
    """Install ``tracer`` as the process-wide tracer; returns the old one."""
    global _tracer
    old, _tracer = _tracer, tracer
    return old


def install(capacity: int = DEFAULT_CAPACITY) -> Tracer:
    """Install (or return the already-installed) process-wide tracer.

    The one tracing switch: training systems, serving and pool workers'
    shipped spans all record into this tracer until :func:`uninstall`.
    Idempotent, so every caller shares one buffer and one epoch.
    """
    global _tracer
    if _tracer is None:
        _tracer = Tracer(capacity)
    return _tracer


def uninstall() -> Tracer | None:
    """Remove the process-wide tracer; returns it (with its events)."""
    return set_tracer(None)


def enabled() -> bool:
    """Whether spans are currently being recorded."""
    t = _tracer
    return t is not None and t.enabled


def name_current_thread(name: str) -> None:
    """Register this thread's lane name on the installed tracer (no-op
    when tracing is off). Every :class:`~repro.pool.Lane` task calls it,
    so a lane stays labelled even after its thread exits."""
    t = _tracer
    if t is not None:
        t.name_thread(name)


def record_isects(span, raster) -> None:
    """Put a forward pass's table counts on its span.

    ``raster`` is the :class:`~repro.render.rasterize.RasterResult` the
    span's render produced. The ``vectorized`` engine counts what its
    forward built (``raster.counts``), and the span gains all five:
    ``isects`` — rows of the tile-intersection table the
    pairs were built from — ``pruned_isects`` — rows the occlusion prune
    dropped before that — ``splats`` — the distinct splats of the pruned
    table — ``cells`` — (splat, pixel) rows expanded — and
    ``pairs`` — those kept. The ``reference`` loop builds no table and
    records nothing. Call sites guard on :func:`enabled`, so nothing
    runs untraced.
    """
    counts = raster.counts
    if counts is not None:
        span.set(**counts._asdict())


def span(name: str, cat: str = "app", **attrs):
    """Context manager recording ``name`` as a span (no-op when off).

    The disabled path returns a shared singleton: the per-call cost is
    one global read and one truthiness check, with no allocation beyond
    the (empty) ``attrs`` dict the call itself builds.
    """
    t = _tracer
    if t is None or not t.enabled:
        return _NULL_SPAN
    return _Span(t, name, cat, attrs or None)


def begin(name: str, cat: str = "app"):
    """Open a span on the process tracer; ``None`` token when off."""
    t = _tracer
    if t is None or not t.enabled:
        return None
    return t.begin(name, cat)


def end(token) -> None:
    """Close a :func:`begin` span (no-op for a ``None`` token)."""
    if token is None:
        return
    t = _tracer
    if t is not None:
        t.end(token)


# ---------------------------------------------------------------------------
# in-worker capture (pool tasks ship their spans home with the result)
# ---------------------------------------------------------------------------

def traced_task(payload):
    """Picklable pool-task wrapper: run under a worker-local tracer.

    ``payload`` is ``(fn, arg)``. The wrapped call runs with a fresh
    tracer installed as the worker's process-wide tracer, so any
    :func:`span` the task function (or code it calls) opens records
    locally; the whole task gets an enclosing ``pool/<fn name>`` span.
    Returns ``(result, spans)`` where ``spans`` is a picklable
    ``(name, cat, start, dur, attrs)`` list with times relative to task
    start — :meth:`Tracer.record_shipped` replays them host-side.
    """
    fn, arg = payload
    local = Tracer(capacity=WORKER_CAPACITY)
    prev = set_tracer(local)
    tok = local.begin(f"pool/{fn.__name__.lstrip('_')}", "pool")
    try:
        result = fn(arg)
    finally:
        local.end(tok)
        set_tracer(prev)
    shipped = [
        (e.name, e.cat, e.start, e.dur, e.attrs) for e in local.events()
    ]
    return result, shipped
