"""Exporter: measured Chrome traces.

The Chrome exporter emits the same trace-event schema as
:func:`repro.sim.trace.to_chrome_trace` — ``ph:"X"`` duration events
with microsecond ``ts``/``dur``, ``thread_name`` metadata, wrapped in
``{"traceEvents": [...], "displayTimeUnit": "ms"}`` — so a measured
trace opens in chrome://tracing or Perfetto exactly like a modeled one.
The simulator's lanes live on ``pid`` 1; measured lanes live on
``pid`` 2 (:data:`MEASURED_PID`) with ``process_name`` metadata, so
:func:`merge_traces` can put a modeled and a measured timeline of the
same config side by side in one viewer.

Thread lanes are assigned deterministically in order of first
appearance. Lane names come from ``Tracer.thread_names`` (where every
:class:`~repro.pool.Lane` task labels its thread ``gsscale-{name}``, e.g.
``gsscale-prefetch``), then a ``thread-N``
fallback; string tids (the synthetic ``pool-worker-K`` lanes) display as
themselves.
"""

from __future__ import annotations

import json
import threading

from .trace import Tracer

__all__ = [
    "MEASURED_PID",
    "merge_traces",
    "to_chrome_trace",
    "write_chrome_trace",
]

#: pid of measured lanes (the simulator's modeled lanes use pid 1).
MEASURED_PID = 2

#: Minimum exported duration in us, matching ``sim/trace.py`` so
#: zero-length spans stay visible in the viewer.
_MIN_DUR_US = 0.01


def _lane_names(tracer: Tracer, tids: list) -> dict:
    """Display name per tid: overrides, then fallback."""
    main = threading.main_thread().ident
    names = {}
    for i, tid in enumerate(tids):
        if tid in tracer.thread_names:
            names[tid] = tracer.thread_names[tid]
        elif isinstance(tid, str):
            names[tid] = tid
        elif tid == main:
            names[tid] = "main"
        else:
            names[tid] = f"thread-{i}"
    return names


def to_chrome_trace(tracer: Tracer, time_scale_us: float = 1e6,
                    pid: int = MEASURED_PID) -> dict:
    """Render a tracer's ring buffer as Chrome trace-event JSON."""
    events = tracer.events()
    tids = []
    for ev in events:
        if ev.tid not in tids:
            tids.append(ev.tid)
    names = _lane_names(tracer, tids)
    # main thread first, then host threads, then synthetic worker lanes,
    # each group in first-appearance order — stable lane numbers
    main = threading.main_thread().ident
    ordered = sorted(
        tids, key=lambda t: (t != main, isinstance(t, str), tids.index(t))
    )
    lane = {tid: i + 1 for i, tid in enumerate(ordered)}

    out = [{
        "name": "process_name",
        "ph": "M",
        "pid": pid,
        "args": {"name": "measured"},
    }]
    for tid in ordered:
        out.append({
            "name": "thread_name",
            "ph": "M",
            "pid": pid,
            "tid": lane[tid],
            "args": {"name": names[tid]},
        })
    for ev in events:
        entry = {
            "name": ev.name,
            "ph": "X",
            "pid": pid,
            "tid": lane[ev.tid],
            "ts": ev.start * time_scale_us,
            "dur": max(ev.dur * time_scale_us, _MIN_DUR_US),
            "cat": ev.cat,
        }
        if ev.attrs:
            entry["args"] = dict(ev.attrs)
        out.append(entry)
    return {"traceEvents": out, "displayTimeUnit": "ms"}


def merge_traces(*traces: dict) -> dict:
    """Concatenate trace documents (e.g. modeled pid 1 + measured pid 2)."""
    events = []
    for tr in traces:
        events.extend(tr.get("traceEvents", ()))
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(tracer: Tracer, path, modeled: dict | None = None,
                       time_scale_us: float = 1e6) -> dict:
    """Write a measured trace (optionally merged with a modeled one)."""
    doc = to_chrome_trace(tracer, time_scale_us=time_scale_us)
    if modeled is not None:
        doc = merge_traces(modeled, doc)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=1)
    return doc
