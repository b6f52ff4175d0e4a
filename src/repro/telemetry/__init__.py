"""Measured telemetry: span tracing, trace export, measured-vs-modeled.

The simulator (:mod:`repro.sim`) *models* the GS-Scale timeline; this
package *measures* it. Three pieces:

* :mod:`~repro.telemetry.trace` — a low-overhead ring-buffer span
  tracer; ``span("train/forward")`` context manager, explicit
  begin/end, worker-process span shipping (attributes included),
  near-zero when disabled. Counts ride on the spans as attributes
  (``serve/request`` carries ``latency_s``, ``train/forward`` and
  ``serve/frame`` their table counts); ``TransferLedger``,
  ``MemoryTracker``, ``ServeStats``, the serving store's counters and
  the pool fault counters stay the sources of truth for running totals.
* :mod:`~repro.telemetry.export` — Chrome trace-event JSON in the same
  schema as ``sim/trace.py`` (measured pid 2 next to modeled pid 1).
* :mod:`~repro.telemetry.compare` — measured-vs-modeled per-phase
  deltas against ``sim/timeline.py`` breakdowns (CLI:
  ``tools/compare_trace.py``).

:func:`~repro.telemetry.trace.install` is the one switch: every span
site records into the installed tracer, and nothing does once
:func:`~repro.telemetry.trace.uninstall` removes it.
"""

from . import compare, export, trace
from .compare import compare_breakdowns, measured_breakdown, modeled_breakdown
from .export import (
    MEASURED_PID,
    merge_traces,
    to_chrome_trace,
    write_chrome_trace,
)
from .trace import (
    SpanEvent,
    Tracer,
    begin,
    enabled,
    end,
    get_tracer,
    install,
    span,
    uninstall,
)

__all__ = [
    "MEASURED_PID",
    "SpanEvent",
    "Tracer",
    "begin",
    "compare",
    "compare_breakdowns",
    "enabled",
    "end",
    "export",
    "get_tracer",
    "install",
    "measured_breakdown",
    "merge_traces",
    "modeled_breakdown",
    "span",
    "to_chrome_trace",
    "trace",
    "uninstall",
    "write_chrome_trace",
]
