"""Measured telemetry: span tracing, metrics registry, live exporters.

The simulator (:mod:`repro.sim`) *models* the GS-Scale timeline; this
package *measures* it. Four pieces:

* :mod:`~repro.telemetry.trace` — a low-overhead ring-buffer span
  tracer; ``span("train/forward")`` context manager, explicit
  begin/end, worker-process span shipping, near-zero when disabled.
* :mod:`~repro.telemetry.metrics` — unified counters / gauges /
  p50-p95-p99 histograms plus adapters mirroring the legacy
  pool-fault / ``ServeStats`` counters into one registry.
* :mod:`~repro.telemetry.export` — Chrome trace-event JSON in the same
  schema as ``sim/trace.py`` (measured pid 2 next to modeled pid 1),
  Prometheus text exposition.
* :mod:`~repro.telemetry.compare` — measured-vs-modeled per-phase
  deltas against ``sim/timeline.py`` breakdowns (CLI:
  ``tools/compare_trace.py``).

Enable with ``GSScaleConfig(telemetry=True)`` /
``ServeConfig(telemetry=True)`` or an explicit ``trace.install()``.
"""

from . import compare, export, metrics, trace
from .compare import compare_breakdowns, measured_breakdown, modeled_breakdown
from .export import (
    MEASURED_PID,
    merge_traces,
    to_chrome_trace,
    to_prometheus,
    write_chrome_trace,
    write_prometheus,
)
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    aggregate_counts,
    get_registry,
    reset_registry,
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
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "SpanEvent",
    "Tracer",
    "aggregate_counts",
    "begin",
    "compare",
    "compare_breakdowns",
    "enabled",
    "end",
    "export",
    "get_registry",
    "get_tracer",
    "install",
    "measured_breakdown",
    "merge_traces",
    "metrics",
    "modeled_breakdown",
    "reset_registry",
    "span",
    "to_chrome_trace",
    "to_prometheus",
    "trace",
    "uninstall",
    "write_chrome_trace",
    "write_prometheus",
]
