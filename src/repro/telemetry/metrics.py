"""Unified metrics registry: counters, gauges, percentile histograms.

The repo grew several hand-rolled stats surfaces — ``TransferLedger``
byte counters, ``MemoryTracker`` peaks, ``PersistentPool`` fault
counters, ``ServeStats`` — each with its own ad-hoc aggregation loop.
This module gives them one home: a :class:`MetricsRegistry` of named
:class:`Counter` / :class:`Gauge` / :class:`Histogram` instruments with
optional labels, plus *adapters* (:func:`mirror_pool_faults`,
:func:`mirror_serve_stats`) that copy the legacy counters into the
registry at snapshot time instead of duplicating their bookkeeping.
The legacy objects stay the source of truth; the registry is the export
surface (:mod:`repro.telemetry.export` renders it to Prometheus text or
JSON).

:func:`aggregate_counts` is the summation helper behind
``repro.pool.raster_pool_fault_stats``.
"""

from __future__ import annotations

import math
import threading

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "aggregate_counts",
    "get_registry",
    "mirror_pool_faults",
    "mirror_serve_stats",
    "record_isects",
    "reset_registry",
]

#: Histograms keep at most this many raw observations for percentiles;
#: later observations still update count/sum but are not sampled.
DEFAULT_HISTOGRAM_SAMPLES = 65_536


def aggregate_counts(mappings, keys=None) -> dict:
    """Sum per-key counts across an iterable of mappings.

    With ``keys`` the result has exactly those keys (missing entries
    count as 0 and unknown keys in the inputs are ignored); without, the
    result is the union of all input keys.
    """
    if keys is not None:
        totals = dict.fromkeys(keys, 0)
        for m in mappings:
            for k in keys:
                v = m.get(k)
                if v:
                    totals[k] += v
        return totals
    totals = {}
    for m in mappings:
        for k, v in m.items():
            totals[k] = totals.get(k, 0) + v
    return totals


class Counter:
    """Monotonically increasing count."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value = 0

    def inc(self, amount=1) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge")
        self.value += amount


class Gauge:
    """A value that can go up or down (peaks, resident bytes, ratios)."""

    __slots__ = ("name", "labels", "value")

    def __init__(self, name: str, labels: dict | None = None):
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.value = 0.0

    def set(self, value) -> None:
        self.value = value

    def set_max(self, value) -> None:
        """Keep the largest value seen (a high-water mark)."""
        if value > self.value:
            self.value = value

    def inc(self, amount=1) -> None:
        self.value += amount

    def dec(self, amount=1) -> None:
        self.value -= amount


class Histogram:
    """Streaming histogram with exact small-sample percentiles.

    Keeps every observation up to ``max_samples`` (65k by default — far
    above any bench or serve run here), so :meth:`percentile` matches
    ``numpy.quantile(..., method="linear")`` exactly on the retained
    sample; beyond the cap, count/sum/min/max stay exact and the
    percentile is computed over the first ``max_samples`` observations.
    """

    __slots__ = ("name", "labels", "count", "sum", "min", "max",
                 "max_samples", "_samples")

    def __init__(self, name: str, labels: dict | None = None,
                 max_samples: int = DEFAULT_HISTOGRAM_SAMPLES):
        if max_samples < 1:
            raise ValueError("max_samples must be >= 1")
        self.name = name
        self.labels = dict(labels) if labels else {}
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = -math.inf
        self.max_samples = max_samples
        self._samples: list[float] = []

    def observe(self, value) -> None:
        value = float(value)
        self.count += 1
        self.sum += value
        if value < self.min:
            self.min = value
        if value > self.max:
            self.max = value
        if len(self._samples) < self.max_samples:
            self._samples.append(value)

    def percentile(self, q: float) -> float:
        """Linear-interpolated percentile, ``q`` in [0, 100]."""
        if not 0.0 <= q <= 100.0:
            raise ValueError("q must be in [0, 100]")
        if not self._samples:
            return float("nan")
        xs = sorted(self._samples)
        pos = (len(xs) - 1) * q / 100.0
        lo = int(pos)
        hi = min(lo + 1, len(xs) - 1)
        frac = pos - lo
        return xs[lo] * (1.0 - frac) + xs[hi] * frac

    @property
    def mean(self) -> float:
        return self.sum / self.count if self.count else float("nan")

    def summary(self) -> dict:
        """count/sum/min/max plus the p50/p95/p99 serving percentiles."""
        if not self.count:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.sum,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


def _key(name: str, labels: dict | None):
    if not labels:
        return name
    return (name, tuple(sorted(labels.items())))


class MetricsRegistry:
    """Named instruments, get-or-create by (name, labels).

    ``counter("pool/retries")`` returns the same object on every call,
    so call sites don't hold references; labels distinguish series
    (``histogram("page_in_seconds", store="disk")``). Thread-safe
    creation; instrument updates are plain attribute bumps (the GIL
    makes the int/float increments used here safe in practice).
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._counters: dict = {}
        self._gauges: dict = {}
        self._histograms: dict = {}

    def _get(self, table: dict, cls, name: str, labels: dict | None, **kw):
        key = _key(name, labels)
        inst = table.get(key)
        if inst is None:
            with self._lock:
                inst = table.get(key)
                if inst is None:
                    inst = cls(name, labels, **kw)
                    table[key] = inst
        return inst

    def counter(self, name: str, **labels) -> Counter:
        return self._get(self._counters, Counter, name, labels)

    def gauge(self, name: str, **labels) -> Gauge:
        return self._get(self._gauges, Gauge, name, labels)

    def histogram(self, name: str, max_samples: int = DEFAULT_HISTOGRAM_SAMPLES,
                  **labels) -> Histogram:
        return self._get(self._histograms, Histogram, name, labels,
                         max_samples=max_samples)

    def counters(self) -> list[Counter]:
        return list(self._counters.values())

    def gauges(self) -> list[Gauge]:
        return list(self._gauges.values())

    def histograms(self) -> list[Histogram]:
        return list(self._histograms.values())

    def snapshot(self) -> dict:
        """Plain-dict view of every instrument (JSON-ready)."""

        def series(instruments, value):
            out = []
            for m in instruments:
                entry = {"name": m.name}
                if m.labels:
                    entry["labels"] = dict(m.labels)
                entry.update(value(m))
                out.append(entry)
            return out

        return {
            "counters": series(self.counters(), lambda m: {"value": m.value}),
            "gauges": series(self.gauges(), lambda m: {"value": m.value}),
            "histograms": series(self.histograms(), lambda m: m.summary()),
        }

    def clear(self) -> None:
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()


_registry = MetricsRegistry()


def get_registry() -> MetricsRegistry:
    """The process-wide registry every adapter and exporter shares."""
    return _registry


def reset_registry() -> MetricsRegistry:
    """Drop all instruments (tests; between independent runs)."""
    _registry.clear()
    return _registry


def record_isects(span, raster) -> None:
    """Put a forward pass's table counts on its span and registry.

    ``raster`` is the :class:`~repro.render.rasterize.RasterResult` the
    span's render produced. The ``vectorized`` engine counts what its
    forward built (``raster.counts``), and the span gains all five:
    ``isects`` — rows of the tile-intersection table the
    pairs were built from — ``pruned_isects`` — rows the occlusion prune
    dropped before that — ``splats`` — the distinct splats of the pruned
    table — ``cells`` — (splat, pixel) rows expanded — and
    ``pairs`` — those kept; the ``render/isects_pruned`` counter
    accumulates the prune's. The ``reference`` loop builds no table and
    records nothing. Call sites guard on ``trace.enabled()``, so nothing
    runs untraced.
    """
    counts = raster.counts
    if counts is None:
        return
    span.set(**counts._asdict())
    _registry.counter("render/isects_pruned").inc(counts.pruned_isects)


# ---------------------------------------------------------------------------
# adapters: mirror the legacy counter objects into the registry
# ---------------------------------------------------------------------------

def mirror_pool_faults(registry: MetricsRegistry, stats: dict,
                       prefix: str = "pool", **labels) -> dict:
    """Mirror a pool fault-stat dict into gauges; returns it unchanged."""
    for key, value in stats.items():
        registry.gauge(f"{prefix}/{key}", **labels).set(value)
    return stats


def mirror_serve_stats(registry: MetricsRegistry, stats,
                       prefix: str = "serve", **labels) -> dict:
    """Mirror a ``ServeStats`` object into gauges; returns its dict."""
    values = stats.as_dict()
    for key, value in values.items():
        registry.gauge(f"{prefix}/{key}", **labels).set(value)
    return values
