"""Metrics registry tests: percentiles vs numpy, adapters vs legacy counters."""

import numpy as np
import pytest

from repro.core.systems import TransferLedger
from repro.telemetry import metrics
from repro.telemetry.metrics import (
    Histogram,
    MetricsRegistry,
    aggregate_counts,
    mirror_pool_faults,
    mirror_serve_stats,
)


class TestCounterGauge:
    def test_counter_accumulates(self):
        reg = MetricsRegistry()
        c = reg.counter("page_ins", store="disk")
        c.inc()
        c.inc(3)
        assert c.value == 4

    def test_counter_rejects_negative(self):
        reg = MetricsRegistry()
        with pytest.raises(ValueError):
            reg.counter("n").inc(-1)

    def test_gauge_set_inc_dec(self):
        g = MetricsRegistry().gauge("live_bytes")
        g.set(100)
        g.inc(50)
        g.dec(25)
        assert g.value == 125
        g.set_max(100)  # a high-water mark only ever rises
        assert g.value == 125
        g.set_max(200)
        assert g.value == 200

    def test_same_name_labels_returns_same_instrument(self):
        reg = MetricsRegistry()
        assert reg.counter("n", a="1", b="2") is reg.counter("n", b="2", a="1")
        assert reg.counter("n", a="1") is not reg.counter("n", a="2")


class TestHistogramPercentiles:
    @pytest.mark.parametrize("q", [0, 25, 50, 95, 99, 100])
    def test_matches_numpy_linear_quantile(self, q):
        rng = np.random.default_rng(11)
        samples = rng.uniform(0.001, 0.5, size=1000)
        hist = Histogram("latency_s")
        for s in samples:
            hist.observe(float(s))
        expected = float(np.quantile(samples, q / 100, method="linear"))
        assert hist.percentile(q) == pytest.approx(expected, abs=1e-12)

    def test_summary_fields(self):
        hist = Histogram("latency_s")
        for v in (1.0, 2.0, 3.0, 4.0):
            hist.observe(v)
        s = hist.summary()
        assert s["count"] == 4
        assert s["sum"] == 10.0
        assert s["min"] == 1.0
        assert s["max"] == 4.0
        assert s["mean"] == 2.5
        assert s["p50"] == 2.5

    def test_sample_cap_keeps_count_and_sum_exact(self):
        hist = Histogram("latency_s", max_samples=8)
        for v in range(100):
            hist.observe(float(v))
        assert hist.count == 100
        assert hist.sum == float(sum(range(100)))


class TestAggregateCounts:
    def test_sums_across_mappings(self):
        out = aggregate_counts([{"a": 1, "b": 2}, {"a": 3, "c": 5}])
        assert out == {"a": 4, "b": 2, "c": 5}

    def test_explicit_keys_zero_fill(self):
        out = aggregate_counts([{"a": 1}], keys=("a", "b"))
        assert out == {"a": 1, "b": 0}

    def test_empty_input(self):
        assert aggregate_counts([], keys=("a",)) == {"a": 0}


class TestLegacyAdapters:
    """Registry mirrors must equal the legacy counters bit for bit."""

    def test_ledger_counts_matches_dataclass_fields(self):
        ledger = TransferLedger()
        ledger.h2d_bytes = 1234
        ledger.page_in_count = 7
        ledger.page_out_disk_bytes = 99
        counts = ledger.counts()
        assert "parent" not in counts
        for key, value in counts.items():
            assert value == getattr(ledger, key)

    def test_mirror_pool_faults(self):
        reg = MetricsRegistry()
        stats = {"worker_deaths": 2, "respawns": 2, "retries": 5}
        assert mirror_pool_faults(reg, stats) == stats
        for key, value in stats.items():
            assert reg.gauge(f"pool/{key}").value == value

    def test_mirror_serve_stats(self):
        from repro.serve.service import ServeStats

        reg = MetricsRegistry()
        stats = ServeStats()
        stats.requests = 12
        stats.cache_hits = 3
        mirrored = mirror_serve_stats(reg, stats)
        assert mirrored == stats.as_dict()
        for key, value in stats.as_dict().items():
            assert reg.gauge(f"serve/{key}").value == value


class TestRegistrySnapshot:
    def test_snapshot_sections(self):
        reg = MetricsRegistry()
        reg.counter("reads", store="disk").inc(2)
        reg.gauge("live").set(10)
        reg.histogram("lat").observe(0.5)
        snap = reg.snapshot()
        assert {c["name"] for c in snap["counters"]} == {"reads"}
        assert snap["counters"][0]["labels"] == {"store": "disk"}
        assert {g["name"] for g in snap["gauges"]} == {"live"}
        assert snap["histograms"][0]["count"] == 1

    def test_module_registry_reset(self):
        reg = metrics.get_registry()
        reg.counter("x").inc()
        metrics.reset_registry()
        assert metrics.get_registry().counters() == []
