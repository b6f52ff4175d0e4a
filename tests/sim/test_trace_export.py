"""Tests for the Chrome-trace exporter and ASCII timeline rendering."""

import json

import pytest

from repro.sim import (
    SYSTEMS,
    CostModel,
    get_platform,
    render_ascii,
    simulate_iteration,
    to_chrome_trace,
    write_chrome_trace,
)
from repro.sim.timeline import Segment


@pytest.fixture
def segments():
    cost = CostModel(get_platform("laptop_4070m"))
    it = simulate_iteration("gsscale", cost, 3_500_000, 0.126, 995_328)
    return it.segments


class TestChromeTrace:
    def test_structure(self, segments):
        trace = to_chrome_trace(segments)
        assert "traceEvents" in trace
        events = trace["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        spans = [e for e in events if e["ph"] == "X"]
        assert len(meta) == 3  # CPU, GPU, PCIe thread names
        assert len(spans) == len(segments)
        for e in spans:
            assert e["dur"] > 0
            assert e["ts"] >= 0

    def test_json_serializable(self, segments, tmp_path):
        path = str(tmp_path / "trace.json")
        write_chrome_trace(segments, path)
        with open(path) as f:
            loaded = json.load(f)
        assert loaded["displayTimeUnit"] == "ms"

    def test_resource_to_tid_mapping(self):
        segs = [Segment("CPU", "a", 0.0, 1.0), Segment("GPU", "b", 0.0, 1.0)]
        trace = to_chrome_trace(segs)
        spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
        tids = {e["name"]: e["tid"] for e in spans}
        assert tids["a"] != tids["b"]


class TestAsciiRendering:
    def test_contains_all_resources(self, segments):
        art = render_ascii(segments)
        for res in ("CPU", "GPU", "PCIe"):
            assert res in art
        assert "total" in art

    def test_empty(self):
        assert "empty" in render_ascii([])

    def test_width_respected(self, segments):
        art = render_ascii(segments, width=40)
        for line in art.splitlines():
            if "|" in line:
                bar = line.split("|")[1]
                assert len(bar) <= 40

    def test_durations_labelled(self, segments):
        art = render_ascii(segments)
        assert "ms]" in art


class TestEveryLaneNamed:
    """Every lane a modelled iteration uses is named, and charted."""

    @pytest.mark.parametrize("system", SYSTEMS)
    def test_every_span_sits_on_a_named_lane(self, system):
        cost = CostModel(get_platform("laptop_4070m"))
        it = simulate_iteration(system, cost, 3_500_000, 0.126, 995_328)
        events = to_chrome_trace(it.segments)["traceEvents"]
        names = {e["tid"]: e["args"]["name"] for e in events if e["ph"] == "M"}
        spans = [e for e in events if e["ph"] == "X"]
        assert spans
        for e in spans:
            assert names[e["tid"]] == e["cat"]
        assert len(names) == len({e["cat"] for e in spans})

    def test_outofcore_async_chart_has_a_disk_row(self):
        cost = CostModel(get_platform("laptop_4070m"))
        it = simulate_iteration("outofcore_async", cost, 3_500_000, 0.126, 995_328)
        rows = [
            line.split("|")[0].strip()
            for line in render_ascii(it.segments).splitlines() if "|" in line
        ]
        assert rows == ["CPU", "GPU", "PCIe", "Disk"]
