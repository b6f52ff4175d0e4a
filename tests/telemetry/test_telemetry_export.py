"""Exporter tests: Chrome trace schema parity with sim."""

import json
import threading

from repro.telemetry import export, trace
from repro.telemetry.trace import Tracer


def _traced_run() -> Tracer:
    tracer = trace.install()
    with trace.span("train/step", "train"):
        with trace.span("train/forward", "train"):
            pass
    tracer.record_rel("page/in", 0.5, 0.01, cat="page",
                      tid="pool-worker-0", attrs={"bytes": 4096})
    return tracer


class TestChromeTrace:
    def test_round_trips_through_json(self):
        doc = export.to_chrome_trace(_traced_run())
        again = json.loads(json.dumps(doc))
        assert again == doc

    def test_schema_matches_sim_trace(self):
        """Measured docs carry the exact keys the modeled exporter emits."""
        doc = export.to_chrome_trace(_traced_run())
        assert set(doc) == {"traceEvents", "displayTimeUnit"}
        assert doc["displayTimeUnit"] == "ms"
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert spans
        for ev in spans:
            assert {"name", "ph", "pid", "tid", "ts", "dur", "cat"} <= set(ev)
            assert ev["pid"] == export.MEASURED_PID
            assert ev["dur"] >= 0.01  # sim's min visible duration
        metas = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        assert {"process_name", "thread_name"} <= {e["name"] for e in metas}

    def test_lane_numbering_main_first_then_workers(self):
        doc = export.to_chrome_trace(_traced_run())
        names = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        }
        assert names["main"] == 1
        assert names["pool-worker-0"] == 2

    def test_attrs_become_args(self):
        doc = export.to_chrome_trace(_traced_run())
        (page_in,) = [e for e in doc["traceEvents"] if e["name"] == "page/in"]
        assert page_in["args"] == {"bytes": 4096}

    def test_shipped_attrs_become_args(self):
        tracer = trace.install()
        shipped = [("serve/frame", "serve", 0.001, 0.002, {"lod": 1, "shaded": 9})]
        tracer.record_shipped(shipped, tracer.epoch + 0.5, "pool-worker-1")
        doc = export.to_chrome_trace(tracer)
        (frame,) = [e for e in doc["traceEvents"] if e["name"] == "serve/frame"]
        assert frame["args"] == {"lod": 1, "shaded": 9}

    def test_named_thread_lane_survives_thread_exit(self):
        tracer = trace.install()

        def worker():
            trace.name_current_thread("gsscale-prefetch")
            with trace.span("page/prefetch", "page"):
                pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        doc = export.to_chrome_trace(tracer)
        lane_names = [
            e["args"]["name"] for e in doc["traceEvents"]
            if e["ph"] == "M" and e["name"] == "thread_name"
        ]
        assert "gsscale-prefetch" in lane_names

    def test_merge_keeps_both_pids(self, tmp_path):
        modeled = {
            "traceEvents": [
                {"name": "h2d", "ph": "X", "pid": 1, "tid": 2,
                 "ts": 0.0, "dur": 5.0, "cat": "pcie"},
            ],
            "displayTimeUnit": "ms",
        }
        path = tmp_path / "trace.json"
        doc = export.write_chrome_trace(_traced_run(), path, modeled=modeled)
        with open(path, encoding="utf-8") as fh:
            on_disk = json.load(fh)
        assert on_disk == doc
        pids = {e["pid"] for e in doc["traceEvents"]}
        assert pids == {1, export.MEASURED_PID}

