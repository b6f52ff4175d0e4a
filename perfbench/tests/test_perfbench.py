"""Unit tests of the benchmark itself (quick sizes; numbers not comparable)."""

import json
import os
import re
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from perfbench import compare, run, tracing, workloads  # noqa: E402
from perfbench.tracing import Recorder, Span, Target  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.fixture(scope="module")
def declared():
    return run.load_declaration()


def _quick(tmp_path, *argv):
    """Run the CLI in-process at quick size; returns (exit code, runs)."""
    out = str(tmp_path / "out")
    code = run.main(["--quick", "--seconds", "0.2", "--out", out, *argv])
    with open(os.path.join(out, "results.json")) as fh:
        return code, json.load(fh)["runs"]


def test_declaration_is_well_formed(declared):
    assert declared["paths"] == ["perfbench"]
    e2e, layers = declared["end_to_end"], declared["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layers) <= 128
    names = [m["name"] for m in e2e + layers] + [w["name"] for w in declared["workloads"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    assert all(UNIT.match(m["unit"]) for m in e2e + layers)
    assert all(m["better"] in ("higher", "lower") for m in e2e + layers)
    assert all(0 < m["bound"] <= 0.25 for m in e2e)
    setup = next(m for m in e2e if m["name"] == "setup_s")
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert set(workloads.WORKLOADS) == {w["name"] for w in declared["workloads"]}


@pytest.mark.parametrize("name", ["train_split", "train_outofcore", "serve_walk"])
def test_every_declared_metric_is_emitted_with_a_unit(tmp_path, capsys, declared, name):
    code, runs = _quick(tmp_path, "--workload", name)
    assert code == 0
    assert [r["trace"] for r in runs] == [0, 1] and all(r["quick"] for r in runs)
    for record, section in zip(runs, ("end_to_end", "per_layer")):
        assert record["correct"], record["checks"]
        assert list(record["metrics"]) == [m["name"] for m in declared[section]]
        for decl in declared[section]:
            entry = record["metrics"][decl["name"]]
            assert entry["unit"] == decl["unit"]
            assert isinstance(entry["value"], (int, float))
    # end-to-end metrics are never zero
    assert all(e["value"] > 0 for e in runs[0]["metrics"].values())
    # the last stdout line of each run is the driver's JSON object
    lines = [ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("{")]
    assert len(lines) == 2
    for line, record in zip(lines, runs):
        obj = json.loads(line)
        assert set(obj) == {"correct", "attempted", "failed", "metrics"}
        assert obj["attempted"] >= 1 and obj["failed"] == 0
        assert set(obj["metrics"]) == set(record["metrics"])
        assert all(set(v) == {"value", "unit"} for v in obj["metrics"].values())
    assert os.path.exists(tmp_path / "out" / f"{name}.seed0.trace.json")


def test_same_seed_gives_the_same_inputs_and_counts(tmp_path):
    _, first = _quick(tmp_path / "a", "--workload", "train_split", "--trace", "0", "--seed", "3")
    _, again = _quick(tmp_path / "b", "--workload", "train_split", "--trace", "0", "--seed", "3")
    _, other = _quick(tmp_path / "c", "--workload", "train_split", "--trace", "0", "--seed", "4")
    assert first[0]["info"]["final_loss"] == again[0]["info"]["final_loss"]
    assert first[0]["info"]["final_loss"] != other[0]["info"]["final_loss"]


def test_span_self_time_arithmetic():
    # root [0, 10] > a [1, 4] > b [2, 3];  root > a [5, 9];  other thread [0, 7]
    spans = [
        Span("root", 0.0, 10.0, parent=-1, thread=1),
        Span("a", 1.0, 4.0, parent=0, thread=1, attrs={"rows": 5}),
        Span("b", 2.0, 3.0, parent=1, thread=1),
        Span("a", 5.0, 9.0, parent=0, thread=1, attrs={"rows": 7}),
        Span("bg", 0.0, 7.0, parent=-1, thread=2),
        Span("a", 6.0, 7.0, parent=3, thread=1, attrs={"rows": 100}),  # nested a
    ]
    assert tracing.self_times(spans) == [3.0, 2.0, 1.0, 3.0, 7.0, 1.0]
    main = tracing.totals_by_name(spans, keep=[s.thread == 1 for s in spans])
    assert "bg" not in main
    assert (main["a"].calls, main["a"].outer_calls) == (3, 2)
    assert main["a"].self_s == 6.0 and main["a"].total_s == 8.0
    assert main["a"].attrs == {"rows": 12}  # the nested call staged nothing new
    # self times of all names add up to the root's duration
    assert sum(t.self_s for t in main.values()) == spans[0].duration


def test_wrappers_are_removed_after_a_traced_run(tmp_path):
    import importlib

    import repro.core
    import repro.core.systems as systems
    import repro.serve.farm as farm

    # ``repro.render`` the attribute is the re-exported function
    render_pkg = importlib.import_module("repro.render")

    def snapshot():
        return {
            "render": render_pkg.render,
            "cull": render_pkg.frustum_cull,
            "backward": render_pkg.render_backward,
            "systems": {
                k: vars(systems)[k]
                for k in ("render", "frustum_cull", "render_backward",
                          "find_balanced_split_by", "photometric_loss")
            },
            "farm": (farm.render, farm.frustum_cull),
            "stores": {
                (cls.__name__, op): vars(cls).get(op)
                for cls in (repro.core.DeviceStore, repro.core.HostStore,
                            repro.core.DiskStore, repro.core.HybridStore,
                            repro.core.ShardedStore)
                for op in ("stage", "unstage", "commit", "return_grads",
                           "page_in", "spill")
            },
        }

    before = snapshot()
    recorder = Recorder()
    installed = tracing.install(recorder)
    assert not installed.unresolved
    assert systems.render is not before["systems"]["render"]  # really wrapped
    assert repro.core.HostStore.stage is not before["stores"][("HostStore", "stage")]
    tracing.uninstall(installed)
    assert snapshot() == before
    code, _ = _quick(tmp_path, "--workload", "train_outofcore", "--trace", "1")
    assert code == 0
    assert snapshot() == before


def test_unresolvable_target_yields_null_metrics_not_an_exception(
    tmp_path, monkeypatch, capsys
):
    gone = (
        Target("render.cull", "repro.render", None, "renamed_away"),
        Target("optim.step", "repro.optim", "NoSuchOptimizer", "step_rows"),
        Target("pager.page_in", "repro.no_such_module", "DiskStore", "page_in"),
    )
    installed = tracing.install(Recorder(), gone)
    assert len(installed.unresolved) == 3 and not installed.patches
    assert installed.unresolved_spans() == {"render.cull", "optim.step", "pager.page_in"}

    kept = tuple(t for t in tracing.TARGETS if t.span != "render.cull")
    monkeypatch.setattr(tracing, "TARGETS", kept + gone[:1])
    code, runs = _quick(tmp_path, "--workload", "train_split", "--trace", "1")
    assert code == 0 and runs[0]["correct"]
    metrics = runs[0]["metrics"]
    for name in ("render.cull_ms_per_step", "render.cull_calls_per_step",
                 "render.cull_share", "splitting.culls_per_search"):
        assert metrics[name]["value"] is None
    assert metrics["render.forward_ms_per_step"]["value"] > 0
    out = capsys.readouterr().out
    assert "did not resolve" in out
    line = json.loads([ln for ln in out.splitlines() if ln.startswith("{")][-1])
    assert line["metrics"]["render.cull_ms_per_step"]["value"] == 0.0


def test_guards_report_the_measured_value():
    guards = (
        workloads.Guard("regions_per_step", "==", 2),
        workloads.Guard("render.share", ">=", 0.8),
    )
    (record,) = workloads.check_guards(guards, {"regions_per_step": [2, 1, 2]})
    assert not record["ok"] and "min 1" in record["detail"]
    records = workloads.check_guards(
        guards, {"regions_per_step": [2, 2], "render.share": 0.9}
    )
    assert [r["ok"] for r in records] == [True, True]


def test_compare_verdicts(declared):
    def side(*values, q=None):
        entry = lambda v: {"value": v, **({"q1": q[0], "q3": q[1]} if q else {})}  # noqa: E731
        return [entry(v) for v in values]

    higher = {"better": "higher", "bound": 0.10}
    lower = {"better": "lower", "bound": 0.10}
    assert compare.verdict(higher, side(10.0), side(10.5))["verdict"] == "same"
    assert compare.verdict(higher, side(10.0), side(8.0))["verdict"] == "worse"
    assert compare.verdict(higher, side(10.0), side(12.0))["verdict"] == "better"
    assert compare.verdict(lower, side(10.0), side(12.0))["verdict"] == "worse"
    # a spread wider than the bound cannot resolve it ...
    noisy = compare.verdict(lower, side(9.0, 10.0, 12.0, 13.0), side(9.5, 10.5, 12.5, 13.5))
    assert noisy["verdict"] == "unresolved"
    # ... unless every candidate run beats every baseline run
    clear = compare.verdict(lower, side(9.0, 10.0, 12.0, 13.0), side(4.0, 5.0, 6.0, 7.0))
    assert clear["verdict"] == "better"
    # one run per side: the run's own quartiles are the spread, and a
    # single better run does not "separate"
    assert compare.verdict(lower, side(10.0, q=(8.0, 12.0)), side(10.0))["verdict"] == "unresolved"
    assert compare.verdict(lower, side(10.0, q=(8.0, 12.0)), side(5.0))["verdict"] == "unresolved"

    runs = [
        {"workload": "train_raster", "trace": 0, "quick": False,
         "metrics": {m["name"]: {"value": 2.0} for m in declared["end_to_end"]}}
    ]
    rows = compare.compare(runs, runs, declared)
    assert len(rows) == len(declared["end_to_end"])
    assert {r["verdict"] for r in rows} == {"same"}
