"""Measured-vs-modeled rollup tests for repro.telemetry.compare."""

import importlib.util
import math
import os

import pytest

from repro.core import SYSTEM_NAMES
from repro.sim import SYSTEMS as SIM_SYSTEMS
from repro.telemetry import export, trace
from repro.telemetry.compare import (
    IGNORED_PREFIXES,
    PHASES,
    compare_breakdowns,
    format_table,
    measured_breakdown,
    modeled_breakdown,
    phase_for,
)


def _load_cli():
    """``tools/compare_trace.py`` as a module."""
    repo = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))))
    spec = importlib.util.spec_from_file_location(
        "compare_trace_cli", os.path.join(repo, "tools", "compare_trace.py")
    )
    cli = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(cli)
    return cli


class TestPhaseMapping:
    @pytest.mark.parametrize("name,phase", [
        ("train/cull", "cull"),
        ("train/stage", "h2d"),
        ("train/forward", "fwd_bwd"),
        ("train/backward", "fwd_bwd"),
        ("train/unstage", "d2h"),
        ("train/commit", "optimizer"),
        ("train/return_grads", "optimizer"),
        ("train/aggregate", "composite"),
        ("page/in", "disk"),
        ("page/out", "disk"),
        ("page/prefetch", "disk"),
        ("train/step", "misc"),      # by self time: what no phase holds
        ("train/prefetch", "misc"),
        ("train/spill", "misc"),
        ("train/densify", None),     # between steps, not a phase
        ("serve/tick", None),        # outside the iteration vocabulary
        ("serve/page_in", None),
        ("pool/map", None),          # a farm or patch-job map, not a phase
    ])
    def test_phase_for(self, name, phase):
        assert phase_for(name) == phase

    def test_pool_spans_are_not_counted(self):
        events = [
            ("pool/map", "pool", 0, 0.0, 1.0, None),
            ("pool/frame_task", "pool", 0, 0.05, 0.5, None),
            ("train/forward", "train", 0, 1.0, 0.4, None),
        ]
        out = measured_breakdown(events)
        assert out["fwd_bwd"] == pytest.approx(0.4)


class TestBlockRasterSpans:
    """The ``vectorized`` forward's tile-row blocks run on the block
    threads and open no span: a traced sharded step counts its raster
    once, as the ``train/forward`` and ``train/backward`` spans around
    it. The views are four tile rows tall and the blocks 64 cells, so on
    2 CPUs every forward runs its blocks on the threads."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_fwd_bwd_is_the_train_spans(self, cpus, monkeypatch):
        from repro import pool
        from repro.core import GSScaleConfig, create_system
        from repro.datasets import SyntheticSceneConfig, build_scene
        from repro.render import RasterConfig, engine

        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        monkeypatch.setattr(engine, "BLOCK_CELLS", 64)
        scene = build_scene(SyntheticSceneConfig(
            num_points=200, width=32, height=64, num_train_cameras=2,
            seed=9,
        ))
        config = GSScaleConfig(
            system="sharded", num_shards=3, scene_extent=scene.extent,
            seed=0, mem_limit=1.0, raster=RasterConfig(engine="vectorized"),
        )
        trace.install()
        system = create_system(scene.initial.copy(), config)
        system.step(scene.train_cameras[0], scene.train_images[0])
        system.finalize()
        events = trace.get_tracer().events()
        names = [ev.name for ev in events]
        assert not any(name.startswith("pool/") for name in names)
        # every span was opened by the stepping thread
        assert len({ev.tid for ev in events}) == 1
        assert names.count("train/forward") == names.count(
            "train/backward"
        ) >= 1
        spans = sum(
            ev.dur for ev in events
            if ev.name in ("train/forward", "train/backward")
        )
        fwd_bwd = measured_breakdown(events)["fwd_bwd"]
        assert fwd_bwd > 0.0
        assert fwd_bwd == pytest.approx(spans)


class TestMeasuredBreakdown:
    def test_from_tracer_divides_by_iterations(self):
        tracer = trace.install()
        for i in range(4):
            tracer.record_rel("train/forward", i * 0.1, 0.02, cat="train")
            tracer.record_rel("page/in", i * 0.1 + 0.03, 0.01, cat="page")
        out = measured_breakdown(tracer, iterations=4)
        assert out["fwd_bwd"] == pytest.approx(0.02)
        assert out["disk"] == pytest.approx(0.01)
        assert out["cull"] == 0.0

    def test_nested_span_counts_once(self):
        """A ``page/in`` inside ``train/stage`` on one thread is ``disk``
        only; its parent keeps its self time. The prefetch lane's read
        is ``disk`` but no stall: the stepping thread did not wait."""
        events = [
            ("train/step", "train", 1, 0.0, 1.0, None),
            ("train/stage", "train", 1, 0.1, 0.5, None),
            ("page/in", "page", 1, 0.2, 0.3, None),
            ("train/forward", "train", 1, 0.7, 0.2, None),
            ("page/prefetch", "page", 2, 0.0, 0.4, None),
            ("page/in", "page", 2, 0.1, 0.2, None),
        ]
        out = measured_breakdown(events)
        assert out["h2d"] == pytest.approx(0.2)
        assert out["fwd_bwd"] == pytest.approx(0.2)
        assert out["misc"] == pytest.approx(0.3)
        assert out["disk"] == pytest.approx(0.7)
        assert out["disk_stall"] == pytest.approx(0.3)
        stepping = sum(v for phase, v in out.items() if phase != "disk")
        assert stepping == pytest.approx(1.0)

    def test_from_chrome_doc_uses_measured_pid_only(self):
        tracer = trace.install()
        tracer.record_rel("train/forward", 0.0, 0.5, cat="train")
        doc = export.to_chrome_trace(tracer)
        doc["traceEvents"].append({  # a modeled event must be ignored
            "name": "train/forward", "ph": "X", "pid": 1, "tid": 1,
            "ts": 0.0, "dur": 9e6, "cat": "gpu",
        })
        out = measured_breakdown(doc)
        assert out["fwd_bwd"] == pytest.approx(0.5, rel=1e-6)

    def test_rejects_bad_iterations(self):
        with pytest.raises(ValueError):
            measured_breakdown([], iterations=0)


class TestModeledAndDiff:
    @pytest.mark.parametrize("system", SIM_SYSTEMS)
    def test_modeled_breakdown_keys_are_phases(self, system):
        """Every key the simulator reports, for every system, unfiltered
        and a phase; the out-of-core schedules report them all."""
        from repro.sim import PLATFORMS

        out = modeled_breakdown(
            system, sorted(PLATFORMS)[0], 10_000, 0.3, 64 * 64,
            num_shards=4, resident_shards=1,
        )
        assert set(out) <= set(PHASES)
        if system.startswith("outofcore"):
            assert set(out) == set(PHASES)
        assert sum(out.values()) > 0.0

    def test_compare_rows(self):
        measured = dict.fromkeys(PHASES, 0.0)
        modeled = dict.fromkeys(PHASES, 0.0)
        measured["disk"] = 0.2
        modeled["disk"] = 0.1
        modeled["h2d"] = 0.05
        rows = {r["phase"]: r for r in compare_breakdowns(measured, modeled)}
        assert rows["disk"]["delta_s"] == pytest.approx(0.1)
        assert rows["disk"]["ratio"] == pytest.approx(2.0)
        assert rows["h2d"]["ratio"] == pytest.approx(0.0)
        assert rows["cull"]["ratio"] == 1.0  # 0/0: no work on either side
        measured["cull"] = 0.1
        rows = {r["phase"]: r for r in compare_breakdowns(measured, modeled)}
        assert math.isinf(rows["cull"]["ratio"])

    def test_format_table_lists_every_phase(self):
        rows = compare_breakdowns(
            dict.fromkeys(PHASES, 0.001), dict.fromkeys(PHASES, 0.002)
        )
        table = format_table(rows)
        for phase in PHASES:
            assert phase in table


class TestEndToEndRollup:
    def test_traced_training_step_yields_phase_budget(self):
        """A real traced step rolls up into non-zero fwd_bwd/h2d/optimizer."""
        from repro.core import GSScaleConfig, create_system
        from repro.datasets import SyntheticSceneConfig, build_scene

        scene = build_scene(SyntheticSceneConfig(
            num_points=120, width=24, height=18, num_train_cameras=2, seed=9,
        ))
        config = GSScaleConfig(
            system="outofcore", num_shards=2, resident_shards=1,
            scene_extent=scene.extent, seed=0,
        )
        trace.install()
        system = create_system(scene.initial.copy(), config)
        system.step(scene.train_cameras[0], scene.train_images[0])
        system.finalize()
        out = measured_breakdown(trace.get_tracer())
        assert out["fwd_bwd"] > 0.0
        assert out["h2d"] > 0.0
        assert out["optimizer"] > 0.0
        assert out["disk"] > 0.0

    def test_compare_trace_cli_runs(self, tmp_path, capsys):
        tracer = trace.install()
        tracer.record_rel("train/forward", 0.0, 0.01, cat="train")
        path = tmp_path / "trace.json"
        export.write_chrome_trace(tracer, path)
        modeled = tmp_path / "modeled.json"
        modeled.write_text('{"fwd_bwd": 0.005}', encoding="utf-8")

        cli = _load_cli()
        rc = cli.main([
            str(path), "--modeled-json", str(modeled),
            "--json", str(tmp_path / "rows.json"),
        ])
        assert rc == 0
        assert "fwd_bwd" in capsys.readouterr().out
        assert (tmp_path / "rows.json").exists()

    @staticmethod
    def _modeled_rows(tmp_path, *system):
        """The CLI's modeled column at 400 splats, 4 shards, 2 resident,
        48x36."""
        import json

        tracer = trace.install()
        tracer.record_rel("train/forward", 0.0, 0.01, cat="train")
        path = tmp_path / "trace.json"
        export.write_chrome_trace(tracer, path)
        rows_path = tmp_path / "rows.json"
        assert _load_cli().main([
            str(path), "--n-total", "400", "--active-ratio", "0.5",
            "--width", "48", "--height", "36", "--num-shards", "4",
            "--resident-shards", "2", "--json", str(rows_path), *system,
        ]) == 0
        return {
            r["phase"]: r["modeled_s"]
            for r in json.loads(rows_path.read_text(encoding="utf-8"))
        }

    def test_compare_trace_cli_models_the_async_schedule(self, tmp_path):
        """With no ``--system``, the modeled column is the async out-of-core
        schedule, the one ``GSScaleConfig(system="outofcore")`` runs."""
        from repro.sim import PLATFORMS

        expected = modeled_breakdown(
            "outofcore_async", sorted(PLATFORMS)[0], 400, 0.5, 48 * 36,
            num_shards=4, resident_shards=2,
        )
        assert self._modeled_rows(tmp_path) == expected

    def test_compare_trace_cli_tells_the_schedules_apart(self, tmp_path):
        """The two out-of-core schedules differ in the disk stall: the
        synchronous one waits on every page, the async one only on what
        the slowest other leg does not hide."""
        sync = self._modeled_rows(tmp_path, "--system", "outofcore")
        overlapped = self._modeled_rows(tmp_path)
        assert sync["disk_stall"] == sync["disk"] > 0.0
        assert overlapped["disk_stall"] < sync["disk_stall"]
        assert {k: v for k, v in sync.items() if k != "disk_stall"} == {
            k: v for k, v in overlapped.items() if k != "disk_stall"
        }


class TestEverySystemRollup:
    """A traced ``step()`` loop of every system: each span name is a phase
    or ignored, and on the stepping thread every span counts once — the
    phases but ``disk`` sum to the top-level step spans exactly."""

    @pytest.fixture(scope="class")
    def scene(self):
        from repro.datasets import SyntheticSceneConfig, build_scene

        return build_scene(SyntheticSceneConfig(
            num_points=160, width=24, height=18, num_train_cameras=4, seed=9,
        ))

    @pytest.mark.parametrize("system_name", SYSTEM_NAMES)
    def test_step_loop_counts_every_span_once(self, scene, system_name):
        from repro.core import GSScaleConfig, create_system

        config = GSScaleConfig(
            system=system_name, num_shards=4, resident_shards=2,
            scene_extent=scene.extent, seed=0, mem_limit=0.5,
        )
        tracer = trace.install()
        system = create_system(scene.initial.copy(), config)
        tracer.clear()
        cams, images = scene.train_cameras, scene.train_images
        for i in range(6):
            if hasattr(system, "hint_upcoming_views"):
                system.hint_upcoming_views([cams[(i + 1) % 4], cams[(i + 2) % 4]])
            system.step(cams[i % 4], images[i % 4])
        events = tracer.events()
        system.finalize()

        for ev in events:
            assert phase_for(ev.name) is not None or ev.name.startswith(
                IGNORED_PREFIXES
            ), ev.name
        (stepping,) = {ev.tid for ev in events if ev.name == "train/step"}
        top = sum(
            ev.dur for ev in events if ev.tid == stepping
            and ev.name in ("train/step", "train/prefetch", "train/spill")
        )
        out = measured_breakdown(events)
        phases = sum(v for phase, v in out.items() if phase != "disk")
        assert phases == pytest.approx(top, rel=1e-9)
        assert 0.0 <= out["disk_stall"] <= out["disk"]
        if system_name == "outofcore":
            assert out["disk_stall"] > 0.0
