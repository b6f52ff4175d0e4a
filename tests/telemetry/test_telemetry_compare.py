"""Measured-vs-modeled rollup tests for repro.telemetry.compare."""

import math

import pytest

from repro.telemetry import export, trace
from repro.telemetry.compare import (
    PHASES,
    compare_breakdowns,
    format_table,
    measured_breakdown,
    modeled_breakdown,
    phase_for,
)


class TestPhaseMapping:
    @pytest.mark.parametrize("name,phase", [
        ("train/cull", "cull"),
        ("train/stage", "h2d"),
        ("train/forward", "fwd_bwd"),
        ("train/backward", "fwd_bwd"),
        ("train/unstage", "d2h"),
        ("train/commit", "optimizer"),
        ("train/aggregate", "composite"),
        ("page/in", "disk"),
        ("page/writeback", "disk"),
        ("train/step", None),   # the envelope, never double counted
        ("serve/tick", None),   # outside the iteration vocabulary
        ("pool/map", None),     # a farm or patch-job map, not a phase
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


class TestFragmentRasterSpans:
    """The ``fragment`` engine's shard slices run on the block threads
    and open no span: a traced sharded step counts its raster once, as
    the ``train/forward`` and ``train/backward`` spans around it."""

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_fwd_bwd_is_the_train_spans(self, cpus, monkeypatch):
        from repro import pool
        from repro.core import GSScaleConfig, create_system
        from repro.datasets import SyntheticSceneConfig, build_scene
        from repro.render import RasterConfig

        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        scene = build_scene(SyntheticSceneConfig(
            num_points=200, width=32, height=24, num_train_cameras=2,
            seed=9,
        ))
        config = GSScaleConfig(
            system="sharded", num_shards=3, scene_extent=scene.extent,
            telemetry=True, seed=0, mem_limit=1.0,
            raster=RasterConfig(engine="fragment"),
        )
        system = create_system(scene.initial.copy(), config)
        system.step(scene.train_cameras[0], scene.train_images[0])
        system.finalize()
        events = trace.get_tracer().events()
        names = [ev.name for ev in events]
        assert not any(name.startswith("pool/") for name in names)
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
        for _ in range(4):
            tracer.record_rel("train/forward", 0.0, 0.02, cat="train")
            tracer.record_rel("page/in", 0.0, 0.01, cat="page")
        out = measured_breakdown(tracer, iterations=4)
        assert out["fwd_bwd"] == pytest.approx(0.02)
        assert out["disk"] == pytest.approx(0.01)
        assert out["cull"] == 0.0

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
    def test_modeled_breakdown_covers_phases(self):
        from repro.sim import PLATFORMS

        out = modeled_breakdown(
            "outofcore", sorted(PLATFORMS)[0], 10_000, 0.3, 64 * 64,
            num_shards=4, resident_shards=1,
        )
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
            scene_extent=scene.extent, telemetry=True, seed=0,
        )
        system = create_system(scene.initial.copy(), config)
        system.step(scene.train_cameras[0], scene.train_images[0])
        system.finalize()
        out = measured_breakdown(trace.get_tracer())
        assert out["fwd_bwd"] > 0.0
        assert out["h2d"] > 0.0
        assert out["optimizer"] > 0.0
        assert out["disk"] > 0.0

    def test_compare_trace_cli_runs(self, tmp_path, capsys):
        import importlib.util
        import os

        tracer = trace.install()
        tracer.record_rel("train/forward", 0.0, 0.01, cat="train")
        path = tmp_path / "trace.json"
        export.write_chrome_trace(tracer, path)
        modeled = tmp_path / "modeled.json"
        modeled.write_text('{"fwd_bwd": 0.005}', encoding="utf-8")

        repo = os.path.dirname(os.path.dirname(os.path.dirname(
            os.path.abspath(__file__))))
        spec = importlib.util.spec_from_file_location(
            "compare_trace_cli", os.path.join(repo, "tools", "compare_trace.py")
        )
        cli = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(cli)
        rc = cli.main([
            str(path), "--modeled-json", str(modeled),
            "--json", str(tmp_path / "rows.json"),
        ])
        assert rc == 0
        assert "fwd_bwd" in capsys.readouterr().out
        assert (tmp_path / "rows.json").exists()
