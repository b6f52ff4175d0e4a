"""Tracer unit tests: span recording, nesting, threads, remap, no-op mode."""

import sys
import threading
import time

from repro.telemetry import trace
from repro.telemetry.trace import SpanEvent, Tracer, _NULL_SPAN


class TestSpanRecording:
    def test_span_records_name_cat_and_duration(self):
        tracer = trace.install()
        with trace.span("train/forward", "train"):
            time.sleep(0.002)
        (ev,) = tracer.events()
        assert ev.name == "train/forward"
        assert ev.cat == "train"
        assert ev.tid == threading.get_ident()
        assert ev.dur >= 0.002
        assert ev.start >= 0.0

    def test_nested_spans_close_inner_first(self):
        tracer = trace.install()
        with trace.span("outer"):
            with trace.span("inner"):
                pass
        inner, outer = tracer.events()
        assert (inner.name, outer.name) == ("inner", "outer")
        # the outer span brackets the inner one on the timeline
        assert outer.start <= inner.start
        assert outer.start + outer.dur >= inner.start + inner.dur

    def test_span_attrs_flow_through(self):
        tracer = trace.install()
        with trace.span("page/in", "page", bytes=4096):
            pass
        (ev,) = tracer.events()
        assert ev.attrs == {"bytes": 4096}

    def test_set_attaches_attrs_known_after_the_work(self):
        tracer = trace.install()
        with trace.span("train/forward", "train", view=3) as sp:
            sp.set(pairs=12, saved_bytes=480)
        (ev,) = tracer.events()
        assert ev.attrs == {"view": 3, "pairs": 12, "saved_bytes": 480}

    def test_begin_end_brackets_non_lexical_scopes(self):
        tracer = trace.install()
        tok = trace.begin("pool/map", "pool")
        with trace.span("pool/task"):
            pass
        trace.end(tok)
        task, outer = tracer.events()
        assert outer.name == "pool/map"
        assert outer.start <= task.start

    def test_span_records_on_exception(self):
        tracer = trace.install()
        try:
            with trace.span("train/step"):
                raise RuntimeError("boom")
        except RuntimeError:
            pass
        assert [ev.name for ev in tracer.events()] == ["train/step"]


class TestThreadAttribution:
    def test_spans_from_threads_carry_their_ident(self):
        tracer = trace.install()
        seen = {}

        def worker():
            seen["tid"] = threading.get_ident()
            trace.name_current_thread("bg-worker")
            with trace.span("page/prefetch", "page"):
                pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        with trace.span("train/step"):
            pass
        by_name = {ev.name: ev for ev in tracer.events()}
        assert by_name["page/prefetch"].tid == seen["tid"]
        assert by_name["train/step"].tid == threading.get_ident()
        # the lane stays labelled even though the thread has exited
        assert tracer.thread_names[seen["tid"]] == "bg-worker"


class TestRingBuffer:
    def test_wraps_and_counts_drops(self):
        tracer = Tracer(capacity=4)
        for i in range(7):
            tracer.record_rel(f"s{i}", float(i), 0.1)
        events = tracer.events()
        assert [ev.name for ev in events] == ["s3", "s4", "s5", "s6"]
        assert tracer.dropped == 3

    def test_events_returns_oldest_first_copy(self):
        tracer = Tracer(capacity=3)
        for i in range(5):
            tracer.record_rel(f"s{i}", float(i), 0.1)
        first = tracer.events()
        first.append(None)  # mutating the copy must not touch the ring
        assert [ev.name for ev in tracer.events()] == ["s2", "s3", "s4"]

    def test_clear_resets_events_and_drops(self):
        tracer = Tracer(capacity=2)
        for i in range(4):
            tracer.record_rel(f"s{i}", float(i), 0.1)
        tracer.clear()
        assert tracer.events() == []
        assert tracer.dropped == 0


class TestShippedSpanRemap:
    SHIPPED = [
        ("pool/frame_task", "pool", 0.000, 0.010),
        ("serve/frame", "serve", 0.002, 0.004),
    ]

    def test_remap_is_deterministic(self):
        a, b = Tracer(), Tracer()
        b.epoch = a.epoch  # same epoch -> same inputs end to end
        anchor = a.epoch + 1.5
        a.record_shipped(self.SHIPPED, anchor, "pool-worker-0")
        b.record_shipped(self.SHIPPED, anchor, "pool-worker-0")
        assert a.events() == b.events()

    def test_remap_rebases_onto_anchor_lane(self):
        tracer = Tracer()
        anchor = tracer.epoch + 2.0
        tracer.record_shipped(self.SHIPPED, anchor, "pool-worker-3")
        outer, inner = tracer.events()
        assert outer == SpanEvent(
            "pool/frame_task", "pool", "pool-worker-3", 2.0, 0.010, None
        )
        assert inner.start == 2.002
        assert inner.tid == "pool-worker-3"

    def test_traced_task_ships_spans_with_result(self):
        result, shipped = trace.traced_task((_double_with_span, 21))
        assert result == 42
        names = [name for name, _cat, _start, _dur in shipped]
        assert names == ["inner/work", "pool/double_with_span"]
        for _name, _cat, start, dur in shipped:
            assert start >= 0.0 and dur >= 0.0
        # the worker-local tracer never leaks into this process
        assert trace.get_tracer() is None


class TestDisabledMode:
    def test_span_returns_shared_null_singleton(self):
        assert trace.get_tracer() is None
        assert trace.span("train/forward", "train") is _NULL_SPAN
        assert trace.span("anything") is _NULL_SPAN

    def test_begin_end_are_noops(self):
        assert trace.begin("pool/map") is None
        trace.end(None)  # must not raise

    def test_set_on_the_null_span_is_a_noop(self):
        with trace.span("train/forward", "train") as sp:
            sp.set(pairs=12)
        assert sp is _NULL_SPAN

    def test_enabled_reflects_install_state(self):
        assert not trace.enabled()
        tracer = trace.install()
        assert trace.enabled()
        tracer.enabled = False
        assert not trace.enabled()
        tracer.enabled = True
        trace.uninstall()
        assert not trace.enabled()

    def test_disabled_span_allocates_nothing(self):
        # warm up so interned strings / bytecode caches settle
        for _ in range(64):
            with trace.span("hot/path"):
                pass
        before = sys.getallocatedblocks()
        for _ in range(10_000):
            with trace.span("hot/path"):
                pass
        grown = sys.getallocatedblocks() - before
        # no per-call allocation: any residue is interpreter noise, far
        # below one block per span
        assert grown < 50

    def test_install_is_idempotent(self):
        a = trace.install()
        b = trace.install()
        assert a is b


class TestSavedPairTelemetry:
    """The raster state the vectorized forward keeps for its backward is
    reported per view — through telemetry, not the modeled tracker."""

    @staticmethod
    def _system(telemetry, engine="vectorized"):
        from repro.core import GSScaleConfig, create_system
        from repro.datasets import SyntheticSceneConfig, build_scene

        scene = build_scene(
            SyntheticSceneConfig(
                num_points=220, width=36, height=28, num_train_cameras=2,
                num_test_cameras=1, altitude=12.0, seed=7,
            )
        )
        system = create_system(
            scene.initial.copy(),
            GSScaleConfig(
                system="gsscale", engine=engine, telemetry=telemetry,
                scene_extent=scene.extent, mem_limit=1.0,
            ),
        )
        return system, scene

    def test_forward_span_and_gauge_report_the_saved_state(self):
        from repro.telemetry import metrics

        system, scene = self._system(telemetry=True)
        for cam, img in zip(scene.train_cameras, scene.train_images):
            system.step(cam, img)
        forwards = [
            ev for ev in trace.get_tracer().events()
            if ev.name == "train/forward"
        ]
        assert len(forwards) == 2
        for ev in forwards:
            assert ev.attrs["pairs"] > 0
            # 8 B each of pixel id, splat id, alpha and t_before per pair
            assert ev.attrs["saved_bytes"] >= 32 * ev.attrs["pairs"]
        gauge = metrics.get_registry().gauge("render/saved_pair_bytes")
        assert gauge.value == max(ev.attrs["saved_bytes"] for ev in forwards)

    def test_nothing_recorded_when_off(self):
        from repro.telemetry import metrics

        system, scene = self._system(telemetry=False)
        system.step(scene.train_cameras[0], scene.train_images[0])
        assert metrics.get_registry().gauges() == []


def _double_with_span(x):
    with trace.span("inner/work", "app"):
        return 2 * x


class TestIsectTelemetry:
    """How many tile intersections a view had, and how many the occlusion
    prune dropped, ride on the forward-pass spans and one counter."""

    def test_train_forward_spans_carry_the_counts(self):
        from repro.telemetry import metrics

        system, scene = TestSavedPairTelemetry._system(telemetry=True)
        for cam, img in zip(scene.train_cameras, scene.train_images):
            system.step(cam, img)
        forwards = [
            ev for ev in trace.get_tracer().events()
            if ev.name == "train/forward"
        ]
        assert len(forwards) == 2
        for ev in forwards:
            assert ev.attrs["isects"] > 0
            assert ev.attrs["pruned_isects"] == 0  # opacity 0.1: no-op
        (counter,) = metrics.get_registry().counters()
        assert counter.name == "render/isects_pruned" and counter.value == 0

    def test_every_flat_engine_reports_the_same_counts(self):
        """The counts come off ``RasterResult.counts``, which the
        ``fragment`` engine sums from its slices — not off the saved table
        only ``vectorized`` keeps."""
        per_engine = {}
        for engine in ("vectorized", "fragment"):
            system, scene = TestSavedPairTelemetry._system(True, engine)
            trace.get_tracer().clear()
            system.step(scene.train_cameras[0], scene.train_images[0])
            (ev,) = [
                ev for ev in trace.get_tracer().events()
                if ev.name == "train/forward"
            ]
            assert ("saved_bytes" in ev.attrs) == (engine == "vectorized")
            per_engine[engine] = {
                key: ev.attrs[key]
                for key in ("cells", "pairs", "isects", "pruned_isects")
            }
        assert per_engine["vectorized"]["cells"] > per_engine["vectorized"]["pairs"] > 0
        assert per_engine["fragment"] == per_engine["vectorized"]

    @staticmethod
    def _serve_opaque_scene():
        """Two frames of a scene whose splats were made wide and opaque."""
        import numpy as np

        from repro.datasets import SyntheticSceneConfig, build_scene
        from repro.serve import RenderService, requests_from_cameras

        scene = build_scene(
            SyntheticSceneConfig(
                num_points=400, width=32, height=32, num_train_cameras=2,
                num_test_cameras=1, altitude=12.0, seed=7,
            )
        )
        model = scene.oracle.copy()
        model.log_scales[:] += np.log(12.0)
        model.opacity_logits[:] = 8.0
        service = RenderService(model, cache_bytes=0)
        try:
            for request in requests_from_cameras(scene.train_cameras):
                service.submit(request)
            return service.tick()
        finally:
            service.close()

    def test_serve_frame_spans_and_counter_report_the_prune(self):
        from repro.telemetry import metrics

        trace.install()
        responses = self._serve_opaque_scene()
        assert [r.status for r in responses] == ["ok", "ok"]
        frames = [
            ev for ev in trace.get_tracer().events() if ev.name == "serve/frame"
        ]
        assert len(frames) == 2
        for ev in frames:
            assert ev.attrs["lod"] == 0
            assert ev.attrs["pruned_isects"] > ev.attrs["isects"] > 0
        counter = metrics.get_registry().counter("render/isects_pruned")
        assert counter.value == sum(ev.attrs["pruned_isects"] for ev in frames)

    def test_nothing_recorded_when_off(self):
        from repro.telemetry import metrics

        responses = self._serve_opaque_scene()
        assert [r.status for r in responses] == ["ok", "ok"]
        assert metrics.get_registry().counters() == []


class TestServeTickTelemetry:
    """One trace says why a tick was slow: the ``serve/tick`` span leaves
    with what the tick gathered and paged, and the registry mirrors the
    store ledger's page-in count through ``ServeStats``."""

    @staticmethod
    def _paged_service(telemetry=True):
        from repro.datasets import SyntheticSceneConfig, build_scene
        from repro.gaussians import layout
        from repro.serve import PagedServingStore, RenderService, ServeConfig

        scene = build_scene(
            SyntheticSceneConfig(
                num_points=240, width=32, height=24, num_train_cameras=3,
                num_test_cameras=1, altitude=12.0, seed=5,
            )
        )
        n = scene.oracle.num_gaussians
        budget = layout.param_bytes(n, layout.GEOMETRIC_DIM) + 2 * (
            layout.param_bytes(-(-n // 4), layout.NON_GEOMETRIC_DIM)
        )
        store = PagedServingStore.from_model(
            scene.oracle, budget, num_shards=4, codec="float16"
        )
        service = RenderService(
            store, cache_bytes=0, serve_config=ServeConfig(telemetry=telemetry)
        )
        return service, scene.train_cameras

    def test_tick_span_carries_frames_rows_shards_and_page_ins(self):
        from repro.serve import requests_from_cameras
        from repro.telemetry import metrics

        service, cameras = self._paged_service()
        try:
            for _ in range(2):
                service.serve(requests_from_cameras(cameras))
            events = trace.get_tracer().events()
            ticks = [ev for ev in events if ev.name == "serve/tick"]
            gathers = [ev for ev in events if ev.name == "serve/gather"]
            assert len(ticks) == 2
            for ev in ticks:
                assert ev.attrs["frames"] == 3
                assert ev.attrs["union_rows"] > 0
                assert 0 <= ev.attrs["page_ins"] <= ev.attrs["shards_touched"]
            assert sum(ev.attrs["rows"] for ev in gathers) == sum(
                ev.attrs["union_rows"] for ev in ticks
            )
            ledger = service.store.ledger
            assert sum(ev.attrs["page_ins"] for ev in ticks) == ledger.page_in_count
            assert service.stats.page_ins == ledger.page_in_count > 0
            assert service.stats.shards_touched == service.store.shards_touched
            registry = metrics.get_registry()
            assert registry.gauge("serve/page_ins").value == ledger.page_in_count
            assert (
                registry.gauge("serve/union_rows").value
                == service.stats.union_rows
            )
            # the per-frame span keeps what it carried
            frames = [ev for ev in events if ev.name == "serve/frame"]
            assert len(frames) == 6
            assert all({"lod", "isects", "pruned_isects"} <= set(ev.attrs) for ev in frames)
        finally:
            service.close()

    def test_cull_span_and_stats_say_how_few_rows_were_projected(self):
        from repro.serve import requests_from_cameras
        from repro.telemetry import metrics

        service, cameras = self._paged_service()
        try:
            for _ in range(2):
                service.serve(requests_from_cameras(cameras))
            events = trace.get_tracer().events()
            culls = [ev for ev in events if ev.name == "serve/cull"]
            ticks = [ev for ev in events if ev.name == "serve/tick"]
            frames = [ev for ev in events if ev.name == "serve/frame"]
            assert len(culls) == len(ticks) == 2
            n = service.store.num_rows
            for cull, tick in zip(culls, ticks):
                assert cull.attrs["frames"] == 3
                assert cull.attrs["rows"] == 3 * n  # full detail: every row
                # the exact projection ran on the candidates only: every
                # visible row, far from every row
                assert (
                    0 < cull.attrs["visible"]
                    <= cull.attrs["candidates"]
                    < cull.attrs["rows"]
                )
                assert tick.attrs["cull_rows"] == cull.attrs["candidates"]
                assert tick.attrs["union_rows"] <= cull.attrs["visible"]
            assert len(frames) == 6
            stats = service.stats
            assert stats.cull_rows == service.store.rows_projected
            assert stats.cull_rows == sum(ev.attrs["candidates"] for ev in culls)
            assert (
                metrics.get_registry().gauge("serve/cull_rows").value
                == stats.cull_rows
            )
        finally:
            service.close()

    def test_counters_run_without_a_tracer(self):
        from repro.serve import requests_from_cameras

        service, cameras = self._paged_service(telemetry=False)
        try:
            service.serve(requests_from_cameras(cameras))
            assert not trace.enabled()
            stats = service.stats
            assert stats.union_rows > 0
            assert stats.union_rows <= stats.cull_rows < 3 * service.store.num_rows
            assert 0 < stats.page_ins <= stats.shards_touched
        finally:
            service.close()
