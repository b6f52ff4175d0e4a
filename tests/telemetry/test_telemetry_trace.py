"""Tracer unit tests: span recording, nesting, threads, remap, no-op mode."""

import sys
import threading
import time

import numpy as np
import pytest

from repro.core.config import SYSTEM_NAMES
from repro.telemetry import trace
from repro.telemetry.trace import SpanEvent, Tracer, _NULL_SPAN


def _render_frame_task(args):
    """Pool task: one served frame of ``(store, task)``."""
    from repro.serve import render_frame

    store, task = args
    return render_frame(store, None, task)


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
        ("pool/frame_task", "pool", 0.000, 0.010, None),
        ("serve/frame", "serve", 0.002, 0.004, {"lod": 1, "isects": 7}),
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
        assert inner.attrs == {"lod": 1, "isects": 7}

    def test_traced_task_ships_spans_with_result(self):
        result, shipped = trace.traced_task((_double_with_span, 21))
        assert result == 42
        names = [name for name, _cat, _start, _dur, _attrs in shipped]
        assert names == ["inner/work", "pool/double_with_span"]
        for _name, _cat, start, dur, _attrs in shipped:
            assert start >= 0.0 and dur >= 0.0
        # attributes set inside the worker ride home with the span
        assert shipped[0][4] == {"x": 21}
        # the worker-local tracer never leaks into this process
        assert trace.get_tracer() is None

    def test_spans_without_attrs_ship_none(self):
        _result, shipped = trace.traced_task((_bare_span, 3))
        assert [(name, attrs) for name, _c, _s, _d, attrs in shipped] == [
            ("inner/bare", None),
            ("pool/bare_span", None),
        ]

    @pytest.mark.parametrize("processes", [1, 2])
    def test_pool_map_replays_worker_attrs(self, processes):
        from repro.pool import PersistentPool

        tracer = trace.install()
        with PersistentPool(processes) as pool:
            assert pool.map(_double_with_span, [1, 2, 3]) == [2, 4, 6]
        inner = [ev for ev in tracer.events() if ev.name == "inner/work"]
        assert sorted(ev.attrs["x"] for ev in inner) == [1, 2, 3]
        lanes = {f"pool-worker-{k}" for k in range(processes)}
        assert {ev.tid for ev in inner} <= lanes


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
    def _system(telemetry, engine="vectorized", system="gsscale"):
        from repro.core import GSScaleConfig, create_system
        from repro.datasets import SyntheticSceneConfig, build_scene

        scene = build_scene(
            SyntheticSceneConfig(
                num_points=220, width=36, height=28, num_train_cameras=2,
                num_test_cameras=1, altitude=12.0, seed=7,
            )
        )
        if telemetry:
            trace.install()
        system = create_system(
            scene.initial.copy(),
            GSScaleConfig(
                system=system, engine=engine,
                scene_extent=scene.extent, mem_limit=1.0,
            ),
        )
        return system, scene

    def test_forward_span_reports_the_saved_state(self):
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

    @pytest.mark.parametrize("name", SYSTEM_NAMES)
    def test_every_system_reports_the_saved_state(self, name):
        """The forward span is the one record of the saved pair table,
        whichever placement steps the view."""
        system, scene = self._system(telemetry=True, system=name)
        try:
            for cam, img in zip(scene.train_cameras, scene.train_images):
                system.step(cam, img)
        finally:
            system.finalize()
        forwards = [
            ev for ev in trace.get_tracer().events()
            if ev.name == "train/forward"
        ]
        assert len(forwards) >= 2  # a split view forwards per region
        for ev in forwards:
            assert ev.attrs["isects"] > 0 and ev.attrs["pairs"] > 0
            assert ev.attrs["saved_bytes"] >= 32 * ev.attrs["pairs"]

    def test_nothing_recorded_when_off(self, monkeypatch):
        monkeypatch.setattr(trace, "record_isects", _untraced)
        system, scene = self._system(telemetry=False)
        system.step(scene.train_cameras[0], scene.train_images[0])
        assert trace.get_tracer() is None


class TestPageSpans:
    """Each synchronous page-in and each written page-out is one span:
    the trace accounts for the ledger's page counts."""

    @staticmethod
    def _outofcore(resident_shards):
        from repro.core import GSScaleConfig, create_system
        from repro.datasets import SyntheticSceneConfig, build_scene

        scene = build_scene(
            SyntheticSceneConfig(
                num_points=240, width=32, height=24, num_train_cameras=4,
                num_test_cameras=1, altitude=9.0, seed=3,
            )
        )
        trace.install()
        system = create_system(
            scene.initial.copy(),
            GSScaleConfig(
                system="outofcore", num_shards=4,
                resident_shards=resident_shards, async_prefetch=False,
                scene_extent=scene.extent, mem_limit=1.0, seed=0,
            ),
        )
        return system, scene

    def test_outofcore_page_spans_match_the_ledger(self):
        system, scene = self._outofcore(resident_shards=2)
        try:
            for _ in range(2):
                for cam, img in zip(scene.train_cameras, scene.train_images):
                    system.step(cam, img)
            events = trace.get_tracer().events()
            ledger = system.ledger
            page_ins = [ev for ev in events if ev.name == "page/in"]
            page_outs = [ev for ev in events if ev.name == "page/out"]
            assert len(page_ins) == ledger.page_in_count > 0
            assert len(page_outs) == ledger.page_out_count > 0
        finally:
            system.finalize()

    @pytest.mark.parametrize("resident_shards", [1, 2, 3])
    def test_page_span_bytes_match_the_ledger(self, resident_shards):
        """At every residency budget each page span carries the bytes its
        ledger record booked."""
        system, scene = self._outofcore(resident_shards)
        try:
            for cam, img in zip(scene.train_cameras, scene.train_images):
                system.step(cam, img)
            events = trace.get_tracer().events()
            ledger = system.ledger
            page_ins = [ev for ev in events if ev.name == "page/in"]
            page_outs = [ev for ev in events if ev.name == "page/out"]
            assert len(page_ins) == ledger.page_in_count > 0
            assert len(page_outs) == ledger.page_out_count
            assert sum(ev.attrs["bytes"] for ev in page_ins) == ledger.page_in_bytes
            assert (
                sum(ev.attrs["bytes"] for ev in page_outs)
                == ledger.page_out_bytes
            )
        finally:
            system.finalize()


def _untraced(*_args):
    raise AssertionError("table counts recorded on an untraced run")


def _double_with_span(x):
    with trace.span("inner/work", "app") as sp:
        sp.set(x=x)
        return 2 * x


def _bare_span(x):
    with trace.span("inner/bare", "app"):
        return x


class TestIsectTelemetry:
    """How many tile intersections a view had, and how many the occlusion
    prune dropped, ride on the forward-pass spans."""

    def test_train_forward_spans_carry_the_counts(self):
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

    @staticmethod
    def _opaque_scene(num_frames):
        """``(model, cameras)`` of a scene whose splats were made wide and
        opaque."""
        from repro.datasets import SyntheticSceneConfig, build_scene

        scene = build_scene(
            SyntheticSceneConfig(
                num_points=400, width=32, height=32,
                num_train_cameras=num_frames, num_test_cameras=1,
                altitude=12.0, seed=7,
            )
        )
        model = scene.oracle.copy()
        model.log_scales[:] += np.log(12.0)
        model.opacity_logits[:] = 8.0
        return model, scene.train_cameras

    @classmethod
    def _serve_opaque_scene(cls):
        """One tick of the opaque scene's two views."""
        from repro.serve import RenderService, requests_from_cameras

        model, cameras = cls._opaque_scene(2)
        service = RenderService(model, cache_bytes=0)
        try:
            for request in requests_from_cameras(cameras):
                service.submit(request)
            return service.tick()
        finally:
            service.close()

    def test_serve_frame_spans_report_the_prune(self):
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

    def test_pool_worker_frame_spans_keep_their_attributes(self):
        """A pool worker's ``serve/frame`` spans ship home with what they
        carried: mapped over a :class:`~repro.pool.PersistentPool`, each
        frame lands on a ``pool-worker-*`` lane with the attributes the
        same frame records in process."""
        from repro.pool import PersistentPool
        from repro.serve import (
            FrameTask,
            InMemoryServingStore,
            default_serve_raster_config,
            render_frame,
        )

        model, cameras = self._opaque_scene(4)
        store = InMemoryServingStore.from_model(model)
        config = default_serve_raster_config()
        tasks = [
            FrameTask(camera=cam, lod=0, sh_degree=3, config=config)
            for cam in cameras
        ]
        tracer = trace.install()
        inline = [render_frame(store, None, task) for task in tasks]
        inline_frames = [ev for ev in tracer.events() if ev.name == "serve/frame"]
        trace.uninstall()
        tracer = trace.install()
        workers = PersistentPool(2)
        try:
            pooled = workers.map(
                _render_frame_task, [(store, task) for task in tasks]
            )
        finally:
            workers.close()
        pooled_frames = [ev for ev in tracer.events() if ev.name == "serve/frame"]
        trace.uninstall()
        for a, b in zip(inline, pooled, strict=True):
            assert a.tobytes() == b.tobytes()
        assert len(pooled_frames) == 4
        assert all(str(ev.tid).startswith("pool-worker-") for ev in pooled_frames)

        def multiset(frames):
            return sorted(tuple(sorted(ev.attrs.items())) for ev in frames)

        assert multiset(pooled_frames) == multiset(inline_frames)
        assert sum(ev.attrs["pruned_isects"] for ev in pooled_frames) > 0

    def test_patch_job_forward_spans_keep_their_attributes(self, tmp_path):
        """A patch job's ``train/forward`` spans ship home from its pool
        worker with the attributes the same job records in process."""
        from repro.core import GSScaleConfig
        from repro.datasets import SyntheticSceneConfig, build_scene
        from repro.recon import run_patch_job, train_patches
        from repro.recon.jobs import build_specs
        from repro.recon.partition import partition_scene

        scene = build_scene(
            SyntheticSceneConfig(
                num_points=160, width=32, height=24, num_train_cameras=4,
                num_test_cameras=1, seed=3,
            )
        )
        patches = partition_scene(scene.initial, scene.train_cameras, 2)
        args = (
            patches, scene.initial, scene.train_cameras, scene.train_images,
            GSScaleConfig(system="gpu_only"), 2,
        )
        forwards = {}
        for farmed in (False, True):
            workdir = tmp_path / ("farmed" if farmed else "inline")
            workdir.mkdir()
            tracer = trace.install()
            if farmed:
                report = train_patches(*args, str(workdir), jobs=2)
                assert report.all_done
            else:
                for spec in build_specs(*args, str(workdir)):
                    assert run_patch_job(spec).ok
            forwards[farmed] = [
                ev for ev in tracer.events() if ev.name == "train/forward"
            ]
            trace.uninstall()
        inline, farmed = forwards[False], forwards[True]
        assert inline and all(
            str(ev.tid).startswith("pool-worker-") for ev in farmed
        )

        def multiset(spans):
            return sorted(tuple(sorted(ev.attrs.items())) for ev in spans)

        assert multiset(farmed) == multiset(inline)
        assert all(ev.attrs["saved_bytes"] > 0 for ev in farmed)

    def test_nothing_recorded_when_off(self, monkeypatch):
        monkeypatch.setattr(trace, "record_isects", _untraced)
        responses = self._serve_opaque_scene()
        assert [r.status for r in responses] == ["ok", "ok"]
        assert trace.get_tracer() is None


class TestServeTickTelemetry:
    """One trace says why a tick was slow: the phase spans that did the
    tick's work carry what it projected, gathered and paged, and they
    agree with the store's running counters, the one running record."""

    @staticmethod
    def _paged_service(telemetry=True, codec="float16"):
        from repro.datasets import SyntheticSceneConfig, build_scene
        from repro.gaussians import layout
        from repro.serve import PagedServingStore, RenderService

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
            scene.oracle, budget, num_shards=4, codec=codec
        )
        if telemetry:
            trace.install()
        return RenderService(store, cache_bytes=0), scene.train_cameras

    @staticmethod
    def _store_counts(store):
        return np.array([
            store.rows_projected, store.rows_gathered,
            store.shards_touched, store.page_ins,
        ])

    def test_tick_phase_spans_carry_rows_and_page_ins(self):
        """Per tick, the ``serve/gather`` rows and the ``serve/page_in``
        spans are what the store counted over that tick; ``serve/tick``
        carries the frame count and nothing else."""
        from repro.serve import requests_from_cameras

        service, cameras = self._paged_service()
        store, tracer = service.store, trace.get_tracer()
        try:
            for _ in range(2):
                tracer.clear()
                before = self._store_counts(store)
                service.serve(requests_from_cameras(cameras))
                _, rows, touched, page_ins = self._store_counts(store) - before
                events = tracer.events()
                (tick,) = [ev for ev in events if ev.name == "serve/tick"]
                assert tick.attrs == {"frames": 3}
                gathers = [ev for ev in events if ev.name == "serve/gather"]
                assert sum(ev.attrs["rows"] for ev in gathers) == rows > 0
                assert 0 <= page_ins <= touched
                # one page span per page-in the store ledger counted
                assert page_ins == sum(
                    ev.name == "serve/page_in" for ev in events
                )
                # the per-frame span keeps what it carried
                frames = [ev for ev in events if ev.name == "serve/frame"]
                assert len(frames) == 3
                assert all(
                    {"lod", "isects", "pruned_isects"} <= set(ev.attrs)
                    for ev in frames
                )
            assert store.page_ins == store.ledger.page_in_count > 0
        finally:
            service.close()

    def test_cull_span_says_how_few_rows_were_projected(self):
        from repro.serve import requests_from_cameras

        service, cameras = self._paged_service()
        store, tracer = service.store, trace.get_tracer()
        n = store.num_rows
        try:
            for _ in range(2):
                tracer.clear()
                before = self._store_counts(store)
                service.serve(requests_from_cameras(cameras))
                projected, rows, _, _ = self._store_counts(store) - before
                (cull,) = [
                    ev for ev in tracer.events() if ev.name == "serve/cull"
                ]
                assert cull.attrs["frames"] == 3
                assert cull.attrs["rows"] == 3 * n  # full detail: every row
                # the exact projection ran on the candidates only: every
                # visible row, far from every row
                assert (
                    0 < cull.attrs["visible"]
                    <= cull.attrs["candidates"]
                    < cull.attrs["rows"]
                )
                assert cull.attrs["candidates"] == projected
                assert rows <= cull.attrs["visible"]
        finally:
            service.close()

    def test_request_spans_carry_each_response_latency(self):
        from repro.serve import requests_from_cameras

        service, cameras = self._paged_service()
        try:
            responses = []
            for _ in range(2):
                responses += service.serve(requests_from_cameras(cameras))
            requests = [
                ev for ev in trace.get_tracer().events()
                if ev.name == "serve/request"
            ]
            assert len(requests) == len(responses) == 6
            for resp, ev in zip(responses, requests):
                assert ev.attrs["latency_s"] == resp.latency_s
                assert ev.attrs["status"] == resp.status
        finally:
            service.close()

    @pytest.mark.parametrize("codec", ["raw", "float16"])
    def test_serve_page_spans_match_the_ledger(self, codec):
        """One ``serve/page_in`` span per page-in the store ledger
        counted, whatever the page codec."""
        from repro.serve import requests_from_cameras

        service, cameras = self._paged_service(codec=codec)
        try:
            for _ in range(3):
                service.serve(requests_from_cameras(cameras))
            page_ins = [
                ev for ev in trace.get_tracer().events()
                if ev.name == "serve/page_in"
            ]
            assert len(page_ins) == service.store.ledger.page_in_count > 0
        finally:
            service.close()

    @staticmethod
    def _in_memory_session(case, rounds=2):
        """``rounds`` ticks of the same requests through a traced
        in-memory service set up to answer them the way ``case`` names;
        ``(responses, stats)``."""
        from repro.datasets import SyntheticSceneConfig, build_scene
        from repro.serve import RenderService, ServeConfig, requests_from_cameras

        scene = build_scene(
            SyntheticSceneConfig(
                num_points=240, width=32, height=24, num_train_cameras=3,
                num_test_cameras=1, altitude=12.0, seed=5,
            )
        )
        knobs = {
            "inline": {"cache_bytes": 0},
            "cache_hits": {},
            "overload": {"cache_bytes": 0, "max_frames_per_tick": 1},
            "deadline": {"cache_bytes": 0, "deadline_s": 1e-9},
        }[case]
        serve_config = ServeConfig(
            max_frames_per_tick=knobs.pop("max_frames_per_tick", None),
            deadline_s=knobs.pop("deadline_s", None),
        )
        trace.install()
        service = RenderService(
            scene.oracle.copy(), serve_config=serve_config, **knobs
        )
        try:
            responses = []
            for _ in range(rounds):
                for request in requests_from_cameras(scene.train_cameras):
                    service.submit(request)
                if case == "deadline":
                    time.sleep(0.01)
                responses += service.tick()
            return responses, service.stats
        finally:
            service.close()

    @pytest.mark.parametrize(
        "case, statuses",
        [
            ("inline", {"ok"}),
            ("cache_hits", {"ok"}),
            ("overload", {"ok", "rejected"}),
            ("deadline", {"rejected"}),
        ],
    )
    def test_every_response_has_its_request_span(self, case, statuses):
        """Whatever answered a request — a render, the cache, or
        a rejection — its ``serve/request`` span carries its latency, and
        the reason of a response that has one."""
        responses, _ = self._in_memory_session(case)
        requests = [
            ev for ev in trace.get_tracer().events()
            if ev.name == "serve/request"
        ]
        assert len(requests) == len(responses) == 6
        assert {r.status for r in responses} == statuses
        for resp, ev in zip(responses, requests):
            assert ev.attrs["latency_s"] == resp.latency_s
            assert ev.attrs["status"] == resp.status
            assert ev.attrs["lod"] == resp.lod
            assert ev.attrs.get("reason", "") == resp.reason
        if case in ("overload", "deadline"):
            rejected = [ev for ev in requests if ev.attrs["status"] == "rejected"]
            assert rejected
            for ev in rejected:
                assert ev.attrs["reason"] == case
        if case == "cache_hits":
            assert [r.cache_hit for r in responses] == [False] * 3 + [True] * 3

    def test_counters_run_without_a_tracer(self):
        from repro.serve import requests_from_cameras

        service, cameras = self._paged_service(telemetry=False)
        store = service.store
        try:
            service.serve(requests_from_cameras(cameras))
            assert not trace.enabled()
            assert store.rows_gathered > 0
            assert store.rows_gathered <= store.rows_projected < 3 * store.num_rows
            assert 0 < store.page_ins <= store.shards_touched
        finally:
            service.close()
