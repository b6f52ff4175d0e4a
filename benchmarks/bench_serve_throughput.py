"""Throughput benchmark of the render-serving subsystem.

``test_serve_throughput_matrix`` — a LOD x cache x placement matrix
written to ``benchmarks/out/BENCH_serve.json``, the serving-side perf
trajectory the CI ``perf-smoke`` job uploads (``GSSCALE_BENCH_QUICK=1``
shrinks it; no speedup asserted). Its paged multi-client row
  (four walkthrough clients answered per tick, float16 pages, half the
  model resident) is the one that moves when the serving round moves:
  it records page-ins per frame, shards touched per tick, the rows
  the frame culls projected per frame beside the rows visible and the
  rows each frame shaded, and gates on those exact counts (rows shaded
  <= distinct splats of the frame's pruned pair table <= rows visible,
  from the traced ``serve/frame`` spans), so the gate holds on any
  runner.
"""

import json
import os
import time

import numpy as np

from repro.cameras import trajectories
from repro.datasets.synthetic import SyntheticSceneConfig, generate_point_cloud
from repro.gaussians import GaussianModel, layout
from repro.render import frustum_cull
from repro.serve import (
    LODSet,
    PagedServingStore,
    RenderService,
    requests_from_cameras,
)
from repro.telemetry import trace

QUICK = os.environ.get("GSSCALE_BENCH_QUICK", "") not in ("", "0")


def serving_model(num_points: int) -> GaussianModel:
    """A serving-side model only (no ground-truth captures rendered)."""
    points, colors = generate_point_cloud(
        SyntheticSceneConfig(num_points=num_points, extent=10.0, seed=21)
    )
    return GaussianModel.from_point_cloud(
        points, colors, initial_opacity=0.6, scale_multiplier=1.2
    )


def client_trace(num_requests: int, resolution: int, lod: int = 0):
    """Distinct orbit poses (no dedupe, no cache reuse between them)."""
    cams = trajectories.orbit(
        np.zeros(3), radius=12.0, height=8.0, num_cameras=num_requests,
        width=resolution, height_px=resolution, fov_x_deg=70.0,
    )
    return requests_from_cameras(cams, lod=lod)


def walkthrough_clients(num_clients: int, ticks: int, resolution: int):
    """Per tick, one pose per client: each walks three quarters of its
    own ring through the site and sees ``far=5`` ahead — a frame draws
    on the shards around its client, and the working set moves."""
    sessions = []
    for client in range(num_clients):
        turn = (1.0 if client % 2 == 0 else -1.0) * 1.5 * np.pi
        angles = 2.1 * client + np.linspace(0.0, turn, 9)
        radius = 4.5 + client
        waypoints = np.column_stack([
            radius * np.cos(angles), radius * np.sin(angles), np.full(9, 2.0)
        ])
        sessions.append(trajectories.walkthrough(
            waypoints, ticks, width=resolution, height_px=resolution,
            fov_x_deg=70.0, look_ahead=1.5, far=5.0,
        ))
    return [requests_from_cameras(list(poses)) for poses in zip(*sessions)]


def measure_requests_per_s(service, requests, repeats: int = 1) -> float:
    best = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        responses = service.serve(list(requests))
        dt = time.perf_counter() - t0
        assert len(responses) == len(requests)
        best = max(best, len(requests) / dt)
    return best


def test_serve_throughput_matrix(benchmark):
    """LOD x cache x placement serving matrix -> BENCH_serve.json."""
    num_points = 2_000 if QUICK else 12_000
    resolution = 64 if QUICK else 128
    num_requests = 6 if QUICK else 12

    model = serving_model(num_points)
    lod_set = LODSet.build(model.params)

    def run_matrix():
        entries = []
        for lod in (0, 2):
            service = RenderService(model, lod_set=lod_set, cache_bytes=0)
            try:
                requests = client_trace(num_requests, resolution, lod=lod)
                rps = measure_requests_per_s(service, requests)
            finally:
                service.close()
            entries.append({
                "lod": lod,
                "keep_fraction": lod_set.levels[lod].keep_fraction,
                "requests": num_requests,
                "requests_per_s": rps,
            })
        # cached pass: the second identical trace is all hits
        service = RenderService(model, lod_set=lod_set)
        try:
            requests = client_trace(num_requests, resolution)
            service.serve(list(requests))
            rps = measure_requests_per_s(service, requests)
            assert service.stats.cache_hits == len(requests)
        finally:
            service.close()
        entries.append({
            "lod": 0,
            "keep_fraction": 1.0,
            "requests": num_requests,
            "requests_per_s": rps,
            "cached": True,
        })
        # paged tier ~10x past the host budget: same model served through
        # compressed pages under an enforced byte budget; the stall
        # fraction is the throughput give-up vs the in-memory serve above
        geo = layout.param_bytes(model.num_gaussians, layout.GEOMETRIC_DIM)
        nongeo = layout.param_bytes(
            model.num_gaussians, layout.NON_GEOMETRIC_DIM
        )
        paged_store = PagedServingStore.from_model(
            model, geo + nongeo // 10, num_shards=16, codec="float16"
        )
        service = RenderService(paged_store, lod_set=lod_set)
        try:
            requests = client_trace(num_requests, resolution)
            rps = measure_requests_per_s(service, requests)
            page_ins = paged_store.ledger.page_in_count
            peak = paged_store.host_memory.peak_bytes
            budget = paged_store.host_memory.capacity_bytes
        finally:
            service.close()
        assert page_ins > 0 and peak <= budget
        inmem = next(
            e for e in entries if not e.get("cached") and e["lod"] == 0
        )
        entries.append({
            "lod": 0,
            "keep_fraction": 1.0,
            "requests": num_requests,
            "paged": True,
            "codec": "float16",
            "budget_fraction": 0.1,
            "requests_per_s": rps,
            "page_stall_fraction": round(
                max(0.0, 1.0 - rps / inmem["requests_per_s"]), 4
            ),
        })
        # paged, several clients per tick, half the model resident: the
        # serving round proper. One gather per tick group for the union
        # of the clients' visible rows, so a shard is visited — and paged
        # in — at most once per group however many frames read it. The
        # gates are exact counts, not wall clock.
        num_shards, clients = 16, 4
        paged_store = PagedServingStore.from_model(
            model, geo + nongeo // 2, num_shards=num_shards, codec="float16"
        )
        service = RenderService(paged_store, lod_set=lod_set, cache_bytes=0)
        rounds = walkthrough_clients(clients, num_requests, resolution)
        try:
            stats = service.stats

            def counts():
                return np.array([
                    paged_store.page_ins, paged_store.shards_touched,
                    paged_store.rows_gathered,
                ])

            t0 = time.perf_counter()
            for requests in rounds:
                before = counts()
                responses = service.serve(requests)
                assert [r.status for r in responses] == ["ok"] * clients
                page_ins, touched, rows = counts() - before
                assert page_ins <= touched
                if rows <= paged_store.max_gather_rows:  # one group
                    assert touched <= num_shards
            dt = time.perf_counter() - t0
            assert paged_store.page_ins > 0
            assert paged_store.host_memory.peak_bytes <= (
                paged_store.host_memory.capacity_bytes
            )
            # what the frame culls projected against what a whole-model
            # exact cull of the same poses keeps: the bounding-radius
            # reject must let every visible row through and should stop
            # most of the model (far=5 walkthrough views see a corner)
            frames = stats.frames_rendered
            assert frames == clients * len(rounds)
            cull_rows = paged_store.rows_projected / frames
            visible_rows = sum(
                frustum_cull(*paged_store.geometry(), request.camera).num_visible
                for requests in rounds
                for request in requests
            ) / frames
            assert visible_rows <= cull_rows < model.num_gaussians
            # the page traffic of the pass above, before the traced pass
            # below re-serves the same rounds from a warm resident set
            page_ins_per_frame = paged_store.page_ins / frames
            touched_per_tick = paged_store.shards_touched / stats.ticks
            # what a frame shades, traced over the same rounds again: a
            # served render is forward only, so it reads the SH of no row
            # but the distinct splats of its pruned pair table, which are
            # among the rows it could composite
            trace.install()
            try:
                for requests in rounds:
                    service.serve(requests)
                spans = [
                    ev.attrs for ev in trace.get_tracer().events()
                    if ev.name == "serve/frame"
                ]
            finally:
                trace.uninstall()
            assert len(spans) == frames
            for span in spans:
                assert span["shaded"] <= span["splats"] <= span["visible"]
            shaded_rows = sum(span["shaded"] for span in spans) / frames
            assert shaded_rows > 0
        finally:
            service.close()
        entries.append({
            "lod": 0,
            "keep_fraction": 1.0,
            "requests": clients * len(rounds),
            "paged": True,
            "codec": "float16",
            "budget_fraction": 0.5,
            "clients_per_tick": clients,
            "requests_per_s": clients * len(rounds) / dt,
            "page_ins_per_frame": round(page_ins_per_frame, 4),
            "shards_touched_per_tick": round(touched_per_tick, 4),
            "cull_rows_per_frame": round(cull_rows, 4),
            "visible_rows_per_frame": round(visible_rows, 4),
            "shaded_rows_per_frame": round(shaded_rows, 4),
        })
        return entries

    entries = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    out_dir = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "quick": QUICK,
        "cpu_count": os.cpu_count(),
        "model_points": num_points,
        "resolution": f"{resolution}x{resolution}",
        "entries": entries,
    }
    with open(os.path.join(out_dir, "BENCH_serve.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
    assert entries and all(e["requests_per_s"] > 0 for e in entries)
    cached = [e for e in entries if e.get("cached")]
    uncached = [e for e in entries if not e.get("cached") and e["lod"] == 0]
    # a cache hit must beat rendering, whatever the hardware
    assert cached[0]["requests_per_s"] > uncached[0]["requests_per_s"]
