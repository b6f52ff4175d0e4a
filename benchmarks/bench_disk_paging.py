"""Disk-paging benchmarks of the deep out-of-core tier and the paged
serving tier.

Three parts, all feeding ``benchmarks/out/BENCH_disk.json`` (the
committed ``BENCH_disk.json`` baseline is the quick-mode run the CI
``perf-smoke`` job diffs against and uploads):

* ``test_codec_page_bandwidth`` — shard page-ins of a
  :class:`~repro.serve.store.PagedServingStore` per serving codec (a
  budget of one resident shard, every shard gathered in turn). The
  acceptance gate lives here: float16 pages must deliver >= 1.5x
  effective page-in bandwidth (decoded bytes per encoded byte actually
  read) over raw. Training pages are raw, so the codecs are serving's.
* ``test_disk_paging_matrix`` — short out-of-core training runs over
  the prefetch depths on an alternating-cluster schedule, recording
  staging hit-rates and the ledger's two-sided disk channel. Depth >= 2
  must reach a strictly higher staging hit-rate, and page in strictly
  fewer shards, than depth 1: its spill keep-set holds the next views'
  shards resident (the staging slot holds one view at every depth).
* ``test_tenx_budget_entry`` — the headline configuration: a model
  whose pageable state is ~10x the host budget training with depth-2
  prefetch, under the enforced byte budget. Some of its spills must be
  clean evictions (a shard that did not change since its page-in writes
  nothing).

Every training row reports the write side of the disk channel —
``page_out_count`` and its bytes beside ``clean_evictions`` — and must
write exactly the bytes it spills (``page_out_disk_bytes ==
page_out_bytes``: training pages are raw). Every training row also
reports, per view of its schedule, how many shards hold a visible
row (``active_shards``) and how many went through the exact cull
(``exact_shards``; the candidate bound cleared the rest), and each
view's active shards must be among its exact ones. These are counts, so
the gates hold on any machine.

``GSSCALE_BENCH_QUICK=1`` shrinks every axis for CI smoke runs.
"""

import json
import os
import time

import numpy as np

from repro.cameras import Camera
from repro.core import GSScaleConfig, Trainer
from repro.core.splitting import spatial_partition
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import GaussianModel, layout
from repro.render import render
from repro.serve import PagedServingStore

QUICK = os.environ.get("GSSCALE_BENCH_QUICK", "") not in ("", "0")

CLUSTER_CENTERS = np.array(
    [[-6.0, -6.0, 0.0], [6.0, -6.0, 0.0], [-6.0, 6.0, 0.0], [6.0, 6.0, 0.0]]
)


def clustered_fixture(per_cluster):
    """The alternating-cluster regime of the depth-D suites: each narrow
    camera culls to one spatial shard, so every step swaps shards."""
    rng = np.random.default_rng(3)
    means = np.concatenate(
        [c + rng.normal(scale=0.4, size=(per_cluster, 3))
         for c in CLUSTER_CENTERS]
    )
    n = means.shape[0]
    quats = np.zeros((n, 4))
    quats[:, 0] = 1.0
    model = GaussianModel.from_attributes(
        means, np.full((n, 3), np.log(0.05)), quats,
        rng.uniform(0.5, 1.5, size=n), rng.normal(size=(n, 16, 3)) * 0.2,
        dtype=np.float64,
    )
    cameras = [
        Camera.look_at(
            c + np.array([0.0, 0.0, 5.0]), c, up=(0.0, 1.0, 0.0),
            width=24, height=18, fov_x_deg=40.0,
        )
        for c in CLUSTER_CENTERS
    ]
    images = [render(model, cam).image for cam in cameras]
    return model, cameras, images


def _page_out_counts(ledger, clean_evictions):
    """The write side of the disk channel: spills that wrote their pages
    and the decoded / on-disk bytes they wrote, beside the spills of a
    clean store, which write nothing."""
    return {
        "page_out_count": ledger.page_out_count,
        "clean_evictions": clean_evictions,
        "page_out_bytes": ledger.page_out_bytes,
        "page_out_disk_bytes": ledger.page_out_disk_bytes,
    }


def _view_shards(system, cameras):
    """Per view, the number of shards holding a visible row and of shards
    whose exact cull ran (the candidate bound could not clear them), read
    off the store's cull after the run. Gates that every active shard
    went through the exact cull: the gate skips only shards with nothing
    to see."""
    active, exact = [], []
    for cam in cameras:
        cull = system.store.visible(cam)
        assert set(cull.active_shards) <= set(cull.exact_shards)
        active.append(len(cull.active_shards))
        exact.append(len(cull.exact_shards))
    return {"active_shards": active, "exact_shards": exact}


def _assert_raw_writes_its_bytes(entries):
    # a raw page is its array: what crossed the disk is what was spilled
    for e in entries:
        assert e["page_out_disk_bytes"] == e["page_out_bytes"] > 0


def _emit(entries):
    """Merge this test's entries into the shared BENCH_disk payload."""
    out_dir = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "BENCH_disk.json")
    payload = {"quick": QUICK, "cpu_count": os.cpu_count(), "entries": []}
    if os.path.exists(path):
        with open(path) as fh:
            previous = json.load(fh)
        if previous.get("quick") == QUICK:
            payload["entries"] = [
                e for e in previous["entries"]
                if e["bench"] not in {x["bench"] for x in entries}
            ]
    payload["entries"].extend(entries)
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)


def test_codec_page_bandwidth(benchmark):
    """Effective page-in bandwidth per serving codec: decoded bytes
    delivered per encoded byte read off disk, over repeated sweeps that
    page every shard in once."""
    rows = 4_000 if QUICK else 20_000
    num_shards = 4
    roundtrips = 4 if QUICK else 8
    rng = np.random.default_rng(17)
    model = GaussianModel(rng.normal(size=(rows, layout.PARAM_DIM)))
    # the geometry plus the largest shard page: every gather of another
    # shard's rows evicts the resident page and pages its own in
    worst = max(
        r.size for r in spatial_partition(model.means, num_shards)
    )
    budget = layout.param_bytes(rows, layout.GEOMETRIC_DIM) + layout.param_bytes(
        worst, layout.NON_GEOMETRIC_DIM
    )

    def run(tmp_root):
        entries = []
        for codec in ("raw", "float16"):
            store = PagedServingStore.from_model(
                model, budget, num_shards=num_shards, codec=codec,
                page_dir=os.path.join(tmp_root, f"bw_{codec}"),
            )
            try:
                assert store.resident_budget == 1
                t0 = time.perf_counter()
                for _ in range(roundtrips):
                    for shard_rows in store.shard_rows:
                        store.gather(shard_rows)
                elapsed = time.perf_counter() - t0
                ledger = store.ledger
            finally:
                store.close()
            entries.append({
                "bench": "codec",
                "codec": codec,
                "rows": rows,
                "num_shards": num_shards,
                "roundtrips": roundtrips,
                "bandwidth_multiplier": round(
                    ledger.page_in_bytes / ledger.page_in_disk_bytes, 4
                ),
                "page_in_count": ledger.page_in_count,
                "page_in_bytes": ledger.page_in_bytes,
                "page_in_disk_bytes": ledger.page_in_disk_bytes,
                "roundtrip_s": elapsed / roundtrips,
            })
        return entries

    import tempfile

    with tempfile.TemporaryDirectory(prefix="gsscale-bench-") as tmp_root:
        entries = benchmark.pedantic(
            run, args=(tmp_root,), rounds=1, iterations=1
        )
    by_codec = {e["codec"]: e for e in entries}
    for e in entries:  # every sweep pages every shard in
        assert e["page_in_count"] == roundtrips * num_shards
    assert by_codec["raw"]["bandwidth_multiplier"] == 1.0
    # the acceptance gate: compressed pages >= 1.5x effective bandwidth
    assert by_codec["float16"]["bandwidth_multiplier"] >= 1.5
    _emit(entries)


def test_disk_paging_matrix(benchmark):
    """Training runs over the prefetch depths."""
    per_cluster = 40 if QUICK else 60
    steps = 8 if QUICK else 12
    depths = (1, 2) if QUICK else (1, 2, 3)
    model, cameras, images = clustered_fixture(per_cluster)

    def run_matrix():
        entries = []
        for depth in depths:
            cfg = GSScaleConfig(
                system="outofcore", num_shards=4, resident_shards=2,
                scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0,
                seed=0, async_prefetch=True, prefetch_depth=depth,
            )
            t = Trainer(model.copy(), cfg)
            t0 = time.perf_counter()
            # alternate two clusters: the depth-1 structural miss
            t.train(cameras[:2], images[:2], steps)
            step_s = (time.perf_counter() - t0) / steps
            s = t.system
            attempts = max(s.prefetch_hits + s.prefetch_misses, 1)
            ledger = s.ledger
            entries.append({
                "bench": "matrix",
                "prefetch_depth": depth,
                "steps": steps,
                "staging_hit_rate": round(s.prefetch_hits / attempts, 4),
                "page_in_count": ledger.page_in_count,
                **_page_out_counts(ledger, s.clean_evictions),
                "step_s": step_s,
                **_view_shards(s, cameras[:2]),
            })
        return entries

    entries = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    shallow, deep = entries[0], entries[-1]
    # the acceptance gates: a deeper lookahead (the spill keep-set)
    # strictly wins the hit-rate and pages in less
    assert deep["staging_hit_rate"] > shallow["staging_hit_rate"]
    assert deep["page_in_count"] < shallow["page_in_count"]
    _assert_raw_writes_its_bytes(entries)
    _emit(entries)


def test_tenx_budget_entry(benchmark):
    """Depth-2 prefetch, ~10x past the host budget."""
    scene = build_scene(
        SyntheticSceneConfig(
            num_points=260 if QUICK else 400,
            width=36, height=28, num_train_cameras=6, num_test_cameras=1,
            altitude=12.0, seed=11,
        )
    )
    steps = 10 if QUICK else 14

    def run():
        cfg = GSScaleConfig(
            system="outofcore", num_shards=10, resident_shards=1,
            scene_extent=scene.extent, ssim_lambda=0.0, mem_limit=1.0,
            seed=0, async_prefetch=True, prefetch_depth=2,
        )
        t = Trainer(scene.initial.copy(), cfg)
        t0 = time.perf_counter()
        t.train(
            scene.train_cameras, scene.train_images, steps,
            view_order="locality",
        )
        step_s = (time.perf_counter() - t0) / steps
        s = t.system
        pageable = sum(
            3 * layout.param_bytes(r.size, layout.NON_GEOMETRIC_DIM)
            for r in s.shard_rows
        )
        return {
            "bench": "tenx",
            "prefetch_depth": 2,
            "num_shards": 10,
            "steps": steps,
            "pageable_over_host_peak": round(
                pageable / s.host_memory.peak_bytes, 2
            ),
            **_page_out_counts(s.ledger, s.clean_evictions),
            "staging_hit_rate": round(
                s.prefetch_hits
                / max(s.prefetch_hits + s.prefetch_misses, 1), 4
            ),
            "step_s": step_s,
            **_view_shards(s, scene.train_cameras),
        }

    entry = benchmark.pedantic(run, rounds=1, iterations=1)
    # the deep tier's whole point: far past the budget, still training
    assert entry["pageable_over_host_peak"] >= 6.0
    # a shard whose state did not change since its page-in spills for free
    assert entry["clean_evictions"] > 0
    _assert_raw_writes_its_bytes([entry])
    _emit([entry])
