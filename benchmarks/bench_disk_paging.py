"""Disk-paging benchmarks of the deep out-of-core tier.

Three parts, all feeding ``benchmarks/out/BENCH_disk.json`` (the
committed ``BENCH_disk.json`` baseline is the quick-mode run the CI
``perf-smoke`` job diffs against and uploads):

* ``test_codec_page_bandwidth`` — spill/page-in roundtrips of a
  standalone :class:`~repro.core.stores.DiskStore` per codec. The
  acceptance gate lives here: the float16 codec must deliver >= 1.5x
  effective page-in bandwidth (decoded bytes per encoded byte actually
  read) over raw.
* ``test_disk_paging_matrix`` — short out-of-core training runs over the
  codec x prefetch-depth x write-behind grid on an alternating-cluster
  schedule, recording staging hit-rates, synchronous-spill bytes, and
  the ledger's two-sided disk channel. Depth >= 2 must reach a strictly
  higher staging hit-rate than the depth-1 double buffer, and
  write-behind must hold admit-path synchronous spill bytes at zero.
* ``test_tenx_budget_entry`` — the headline configuration: a model
  whose pageable state is ~10x the host budget training with all three
  axes on at once, under the enforced byte budget. Some of its spills
  must be clean evictions (a shard that did not change since its
  page-in writes nothing).

Every row reports the write side of the disk channel — ``page_out_count``
and its bytes beside ``clean_evictions`` — and every ``raw`` row must
write exactly the bytes it spills (``page_out_disk_bytes ==
page_out_bytes``). Every training row (the matrix and the ~10x entry)
also reports, per view of its schedule, how many shards hold a visible
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
from repro.core.stores import DiskStore
from repro.core.systems import TransferLedger
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import GaussianModel, layout
from repro.optim.base import AdamConfig
from repro.render import render
from repro.sim.memory import MemoryTracker

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
        if e["codec"] == "raw":
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
    """Effective page-in bandwidth per codec: decoded bytes delivered per
    encoded byte read off disk, over repeated spill/page-in roundtrips."""
    rows = 4_000 if QUICK else 20_000
    roundtrips = 4 if QUICK else 8
    rng = np.random.default_rng(17)
    # Adam-moment-shaped pages: smooth parameters, near-zero moments
    params = rng.normal(size=(rows, layout.PARAM_DIM))

    def run(tmp_root):
        entries = []
        for codec in ("raw", "float16", "lossless"):
            store = DiskStore(
                params.copy(), layout.ALL_BLOCK, AdamConfig(lr=5e-3),
                MemoryTracker(), TransferLedger(),
                spill_path=os.path.join(tmp_root, f"bw_{codec}"),
                codec=codec,
            )
            # a little training math so the moment pages are realistic
            ids = np.arange(rows)
            store.stage(ids)
            store.unstage(ids)
            store.commit()
            store.return_grads(ids, rng.normal(size=params.shape) * 1e-3)
            t0 = time.perf_counter()
            for _ in range(roundtrips):
                store.spill()
                store.page_in()
            elapsed = time.perf_counter() - t0
            ledger = store.ledger
            multiplier = ledger.page_in_bytes / ledger.page_in_disk_bytes
            entries.append({
                "bench": "codec",
                "codec": codec,
                "rows": rows,
                "roundtrips": roundtrips,
                "bandwidth_multiplier": round(multiplier, 4),
                **_page_out_counts(ledger, store.clean_evictions),
                "page_in_s": store.page_in_s,
                "sync_spill_s": store.sync_spill_s,
                "roundtrip_s": elapsed / roundtrips,
            })
        return entries

    import tempfile

    with tempfile.TemporaryDirectory(prefix="gsscale-bench-") as tmp_root:
        entries = benchmark.pedantic(
            run, args=(tmp_root,), rounds=1, iterations=1
        )
    by_codec = {e["codec"]: e for e in entries}
    assert by_codec["raw"]["bandwidth_multiplier"] == 1.0
    # the PR acceptance gate: compressed pages >= 1.5x effective bandwidth
    assert by_codec["float16"]["bandwidth_multiplier"] >= 1.5
    assert by_codec["lossless"]["bandwidth_multiplier"] > 0
    _assert_raw_writes_its_bytes(entries)
    _emit(entries)


def test_disk_paging_matrix(benchmark):
    """codec x prefetch-depth x write-behind training grid."""
    per_cluster = 40 if QUICK else 60
    steps = 8 if QUICK else 12
    codecs = ("raw", "float16") if QUICK else ("raw", "float16", "lossless")
    depths = (1, 2) if QUICK else (1, 2, 3)
    model, cameras, images = clustered_fixture(per_cluster)

    def run_matrix():
        entries = []
        for codec in codecs:
            for depth in depths:
                for write_behind in (False, True):
                    cfg = GSScaleConfig(
                        system="outofcore", num_shards=4, resident_shards=2,
                        scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0,
                        seed=0, async_prefetch=True, prefetch_depth=depth,
                        write_behind=write_behind, page_codec=codec,
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
                        "codec": codec,
                        "prefetch_depth": depth,
                        "write_behind": write_behind,
                        "steps": steps,
                        "staging_hit_rate": round(
                            s.prefetch_hits / attempts, 4
                        ),
                        "page_in_count": ledger.page_in_count,
                        **_page_out_counts(ledger, s.clean_evictions),
                        "sync_spill_bytes": s.sync_spill_bytes,
                        "write_behind_jobs": s.write_behind_jobs,
                        "disk_read_ratio": round(
                            ledger.page_in_bytes
                            / max(ledger.page_in_disk_bytes, 1), 4
                        ),
                        "step_s": step_s,
                        "sync_spill_s": s.sync_spill_seconds,
                        **_view_shards(s, cameras[:2]),
                    })
        return entries

    entries = benchmark.pedantic(run_matrix, rounds=1, iterations=1)

    def cell(codec, depth, wb):
        return next(
            e for e in entries
            if e["codec"] == codec and e["prefetch_depth"] == depth
            and e["write_behind"] is wb
        )

    for codec in codecs:
        for wb in (False, True):
            shallow, deep = cell(codec, 1, wb), cell(codec, depths[-1], wb)
            # the acceptance gates: a deeper staging queue strictly wins
            # the hit-rate, and write-behind zeroes the admit path
            assert deep["staging_hit_rate"] > shallow["staging_hit_rate"]
            assert deep["page_in_count"] < shallow["page_in_count"]
        for depth in depths:
            sync, behind = cell(codec, depth, False), cell(codec, depth, True)
            assert behind["sync_spill_bytes"] == 0
            assert behind["sync_spill_bytes"] < sync["sync_spill_bytes"]
            assert behind["write_behind_jobs"] > 0
    for e in entries:
        if e["codec"] == "float16":
            assert e["disk_read_ratio"] >= 1.5
    _assert_raw_writes_its_bytes(entries)
    _emit(entries)


def test_tenx_budget_entry(benchmark):
    """Everything on at once, ~10x past the host budget."""
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
            write_behind=True, page_codec="float16",
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
            "codec": "float16",
            "prefetch_depth": 2,
            "write_behind": True,
            "num_shards": 10,
            "steps": steps,
            "pageable_over_host_peak": round(
                pageable / s.host_memory.peak_bytes, 2
            ),
            **_page_out_counts(s.ledger, s.clean_evictions),
            "sync_spill_bytes": s.sync_spill_bytes,
            "staging_hit_rate": round(
                s.prefetch_hits
                / max(s.prefetch_hits + s.prefetch_misses, 1), 4
            ),
            "step_s": step_s,
            **_view_shards(s, scene.train_cameras),
        }

    entry = benchmark.pedantic(run, rounds=1, iterations=1)
    # the deep tier's whole point: far past the budget, no admit-path
    # spill stall, still training
    assert entry["pageable_over_host_peak"] >= 6.0
    assert entry["sync_spill_bytes"] == 0
    # a shard whose state did not change since its page-in spills for free
    assert entry["clean_evictions"] > 0
    _emit([entry])
