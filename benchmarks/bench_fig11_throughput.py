"""Reproduces Figure 11: training throughput of the four systems across
six scenes (plus Small variants) on laptop and desktop, normalized to
baseline GS-Scale, with OOM markers.

Paper headline numbers: GS-Scale all-optimizations achieves geomean 4.47x
(laptop) / 4.57x (desktop) over baseline, and 1.22x / 0.84x of GPU-only
throughput (excluding OOM cases)."""

import dataclasses

from repro.bench import Table, write_report
from repro.datasets import all_scenes, synthesize_trace
from repro.sim import SYSTEMS, geomean, get_platform, simulate_epoch

PLATFORM_KEYS = ("laptop_4070m", "desktop_4080s")

#: Per-platform full-scale Gaussian budget. The paper scales each scene up
#: to the platform's feasible maximum by adjusting densification settings
#: (Section 5.1, "following the Grendel methodology"); the laptop maxes out
#: around 16-18M under GS-Scale (Section 5.6). Aerial is exempt — its
#: initial point cloud is already too large to downsize (Section 5.3).
PLATFORM_FULL_CAP = {"laptop_4070m": 12_500_000, "desktop_4080s": None}


def _full_spec(spec, platform_key):
    cap = PLATFORM_FULL_CAP[platform_key]
    if cap is None or spec.name == "Aerial" or spec.total_gaussians <= cap:
        return spec
    return dataclasses.replace(spec, total_gaussians=cap)


def run_platform(platform_key: str):
    plat = get_platform(platform_key)
    t = Table(
        title=f"Figure 11 — Normalized Training Throughput ({plat.gpu.name})",
        columns=["Scene", "Baseline", "w/o Deferred", "GS-Scale (all)",
                 "GPU-Only", "Sharded (K=4)", "OoC (K=4,R=1)", "OoC async"],
        notes=["Throughput normalized to baseline GS-Scale; 'OOM' marks "
               "configurations that exceed GPU *or host* memory, '-' rows "
               "where only the baseline OOMs (no normalizer).",
               "Full-scale configs use each platform's feasible maximum "
               "(the paper scales scenes per platform via densification "
               "settings); Aerial cannot be downsized.",
               "Sharded = Gaussian-sharded GS-Scale across 4 devices "
               "joined by a modelled fragment-compositing merge (per-shard "
               "renders ship compact fragment records instead of a "
               "Grendel-style all-gather; per-device memory in Figure 12).",
               "OoC = out-of-core sharded: only 1 of 4 shards' host state "
               "resident, the rest paged through disk — trades throughput "
               "for a ~4x lower host-DRAM floor.",
               "OoC async = same placement with the async prefetch leg: "
               "next-view page-ins overlap compute under view-locality "
               "ordering, so only the residual past the slowest leg "
               "stalls (one extra shard of host staging buffer)."],
    )
    stats = {"gs_vs_gpu": [], "speedup_full": [], "speedup_wo": [],
             "sharded_vs_gs": [], "ooc_slowdown": [],
             "ooc_trains": [], "sharded_trains": [],
             "async_speedup": [], "stall_sync": [], "stall_async": [],
             "composite_share": []}
    variants = []
    for spec in all_scenes():
        if spec.small_total_gaussians is not None:
            variants.append((f"{spec.name}-Small", spec, True))
        variants.append((spec.name, _full_spec(spec, platform_key), False))
    for label, spec, small in variants:
        trace = synthesize_trace(
            spec, num_views=150, seed=7, use_small=small
        )
        results = {}
        for system in SYSTEMS:
            results[system] = simulate_epoch(
                plat, trace, system, spec.num_pixels
            )
        base = results["baseline_offload"]
        row = [label]
        for system in ("baseline_offload", "gsscale_no_deferred", "gsscale",
                       "gpu_only", "sharded", "outofcore",
                       "outofcore_async"):
            r = results[system]
            if r.oom:
                row.append("OOM")
            elif base.oom:
                row.append("-")
            else:
                row.append(round(base.seconds / r.seconds, 2))
        t.add_row(*row)
        if not results["sharded"].oom:
            sharded = results["sharded"]
            stats["composite_share"].append(
                sharded.breakdown.get("composite", 0.0) / sharded.seconds
            )
        stats["ooc_trains"].append((label, not results["outofcore"].oom))
        stats["sharded_trains"].append((label, not results["sharded"].oom))
        if not results["sharded"].oom and not results["outofcore"].oom:
            stats["ooc_slowdown"].append(
                results["outofcore"].seconds / results["sharded"].seconds
            )
        if not results["outofcore"].oom and not results["outofcore_async"].oom:
            # the async variant's host floor is strictly higher (staging
            # buffer), so it can OOM where the sync tier trains
            sync, async_ = results["outofcore"], results["outofcore_async"]
            stats["async_speedup"].append(sync.seconds / async_.seconds)
            stats["stall_sync"].append(sync.breakdown.get("disk_stall", 0.0))
            stats["stall_async"].append(
                async_.breakdown.get("disk_stall", 0.0)
            )
        if not base.oom and not results["gsscale"].oom:
            if not results["gpu_only"].oom:
                stats["gs_vs_gpu"].append(
                    results["gpu_only"].seconds / results["gsscale"].seconds
                )
            stats["speedup_full"].append(
                base.seconds / results["gsscale"].seconds
            )
            if not results["gsscale_no_deferred"].oom:
                stats["speedup_wo"].append(
                    base.seconds / results["gsscale_no_deferred"].seconds
                )
            if not results["sharded"].oom:
                stats["sharded_vs_gs"].append(
                    results["gsscale"].seconds / results["sharded"].seconds
                )
    t.notes.append(
        f"geomean speedup over baseline: {geomean(stats['speedup_full']):.2f}x "
        f"(paper ~4.5x); GS-Scale vs GPU-only: {geomean(stats['gs_vs_gpu']):.2f}x"
    )
    if stats["composite_share"]:
        t.notes.append(
            "fragment-merge compositing bandwidth is "
            f"{100.0 * max(stats['composite_share']):.1f}% of the sharded "
            "iteration at worst (pixel-bound: the per-shard fragment "
            "records scale with the image, not the visible splat count)."
        )
    return t, stats


def build_all():
    return {pk: run_platform(pk) for pk in PLATFORM_KEYS}


def test_fig11_throughput(benchmark):
    all_results = benchmark.pedantic(build_all, rounds=1, iterations=1)
    tables = [all_results[pk][0] for pk in PLATFORM_KEYS]
    print("\n" + write_report("fig11_throughput", *tables))

    laptop_stats = all_results["laptop_4070m"][1]
    desktop_stats = all_results["desktop_4080s"][1]

    # Section 5.4: ~4.5x geomean speedup from the three optimizations
    assert 3.5 <= geomean(laptop_stats["speedup_full"]) <= 8.0
    assert 3.5 <= geomean(desktop_stats["speedup_full"]) <= 8.0
    # deferred Adam contributes beyond forwarding+selective alone
    assert geomean(laptop_stats["speedup_full"]) > geomean(
        laptop_stats["speedup_wo"]
    )
    # Section 5.3: laptop GS-Scale beats GPU-only; desktop slightly behind
    assert geomean(laptop_stats["gs_vs_gpu"]) > 1.0
    assert geomean(desktop_stats["gs_vs_gpu"]) < 1.0
    # the 4-device sharded system beats single-device GS-Scale wherever
    # both train (more hardware, same placement policy)
    assert geomean(laptop_stats["sharded_vs_gs"]) > 1.0
    assert geomean(desktop_stats["sharded_vs_gs"]) > 1.0

    # OOM pattern: GPU-only fails on every full-scale scene on the laptop
    laptop_table = all_results["laptop_4070m"][0]
    full_rows = [r for r in laptop_table.rows if not r[0].endswith("-Small")]
    assert all(r[4] == "OOM" for r in full_rows)
    # ... while GS-Scale trains all laptop scenes except Aerial, which
    # cannot be downsized and only fits the desktop (Section 5.3)
    non_aerial = [r for r in full_rows if r[0] != "Aerial"]
    assert all(r[3] != "OOM" for r in non_aerial)
    laptop_aerial = next(r for r in full_rows if r[0] == "Aerial")
    assert laptop_aerial[3] == "OOM"
    # Aerial fits the desktop under GS-Scale (Section 5.3)
    desktop_table = all_results["desktop_4080s"][0]
    aerial = next(r for r in desktop_table.rows if r[0] == "Aerial")
    assert aerial[3] != "OOM"
    assert aerial[4] == "OOM"  # but not GPU-only

    # out-of-core placement: paging shard state through disk costs
    # throughput wherever the in-memory sharded system also trains ...
    for stats in (laptop_stats, desktop_stats):
        assert all(s >= 1.0 for s in stats["ooc_slowdown"])
        assert 1.5 <= geomean(stats["ooc_slowdown"]) <= 8.0
        # the async prefetch leg: page-stall time strictly below the
        # synchronous schedule wherever paging stalls at all, never
        # above it, and a real throughput win overall
        for sync_stall, async_stall in zip(
            stats["stall_sync"], stats["stall_async"]
        ):
            assert async_stall <= sync_stall
            if sync_stall > 0:
                assert async_stall < sync_stall
        assert all(s >= 1.0 for s in stats["async_speedup"])
        assert geomean(stats["async_speedup"]) > 1.05
    # ... but buys capability: laptop Aerial host-OOMs every in-memory
    # system (42 GB of host state vs 32 GB DRAM) and trains only with the
    # out-of-core tier's resident-set host floor
    ooc = dict(laptop_stats["ooc_trains"])
    sharded_ok = dict(laptop_stats["sharded_trains"])
    assert ooc["Aerial"] and not sharded_ok["Aerial"]
    laptop_aerial_row = next(r for r in full_rows if r[0] == "Aerial")
    assert laptop_aerial_row[6] == "-"  # trains; baseline OOMs, so no norm
    # out-of-core never trains less than the in-memory sharded system
    assert all(ooc[k] for k, ok in laptop_stats["sharded_trains"] if ok)
