"""Reproduces Figure 12: peak GPU memory, GPU-only vs GS-Scale.

Paper: per-scene ratios 0.18x-0.30x, geomean 3.98x savings; Aerial saves
the most (lowest active ratio) but is floored by the 17% geometric
residency of selective offloading."""

from repro.bench import Table, write_report
from repro.datasets import all_scenes, synthesize_trace
from repro.sim import (
    disk_state_bytes,
    geomean,
    host_state_bytes,
    outofcore_host_state_bytes,
    peak_memory,
)


def build_table():
    t = Table(
        title="Figure 12 — Peak GPU Memory Usage (GiB) + Host/Disk Tiers",
        columns=["Scene", "GPU-Only", "GS-Scale", "Ratio", "Savings",
                 "Sharded/dev (K=4)", "Host GS-Scale", "Host OoC (R=1)",
                 "Host OoC async", "Disk OoC"],
        notes=["mem_limit = 0.3 (paper default); staged window uses the "
               "epoch's worst post-split view.",
               "Sharded/dev = per-device peak of the 4-way Gaussian-"
               "sharded system (each GPU holds ~1/4 of the scene).",
               "Host columns = DRAM floor of the offloaded training "
               "state; OoC keeps 1 of 4 shards resident and pages the "
               "rest through the Disk column's spill files.",
               "Host OoC async adds the prefetch leg's double buffer: "
               "one extra shard's pageable state staged while the "
               "current view renders."],
    )
    ratios = {}
    shard_ratios = {}
    host_ratios = {}
    async_ratios = {}
    for spec in all_scenes():
        trace = synthesize_trace(spec, num_views=150, seed=7)
        staged_peak = trace.clipped(0.3).peak_ratio
        g = peak_memory(
            "gpu_only", spec.total_gaussians, spec.num_pixels, trace.peak_ratio
        ).total
        s = peak_memory(
            "gsscale", spec.total_gaussians, spec.num_pixels, staged_peak, 0.3
        ).total
        sh = peak_memory(
            "sharded", spec.total_gaussians, spec.num_pixels, staged_peak, 0.3
        ).total
        host_gs = host_state_bytes(spec.total_gaussians, "gsscale")
        host_ooc = outofcore_host_state_bytes(
            spec.total_gaussians, num_shards=4, resident_shards=1
        )
        host_async = outofcore_host_state_bytes(
            spec.total_gaussians, num_shards=4, resident_shards=1,
            staging_shards=1,
        )
        disk_ooc = disk_state_bytes(
            spec.total_gaussians, num_shards=4, resident_shards=1
        )
        t.add_row(
            spec.name, g / 2**30, s / 2**30, s / g, f"{g / s:.1f}x",
            sh / 2**30, host_gs / 2**30, host_ooc / 2**30,
            host_async / 2**30, disk_ooc / 2**30
        )
        ratios[spec.name.lower()] = s / g
        shard_ratios[spec.name.lower()] = sh / s
        host_ratios[spec.name.lower()] = host_ooc / host_gs
        async_ratios[spec.name.lower()] = host_async / host_gs
    t.notes.append(
        f"geomean savings {geomean([1 / r for r in ratios.values()]):.2f}x "
        "(paper: 3.98x)"
    )
    return t, ratios, shard_ratios, host_ratios, async_ratios


def test_fig12_memory(benchmark):
    table, ratios, shard_ratios, host_ratios, async_ratios = benchmark(
        build_table
    )
    print("\n" + write_report("fig12_memory", table))

    savings = [1 / r for r in ratios.values()]
    # Section 5.2: 3.3x-5.6x range, geomean 3.98x
    assert 3.0 <= geomean(savings) <= 5.0
    for name, r in ratios.items():
        assert 0.15 <= r <= 0.40, name
    # Aerial achieves the largest saving (Figure 12's 0.18x)
    assert ratios["aerial"] == min(ratios.values())
    # ... but is floored by the 17% geometric residency (Section 5.2)
    assert ratios["aerial"] > 0.17 * 0.9
    # 4-way sharding shrinks each device's peak well below single-device
    # GS-Scale (Gaussian state quarters; activations shrink with the
    # pixel partition)
    for name, r in shard_ratios.items():
        assert r < 0.5, name
    # out-of-core placement: with 1 of 4 shards resident, the host-DRAM
    # floor drops to a bit over a quarter of GS-Scale's (the resident
    # shard's 4-copy state plus one defer counter byte per Gaussian)
    for name, r in host_ratios.items():
        assert 0.25 <= r <= 0.35, name
    # the async double buffer costs less than one extra resident shard
    # (3 pageable copies vs 4 training-state copies) and stays well
    # under half of GS-Scale's host floor
    for name, r in async_ratios.items():
        assert host_ratios[name] < r <= 0.5, name
