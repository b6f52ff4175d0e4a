"""Warn-only diff of fresh perf-smoke runs against committed baselines.

Usage::

    python tools/diff_bench_baseline.py BASELINE NEW [BASELINE NEW ...]

Each argument pair is a (committed baseline, fresh run) of the
``BENCH_*.json`` payloads the micro-kernel, serve-throughput, and
disk-paging matrices write. Entries are matched on every non-timing
field (engine, workers, dtype, splat count, shard count, codec, ...); a
timing regression past ``THRESHOLD`` prints a GitHub Actions
``::warning::`` annotation. Throughput-style keys (requests/sec) count
as regressions when they *drop*; wall-clock keys when they *grow*.

The exit code is always 0 — shared CI runners are far too noisy for a
hard gate, so the diff only annotates the run for reviewers. Entries
present on one side only (a new matrix cell, a removed one) are listed
too, so the baseline is regenerated when the grid changes.
"""

import json
import sys

#: Fresh-over-baseline wall-clock ratio that triggers a warning. Shared
#: runners routinely wobble 2x; only flag what a reviewer should see.
THRESHOLD = 2.5

#: Lower-is-better measurements (wall clock, stall fractions).
COST_KEYS = (
    "forward_s", "backward_s", "backward_rebuild_s", "step_s", "roundtrip_s",
    "page_stall_fraction", "pipeline_s", "monolithic_s", "makespan_s",
    "train_s", "disabled_span_ns", "enabled_span_ns",
    # deterministic work counts of the `occluded` raster rows: more pairs
    # built means the occlusion prune lost ground
    "pairs",
    # deterministic page traffic of the paged multi-client serve row:
    # more of either means a tick stopped gathering once for its batch
    "page_ins_per_frame", "shards_touched_per_tick",
    # rows its frame culls ran the exact projection on: more means the
    # bounding-radius reject lost ground (the floor is the visible rows)
    "cull_rows_per_frame",
    # distinct splats a served frame shades: more means the pair-table
    # prune lost ground
    "shaded_rows_per_frame",
)
#: Higher-is-better measurements (throughput): the regression ratio
#: inverts for these.
RATE_KEYS = ("requests_per_s",)
TIMING_KEYS = COST_KEYS + RATE_KEYS

#: Fault-tier counters (supervised-pool retries, shed/degraded request
#: fractions) and readings that follow thread timing (the disk matrix's
#: staging hit rate: whether a prefetch lands before its stage).
#: Informational only: they are neither part of an entry's identity nor
#: gated against the threshold — a drift prints a plain ``::notice::``,
#: enough to eyeball resilience changes by.
INFO_KEYS = (
    "retries", "worker_deaths", "respawns", "deadline_hits",
    "degraded", "rejected", "shed_fraction", "availability",
    "telemetry_overhead_pct", "pruned_isects", "visible_rows_per_frame",
    "staging_hit_rate", "psnr_db",
)


def entry_key(entry):
    return tuple(
        sorted(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in entry.items()
            if k not in TIMING_KEYS + INFO_KEYS
        )
    )


def diff(baseline_path, new_path):
    warnings = 0
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        with open(new_path) as fh:
            new = json.load(fh)
    except OSError as exc:
        print(f"::warning::cannot diff {baseline_path}: {exc}")
        return 1
    base_entries = {entry_key(e): e for e in baseline.get("entries", [])}
    new_entries = {entry_key(e): e for e in new.get("entries", [])}
    for key, fresh in new_entries.items():
        base = base_entries.get(key)
        label = ", ".join(f"{k}={v}" for k, v in key)
        if base is None:
            print(f"::notice::{new_path}: no baseline entry for [{label}] "
                  "— regenerate the committed baseline")
            continue
        for tk in TIMING_KEYS:
            old, cur = base.get(tk), fresh.get(tk)
            if not old or not cur:
                continue
            # regression ratio > 1 means "worse", whichever way the
            # measurement points
            ratio = old / cur if tk in RATE_KEYS else cur / old
            if ratio > THRESHOLD:
                warnings += 1
                print(
                    f"::warning::{new_path}: [{label}] {tk} "
                    f"{ratio:.2f}x baseline ({old:.4f} -> {cur:.4f})"
                )
        for ik in INFO_KEYS:
            old, cur = base.get(ik), fresh.get(ik)
            if old is not None and cur is not None and old != cur:
                print(f"::notice::{new_path}: [{label}] {ik} "
                      f"{old} -> {cur} (informational, not gated)")
    for key in base_entries.keys() - new_entries.keys():
        label = ", ".join(f"{k}={v}" for k, v in key)
        print(f"::notice::{new_path}: baseline entry [{label}] missing "
              "from this run")
    return warnings


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__)
        return 2
    total = 0
    for baseline_path, new_path in zip(argv[::2], argv[1::2]):
        total += diff(baseline_path, new_path)
    print(f"baseline diff done: {total} timing warning(s) (informational)")
    return 0  # warn-only by design


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
