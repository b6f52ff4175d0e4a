"""Diff fresh perf-smoke runs against committed baselines; counts gate.

Usage::

    python tools/diff_bench_baseline.py BASELINE NEW [BASELINE NEW ...]

Each argument pair is a (committed baseline, fresh run) of the
``BENCH_*.json`` payloads the micro-kernel, serve-throughput,
disk-paging, patch-pipeline and telemetry benches write. Every key of an
entry is in exactly one of four lists:

* ``IDENTITY_KEYS`` name the cell (engine, dtype, splat count,
  shard count, codec, ...); a fresh entry is matched to the baseline
  entry with the same identity.
* ``COUNT_KEYS`` are deterministic counts (pairs built, page-ins, bytes
  written, modelled peaks, ...): one that differs from its baseline fails
  the diff.
* ``TIMING_KEYS`` are wall clock and throughput: a regression past
  ``THRESHOLD`` prints a GitHub Actions ``::warning::`` and never fails,
  since shared runners are far too noisy for a hard gate on time.
  Throughput-style keys (requests/sec) count as regressions when they
  *drop*; wall-clock keys when they *grow*.
* ``INFO_KEYS`` follow thread timing or are judged elsewhere: a drift
  prints a ``::notice::``.

The exit code is non-zero on a count that differs from its baseline, on
a key in none of the lists (a new field must be classified, so it cannot
silently change which entries match), on a fresh entry with no baseline
and on a file that cannot be read; each prints an ``::error::``. A
baseline entry missing from the fresh run is listed as a notice. After a
deliberate change to a count, regenerate the baseline and say why.
"""

import json
import sys

#: Fresh-over-baseline wall-clock ratio that triggers a warning. Shared
#: runners routinely wobble 2x; only flag what a reviewer should see.
THRESHOLD = 2.5

#: The configuration of a cell: what an entry is matched on.
IDENTITY_KEYS = (
    "bench", "engine", "dtype", "splats", "scene",
    "lod", "keep_fraction", "requests", "cached", "paged",
    "codec", "budget_fraction", "clients_per_tick",
    "rows", "num_shards", "roundtrips", "prefetch_depth", "steps",
    "num_gaussians", "num_patches", "jobs", "iterations", "merge_policy",
    "platform", "patch_sizes", "altitude", "seed", "leg", "steps_per_patch",
    "resident_shards",
)

#: Deterministic counts, compared exactly.
COUNT_KEYS = (
    # pairs the occlusion-pruned `occluded` raster row builds, and the
    # intersections the prune removed
    "pairs", "pruned_isects",
    # page traffic and culls of the paged multi-client serve row
    "page_ins_per_frame", "shards_touched_per_tick", "cull_rows_per_frame",
    "visible_rows_per_frame", "shaded_rows_per_frame",
    # the disk matrix's page traffic, evictions and culled shards
    "bandwidth_multiplier", "page_in_count", "page_in_bytes",
    "page_in_disk_bytes", "page_out_count", "clean_evictions",
    "page_out_bytes", "page_out_disk_bytes", "active_shards",
    "exact_shards", "pageable_over_host_peak",
    # the patch pipeline's rows and modelled host bytes
    "buffered_sizes", "merged_rows", "final_rows", "patch_views",
    "peak_host_bytes", "monolithic_peak_host_bytes", "staged_peak_bytes",
    "speedup",
    # spans a traced training step records
    "spans_per_step",
)

#: Lower-is-better measurements (wall clock, stall fractions).
COST_KEYS = (
    "forward_s", "backward_s", "backward_rebuild_s", "step_s", "roundtrip_s",
    "page_stall_fraction", "pipeline_s", "monolithic_s", "makespan_s",
    "train_s", "disabled_span_ns", "enabled_span_ns",
)
#: Higher-is-better measurements (throughput): the regression ratio
#: inverts for these.
RATE_KEYS = ("requests_per_s",)
TIMING_KEYS = COST_KEYS + RATE_KEYS

#: Readings that follow thread timing (the disk matrix's staging hit
#: rate: whether a prefetch lands before its stage) or that another step
#: gates (the telemetry overhead, held-out PSNR).
INFO_KEYS = ("staging_hit_rate", "telemetry_overhead_pct", "psnr_db")

KNOWN_KEYS = frozenset(IDENTITY_KEYS + COUNT_KEYS + TIMING_KEYS + INFO_KEYS)


def entry_key(entry):
    return tuple(
        sorted(
            (k, tuple(v) if isinstance(v, list) else v)
            for k, v in entry.items()
            if k in IDENTITY_KEYS
        )
    )


def _label(key):
    return ", ".join(f"{k}={v}" for k, v in key)


def _entries(path, payload):
    """``{identity: entry}`` of one payload and its errors (unlisted
    keys, two entries with one identity)."""
    errors, entries = 0, {}
    for entry in payload.get("entries", []):
        key = entry_key(entry)
        for k in sorted(entry.keys() - KNOWN_KEYS):
            errors += 1
            print(f"::error::{path}: [{_label(key)}] unlisted key {k!r} "
                  "— classify it in tools/diff_bench_baseline.py")
        if key in entries:
            errors += 1
            print(f"::error::{path}: two entries for [{_label(key)}]")
        entries[key] = entry
    return entries, errors


def diff(baseline_path, new_path):
    """Compare one pair of payloads; returns ``(errors, warnings)``."""
    try:
        with open(baseline_path) as fh:
            baseline = json.load(fh)
        with open(new_path) as fh:
            new = json.load(fh)
    except (OSError, ValueError) as exc:
        print(f"::error::cannot diff {baseline_path} and {new_path}: {exc}")
        return 1, 0
    base_entries, errors = _entries(baseline_path, baseline)
    new_entries, new_errors = _entries(new_path, new)
    errors += new_errors
    warnings = 0
    for key, fresh in new_entries.items():
        base = base_entries.get(key)
        label = _label(key)
        if base is None:
            errors += 1
            print(f"::error::{new_path}: no baseline entry for [{label}] "
                  "— regenerate the committed baseline")
            continue
        for ck in COUNT_KEYS:
            old, cur = base.get(ck), fresh.get(ck)
            if old != cur:
                errors += 1
                print(f"::error::{new_path}: [{label}] {ck} {old} -> {cur} "
                      "(a count differs from its baseline)")
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
        print(f"::notice::{new_path}: baseline entry [{_label(key)}] missing "
              "from this run")
    return errors, warnings


def main(argv):
    if len(argv) < 2 or len(argv) % 2:
        print(__doc__)
        return 2
    errors = warnings = 0
    for baseline_path, new_path in zip(argv[::2], argv[1::2]):
        e, w = diff(baseline_path, new_path)
        errors += e
        warnings += w
    print(f"baseline diff done: {errors} error(s), "
          f"{warnings} timing warning(s) (informational)")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
