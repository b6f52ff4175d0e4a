#!/usr/bin/env python
"""Diff a measured Chrome trace against the simulator's modeled breakdown.

Closes the loop between :mod:`repro.telemetry` (what the system did) and
:mod:`repro.sim` (what the cost model predicted): loads a measured
``trace.json`` (written by ``repro.telemetry.export.write_chrome_trace``),
rolls its spans up into the simulator's phase vocabulary
(``repro.telemetry.compare.PHASE_TABLE``: every span once, by its self
time), and prints per-phase measured / modeled / delta / ratio rows. The
``disk`` row is page traffic on every thread; ``disk_stall`` is the part
the stepping thread waited on, the row in which the synchronous and the
async out-of-core schedules differ.

Usage (modeled side simulated on the fly)::

    python tools/compare_trace.py trace.json --platform a100 \
        --n-total 100000 --active-ratio 0.2 \
        --width 640 --height 480 --iterations 12

The modeled system defaults to ``outofcore_async``, the schedule that
overlaps paging with compute, which is what
``GSScaleConfig(system="outofcore")`` runs by default; pass
``--system outofcore`` for the synchronous schedule
(``async_prefetch=False``) or any other :data:`repro.sim.SYSTEMS` name.

or against a pre-computed breakdown JSON (``{"phase": seconds, ...}``)::

    python tools/compare_trace.py trace.json --modeled-json breakdown.json

Exit code is always 0 — the deltas are a report, not a gate (measured
wall time on a shared CI box is not the modeled platform's).
"""

from __future__ import annotations

import argparse
import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
)

from repro.telemetry.compare import (  # noqa: E402
    compare_breakdowns,
    format_table,
    measured_breakdown,
    modeled_breakdown,
)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("trace", help="measured Chrome trace JSON")
    parser.add_argument(
        "--iterations", type=int, default=1,
        help="training iterations the trace covers (divides measured totals)",
    )
    parser.add_argument(
        "--modeled-json",
        help="pre-computed modeled breakdown JSON ({phase: seconds})",
    )
    parser.add_argument("--system", default="outofcore_async")
    parser.add_argument("--platform", default=None,
                        help="sim platform key (default: first registered)")
    parser.add_argument("--n-total", type=int, default=100_000)
    parser.add_argument("--active-ratio", type=float, default=0.2)
    parser.add_argument("--width", type=int, default=640)
    parser.add_argument("--height", type=int, default=480)
    parser.add_argument("--num-shards", type=int, default=4)
    parser.add_argument("--resident-shards", type=int, default=1)
    parser.add_argument("--json", dest="json_out",
                        help="also write the comparison rows as JSON")
    args = parser.parse_args(argv)

    with open(args.trace, encoding="utf-8") as fh:
        trace_doc = json.load(fh)
    measured = measured_breakdown(trace_doc, iterations=args.iterations)

    if args.modeled_json:
        with open(args.modeled_json, encoding="utf-8") as fh:
            modeled = json.load(fh)
    else:
        platform = args.platform
        if platform is None:
            from repro.sim import PLATFORMS

            platform = sorted(PLATFORMS)[0]
        modeled = modeled_breakdown(
            args.system, platform, args.n_total, args.active_ratio,
            args.width * args.height, num_shards=args.num_shards,
            resident_shards=args.resident_shards,
        )

    rows = compare_breakdowns(measured, modeled)
    print(format_table(rows))
    if args.json_out:
        with open(args.json_out, "w", encoding="utf-8") as fh:
            json.dump(rows, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
