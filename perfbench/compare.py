"""Compare two sets of benchmark results, metric by metric.

::

    PYTHONPATH=src python -m perfbench.compare A B

``A`` is the baseline (the parent commit), ``B`` the candidate; each is a
``results.json`` written by ``perfbench.run --out DIR``, or a directory
searched for such files (ten runs on ten seeds are ten files). For every
end-to-end metric and workload the tool applies the direction and the
regression bound fixed in ``BENCHMARK.json`` and prints one row: both
medians, both quartile pairs and a verdict —

* ``worse``: B's median is worse than A's by more than the bound;
* ``better``: better by more than the bound;
* ``same``: within the bound;
* ``unresolved``: the spread of either side (distance between its
  quartiles, as a share of A's median) exceeds the bound, so the bound
  cannot be resolved — unless every run of B reads better than every run
  of A (at least two runs a side), which still counts as ``better``.

With one run per side the spread is the one that run measured over its
own repeats. Exits non-zero when any row is ``worse``.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

from .stats import quartiles

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_runs(path: str) -> list[dict]:
    """Untraced full-size runs of a results file or directory tree."""
    if os.path.isdir(path):
        files = sorted(
            os.path.join(base, name)
            for base, _, names in os.walk(path)
            for name in names
            if name == "results.json"
        )
    else:
        files = [path]
    runs = []
    for file in files:
        with open(file) as fh:
            runs += json.load(fh)["runs"]
    return [r for r in runs if r["trace"] == 0 and not r["quick"]]


def _side(entries: list[dict]) -> tuple[float, float, float, list[float]]:
    """``(median, q1, q3, values)`` of one side's entries for a metric."""
    values = [e["value"] for e in entries]
    if len(values) >= 2:
        q1, q3 = quartiles(values)
    else:  # a single run: its own spread over repeats, when it has one
        q1 = entries[0].get("q1", values[0])
        q3 = entries[0].get("q3", values[0])
    return statistics.median(values), q1, q3, values


def verdict(decl: dict, a: list[dict], b: list[dict]) -> dict:
    """Judge one ``(metric, workload)`` pairing."""
    med_a, q1a, q3a, vals_a = _side(a)
    med_b, q1b, q3b, vals_b = _side(b)
    scale = abs(med_a) or 1.0
    sign = 1.0 if decl["better"] == "lower" else -1.0
    worse_by = sign * (med_b - med_a) / scale
    spread = max(q3a - q1a, q3b - q1b) / scale
    if spread > decl["bound"]:
        # one run a side "separates" whenever B is better at all
        separated = min(len(vals_a), len(vals_b)) >= 2 and (
            max(vals_b) < min(vals_a) if sign > 0 else min(vals_b) > max(vals_a)
        )
        word = "better" if separated else "unresolved"
    elif worse_by > decl["bound"]:
        word = "worse"
    elif worse_by < -decl["bound"]:
        word = "better"
    else:
        word = "same"
    return {
        "verdict": word, "a": (med_a, q1a, q3a), "b": (med_b, q1b, q3b),
        "worse_by": worse_by, "spread": spread,
    }


def compare(runs_a: list[dict], runs_b: list[dict], declared: dict) -> list[dict]:
    """One row per ``(workload, end-to-end metric)`` present on both sides."""
    rows = []
    for workload in (w["name"] for w in declared["workloads"]):
        side_a = [r for r in runs_a if r["workload"] == workload]
        side_b = [r for r in runs_b if r["workload"] == workload]
        if not side_a or not side_b:
            continue
        for decl in declared["end_to_end"]:
            name = decl["name"]
            row = verdict(
                decl,
                [r["metrics"][name] for r in side_a],
                [r["metrics"][name] for r in side_b],
            )
            rows.append({"workload": workload, "metric": name,
                         "unit": decl["unit"], "bound": decl["bound"], **row})
    return rows


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = json.load(fh)
    rows = compare(load_runs(argv[0]), load_runs(argv[1]), declared)
    if not rows:
        print("no workload has untraced full-size runs on both sides",
              file=sys.stderr)
        return 2
    print(f"{'workload':16s} {'metric':20s} {'unit':5s} "
          f"{'A median [q1, q3]':>38s} {'B median [q1, q3]':>38s} "
          f"{'worse by':>9s} {'bound':>6s}  verdict")
    for row in rows:
        a, b = (
            f"{med:.6g} [{q1:.6g}, {q3:.6g}]" for med, q1, q3 in (row["a"], row["b"])
        )
        print(f"{row['workload']:16s} {row['metric']:20s} {row['unit']:5s} "
              f"{a:>38s} {b:>38s} {row['worse_by']:>+9.2%} {row['bound']:>6.0%}"
              f"  {row['verdict']}")
    counts = {
        word: sum(r["verdict"] == word for r in rows)
        for word in ("same", "better", "worse", "unresolved")
    }
    print("  ".join(f"{word}: {count}" for word, count in counts.items()))
    return 1 if counts["worse"] else 0


if __name__ == "__main__":
    sys.exit(main())
