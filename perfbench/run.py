"""Run the benchmark: one command, every metric by name with its unit.

::

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1
    PYTHONPATH=src python -m perfbench.run [--workload NAME] [--seed N] [--out DIR]

Each ``(workload, trace)`` run prints its regime table, its checks and
its metrics, then one JSON line ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics of an untraced run (``--trace 0``),
the per-layer metrics of a traced one (``--trace 1``). Without
``--workload`` / ``--trace`` every workload / both modes run in turn. The
exit code is non-zero when any check failed.
"""

from __future__ import annotations

import os
import sys

# noise hygiene, before numpy loads a BLAS: one compute thread
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"



def _pin_allocator() -> bool:
    """Keep freed memory in the process instead of returning it to the
    kernel (glibc only; a no-op elsewhere).

    numpy's large temporaries are otherwise mapped fresh and unmapped on
    every operation, and the page faults of that churn — a quarter of
    ``train_raster``'s step on the box the sizes were tuned on, served at
    whatever speed the hypervisor allows that second — are the largest
    source of run-to-run noise. Pinned, the same commit repeats within a
    few percent; both sides of every comparison run pinned.
    """
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6")
        m_trim_threshold, m_top_pad, m_mmap_threshold = -1, -2, -3
        return bool(
            libc.mallopt(m_mmap_threshold, 1 << 30)
            and libc.mallopt(m_trim_threshold, 1 << 30)
            and libc.mallopt(m_top_pad, 64 << 20)
        )
    except (OSError, AttributeError):
        return False


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
for _path in (SRC, ROOT):  # also runnable as a plain script, from anywhere
    if _path not in sys.path:
        sys.path.insert(0, _path)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402

#: scratch space (spill files, page files) stays inside the checkout
TMP_ROOT = os.path.join(ROOT, ".perfbench_tmp")


def load_declaration() -> dict:
    """``BENCHMARK.json``: the declared workloads, metrics, units, bounds."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def _filesystem_type(path: str) -> str:
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as fh:
            for line in fh:
                _, mount, kind = line.split()[:3]
                if path.startswith(mount) and len(mount) > len(best):
                    best, fstype = mount, kind
    except OSError:
        pass
    return fstype


def _git_commit() -> str:
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def environment(tmp: str, allocator_pinned: bool) -> dict:
    """Where the numbers were taken (recorded beside them)."""
    import numpy

    return {
        "nproc": os.cpu_count(),
        "loadavg_1min_start": os.getloadavg()[0],
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "threads": {v: os.environ[v] for v in (
            "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "allocator_pinned": allocator_pinned,
        "spill_filesystem": _filesystem_type(tmp),
        "git_commit": _git_commit(),
    }


def _format(value) -> str:
    if value is None:
        return "null"
    if isinstance(value, int) or (float(value).is_integer() and abs(value) >= 1000):
        return f"{int(value):,}"
    return f"{value:.6g}"


def run_one(name: str, seed: int, seconds: float, trace: int, quick: bool,
            declared: dict, tmp: str, out_dir: str | None) -> dict:
    """Run one ``(workload, trace)`` pair, print it, return its record."""
    from perfbench import runner, tracing

    print(f"== {name}  seed={seed}  trace={trace}  seconds={seconds:g}"
          f"{'  (quick: not comparable)' if quick else ''}")
    t0 = time.perf_counter()
    result = runner.run_workload(name, seed, seconds, bool(trace), tmp, quick)
    total_s = time.perf_counter() - t0

    section = "per_layer" if trace else "end_to_end"
    produced = result.per_layer if trace else result.end_to_end
    metrics = {}
    for decl in declared[section]:
        key = decl["name"]
        if key not in produced:  # a layer this workload does not exercise
            entry = {"value": 0.0}
        else:
            raw = produced[key]
            entry = dict(raw) if isinstance(raw, dict) else {"value": raw}
            if entry["value"] is None:
                print(f"  warning: {key} could not be measured (reported as null)")
        entry["unit"] = decl["unit"]
        metrics[key] = entry
    undeclared = sorted(set(produced) - set(metrics))
    if undeclared:
        result.check("every produced metric is declared in BENCHMARK.json",
                     False, ", ".join(undeclared))

    print(f"  -- {section} metrics")
    for key, entry in metrics.items():
        spread = (
            f"   [q1 {_format(entry['q1'])}  q3 {_format(entry['q3'])}  n {entry['n']}]"
            if "q1" in entry else f"   [n {entry['n']}]" if "n" in entry else ""
        )
        print(f"  {key:40s} {_format(entry['value']):>16s} {entry['unit']:<6s}{spread}")
    print("  -- info")
    for key, value in result.info.items():
        if not isinstance(value, list):  # raw samples go to results.json only
            print(f"  {key:40s} {_format(value) if isinstance(value, (int, float)) else value}")
    print(f"  {'run_total_s':40s} {total_s:.3f}")
    print("  -- checks")
    for check in result.checks:
        print(f"  [{'ok' if check['ok'] else 'FAILED'}] {check['name']}  {check['detail']}")
    print(f"  failed operations: {result.failed} of {result.attempted} attempted")

    if out_dir is not None and trace:
        path = os.path.join(out_dir, f"{name}.seed{seed}.trace.json")
        tracing.write_chrome_trace(
            result.recorder.spans, path, result.recorder.main_thread
        )
        print(f"  chrome trace: {path}")

    line = {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {
            # the line is numbers only: an unmeasurable metric reads 0
            key: {"value": entry["value"] if entry["value"] is not None else 0.0,
                  "unit": entry["unit"]}
            for key, entry in metrics.items()
        },
    }
    print(json.dumps(line))
    sys.stdout.flush()
    return {
        "workload": name, "seed": seed, "trace": trace, "seconds": seconds,
        "quick": quick, "correct": result.correct,
        "attempted": result.attempted, "failed": result.failed,
        "metrics": metrics, "checks": result.checks, "info": result.info,
        "run_total_s": total_s,
    }


def main(argv: list[str] | None = None) -> int:
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    declared = load_declaration()
    names = [w["name"] for w in declared["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=names, default=None,
                        help="one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0,
                        help="inputs are generated from this seed")
    parser.add_argument("--seconds", type=float, default=float(declared["run_seconds"]),
                        help="how long each run repeats its work")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="0: end-to-end metrics, wrappers never installed; "
                             "1: per-layer metrics (default: both in turn)")
    parser.add_argument("--out", default=None,
                        help="directory for results.json and Chrome traces")
    parser.add_argument("--quick", action="store_true",
                        help="tiny sizes for the unit tests; not comparable")
    args = parser.parse_args(argv)

    allocator_pinned = _pin_allocator()
    if args.out is not None:
        os.makedirs(args.out, exist_ok=True)
    os.makedirs(TMP_ROOT, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix="run-", dir=TMP_ROOT)
    try:
        # (the block spawns `git`; only a kept result set needs it)
        env = environment(tmp, allocator_pinned) if args.out is not None else None
        runs = [
            run_one(name, args.seed, args.seconds, trace, args.quick,
                    declared, tmp, args.out)
            for name in ([args.workload] if args.workload else names)
            for trace in ([args.trace] if args.trace is not None else (0, 1))
        ]
        if args.out is not None:
            env["loadavg_1min_end"] = os.getloadavg()[0]
            path = os.path.join(args.out, "results.json")
            with open(path, "w") as fh:
                json.dump({"environment": env, "runs": runs}, fh, indent=1)
            print(f"results: {path}", file=sys.stderr)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(TMP_ROOT)  # only when no other run is using it
        except OSError:
            pass
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
