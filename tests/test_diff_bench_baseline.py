"""``tools/diff_bench_baseline.py`` matches a fresh perf-smoke entry to
its baseline on every field that names the cell, and nothing that
follows timing: a ``BENCH_disk`` matrix row whose staging hit rate moved
with thread timing is the same cell, and its timings are compared."""

import importlib.util
import json
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "diff_bench_baseline.py"
spec = importlib.util.spec_from_file_location("diff_bench_baseline", TOOL)
diff_bench_baseline = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_bench_baseline)

MATRIX_ROW = {
    "bench": "matrix", "prefetch_depth": 1,
    "steps": 8, "staging_hit_rate": 0.1429, "page_in_count": 12,
    "page_out_count": 13, "step_s": 0.0059,
    "active_shards": [1, 1],
}


def write(path, entry):
    path.write_text(json.dumps({"quick": True, "entries": [entry]}))
    return str(path)


def test_staging_hit_rate_is_not_part_of_the_key():
    moved = dict(MATRIX_ROW, staging_hit_rate=0.2857)
    assert diff_bench_baseline.entry_key(moved) == diff_bench_baseline.entry_key(
        MATRIX_ROW
    )
    # a field that names the cell still tells two cells apart
    deeper = dict(MATRIX_ROW, prefetch_depth=2)
    assert diff_bench_baseline.entry_key(deeper) != diff_bench_baseline.entry_key(
        MATRIX_ROW
    )


def test_rows_differing_in_hit_rate_have_their_timings_compared(tmp_path, capsys):
    slow = dict(MATRIX_ROW, staging_hit_rate=0.2857, step_s=10 * MATRIX_ROW["step_s"])
    warnings = diff_bench_baseline.diff(
        write(tmp_path / "base.json", MATRIX_ROW), write(tmp_path / "new.json", slow)
    )
    out = capsys.readouterr().out
    assert warnings == 1
    assert "step_s 10.00x baseline" in out
    assert "no baseline entry" not in out
    assert "staging_hit_rate 0.1429 -> 0.2857 (informational" in out
