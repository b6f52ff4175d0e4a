"""``tools/diff_bench_baseline.py`` matches a fresh perf-smoke entry to
its baseline on the fields that name the cell, and nothing that follows
timing: a ``BENCH_disk`` matrix row whose staging hit rate moved with
thread timing is the same cell, and its timings are compared. A count
that differs from its baseline, a key in none of the tool's lists and a
fresh entry with no baseline each fail the diff; a slow timing only
warns."""

import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "diff_bench_baseline.py"
spec = importlib.util.spec_from_file_location("diff_bench_baseline", TOOL)
diff_bench_baseline = importlib.util.module_from_spec(spec)
spec.loader.exec_module(diff_bench_baseline)

MATRIX_ROW = {
    "bench": "matrix", "prefetch_depth": 1,
    "steps": 8, "staging_hit_rate": 0.1429, "page_in_count": 12,
    "page_out_count": 13, "clean_evictions": 1, "step_s": 0.0059,
    "active_shards": [1, 1],
}

LISTS = ("IDENTITY_KEYS", "COUNT_KEYS", "TIMING_KEYS", "INFO_KEYS")


def write(path, *entries):
    path.write_text(json.dumps({"quick": True, "entries": list(entries)}))
    return str(path)


def run_diff(tmp_path, base, *fresh):
    return diff_bench_baseline.diff(
        write(tmp_path / "base.json", base), write(tmp_path / "new.json", *fresh)
    )


def test_every_key_is_in_exactly_one_list():
    keys = [k for name in LISTS for k in getattr(diff_bench_baseline, name)]
    assert len(keys) == len(set(keys))


@pytest.mark.parametrize(
    "baseline", sorted(Path(TOOL).parents[1].glob("BENCH_*.json")),
    ids=lambda p: p.name,
)
def test_every_committed_key_is_listed(baseline):
    payload = json.loads(baseline.read_text())
    for entry in payload["entries"]:
        assert entry.keys() <= diff_bench_baseline.KNOWN_KEYS


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


def test_counts_are_not_part_of_the_key():
    """A changed count leaves the row matched, so it is compared."""
    moved = dict(MATRIX_ROW, page_in_count=13, clean_evictions=0)
    assert diff_bench_baseline.entry_key(moved) == diff_bench_baseline.entry_key(
        MATRIX_ROW
    )


def test_rows_differing_in_hit_rate_have_their_timings_compared(tmp_path, capsys):
    slow = dict(MATRIX_ROW, staging_hit_rate=0.2857, step_s=10 * MATRIX_ROW["step_s"])
    errors, warnings = run_diff(tmp_path, MATRIX_ROW, slow)
    out = capsys.readouterr().out
    assert (errors, warnings) == (0, 1)
    assert "::warning::" in out and "step_s 10.00x baseline" in out
    assert "no baseline entry" not in out
    assert "staging_hit_rate 0.1429 -> 0.2857 (informational" in out


def test_an_equal_run_passes(tmp_path, capsys):
    assert run_diff(tmp_path, MATRIX_ROW, dict(MATRIX_ROW)) == (0, 0)
    assert "::error::" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "change",
    [{"page_in_count": 11}, {"clean_evictions": 2}, {"active_shards": [1, 2]}],
    ids=["page_in_count", "clean_evictions", "active_shards"],
)
def test_a_changed_count_fails(tmp_path, capsys, change):
    errors, _ = run_diff(tmp_path, MATRIX_ROW, dict(MATRIX_ROW, **change))
    out = capsys.readouterr().out
    assert errors == 1
    (key,) = change
    assert "::error::" in out and f"] {key} " in out


def test_a_count_missing_on_one_side_fails(tmp_path):
    fresh = {k: v for k, v in MATRIX_ROW.items() if k != "page_out_count"}
    assert run_diff(tmp_path, MATRIX_ROW, fresh)[0] == 1


@pytest.mark.parametrize("side", ["fresh", "baseline"])
def test_an_unlisted_key_fails(tmp_path, capsys, side):
    grown = dict(MATRIX_ROW, shiny_new_count=3)
    base, fresh = (MATRIX_ROW, grown) if side == "fresh" else (grown, MATRIX_ROW)
    errors, _ = run_diff(tmp_path, base, fresh)
    assert errors == 1
    assert "unlisted key 'shiny_new_count'" in capsys.readouterr().out


def test_a_fresh_entry_with_no_baseline_fails(tmp_path, capsys):
    deeper = dict(MATRIX_ROW, prefetch_depth=2)
    errors, _ = run_diff(tmp_path, MATRIX_ROW, dict(MATRIX_ROW), deeper)
    assert errors == 1
    assert "no baseline entry for [bench=matrix, prefetch_depth=2" in (
        capsys.readouterr().out
    )


def test_a_baseline_entry_missing_from_the_run_is_a_notice(tmp_path, capsys):
    deeper = dict(MATRIX_ROW, prefetch_depth=2)
    errors, _ = run_diff(tmp_path, MATRIX_ROW, deeper)
    out = capsys.readouterr().out
    assert errors == 1  # the fresh depth-2 row has no baseline
    assert "::notice::" in out and "missing from this run" in out


def test_main_exits_non_zero_on_an_error_only(tmp_path, capsys):
    base = write(tmp_path / "base.json", MATRIX_ROW)
    same = write(tmp_path / "same.json", dict(MATRIX_ROW, step_s=1.0))
    moved = write(tmp_path / "moved.json", dict(MATRIX_ROW, page_out_count=14))
    assert diff_bench_baseline.main([base, same]) == 0  # a timing only warns
    assert diff_bench_baseline.main([base, moved]) == 1
    assert diff_bench_baseline.main([base, str(tmp_path / "absent.json")]) == 1
    capsys.readouterr()
