"""Reporting helpers shared by the figure/table benchmarks.

Every bench regenerates one paper artifact and emits a plain-text table;
``write_report`` persists it under ``benchmarks/out/`` so the artifacts
survive pytest's output capture.
"""

from __future__ import annotations

import os
import tracemalloc
from dataclasses import dataclass, field


@dataclass
class Table:
    """A printable results table tagged with the paper artifact it
    reproduces.

    Attributes:
        title: e.g. "Figure 12 — Peak GPU Memory".
        columns: column headers.
        rows: row values (stringified on render).
        notes: free-form caveats (substitutions, calibration notes).
    """

    title: str
    columns: list[str]
    rows: list[list] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    def add_row(self, *values) -> None:
        """Append one row (must match the column count)."""
        if len(values) != len(self.columns):
            raise ValueError(
                f"row has {len(values)} values for {len(self.columns)} columns"
            )
        self.rows.append(list(values))

    def render(self) -> str:
        """Format as an aligned plain-text table."""
        str_rows = [[_fmt(v) for v in row] for row in self.rows]
        widths = [
            max(len(self.columns[i]), *(len(r[i]) for r in str_rows))
            if str_rows
            else len(self.columns[i])
            for i in range(len(self.columns))
        ]
        sep = "-+-".join("-" * w for w in widths)
        lines = [self.title, "=" * len(self.title)]
        lines.append(
            " | ".join(c.ljust(w) for c, w in zip(self.columns, widths))
        )
        lines.append(sep)
        for row in str_rows:
            lines.append(" | ".join(v.ljust(w) for v, w in zip(row, widths)))
        for note in self.notes:
            lines.append(f"note: {note}")
        return "\n".join(lines)


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 100:
            return f"{value:.0f}"
        if abs(value) >= 1:
            return f"{value:.2f}"
        return f"{value:.3f}"
    return str(value)


def traced_peak_bytes(fn) -> int:
    """Peak bytes ``fn()`` allocates above what was live when it started.

    ``tracemalloc`` sees numpy's array buffers, so this turns "builds no
    ``(N, D)`` temporary" into an exact byte count — a gate that means
    the same on a shared 1-CPU runner, where a timing would not.
    """
    tracemalloc.start()
    try:
        baseline = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn()
        return tracemalloc.get_traced_memory()[1] - baseline
    finally:
        tracemalloc.stop()


def output_dir() -> str:
    """Directory for persisted bench artifacts (created on demand)."""
    here = os.path.dirname(os.path.dirname(os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))))
    path = os.path.join(here, "benchmarks", "out")
    os.makedirs(path, exist_ok=True)
    return path


def write_report(name: str, *tables: Table) -> str:
    """Write tables to ``benchmarks/out/<name>.txt`` and return the text."""
    text = "\n\n".join(t.render() for t in tables) + "\n"
    path = os.path.join(output_dir(), f"{name}.txt")
    with open(path, "w") as f:
        f.write(text)
    return text
