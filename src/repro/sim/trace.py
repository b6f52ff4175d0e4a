"""Chrome-trace export of simulated timelines (open in chrome://tracing)."""

from __future__ import annotations

import json

from .timeline import Segment

#: The modelled lanes in display order; a lane's trace tid is its
#: position here plus one.
_RESOURCES = ("CPU", "GPU", "PCIe", "Disk")
_TIDS = {res: i + 1 for i, res in enumerate(_RESOURCES)}


def _lanes(segments: list[Segment]) -> list[str]:
    """The lanes ``segments`` use, in display order."""
    used = {seg.resource for seg in segments}
    return [res for res in _RESOURCES if res in used]


def to_chrome_trace(segments: list[Segment], time_scale_us: float = 1e6) -> dict:
    """Convert timeline segments to the Chrome trace-event JSON format.

    Args:
        segments: resource-time intervals from a simulated iteration.
        time_scale_us: multiplier from model seconds to trace microseconds.

    Returns:
        A dict ready for ``json.dump``: one ``thread_name`` event per lane
        the segments use, then one ``X`` event per segment.
    """
    events = []
    for res in _lanes(segments):
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 1,
                "tid": _TIDS[res],
                "args": {"name": res},
            }
        )
    for seg in segments:
        events.append(
            {
                "name": seg.label,
                "ph": "X",
                "pid": 1,
                "tid": _TIDS[seg.resource],
                "ts": seg.start * time_scale_us,
                "dur": max(seg.duration * time_scale_us, 0.01),
                "cat": seg.resource,
            }
        )
    return {"traceEvents": events, "displayTimeUnit": "ms"}


def write_chrome_trace(segments: list[Segment], path: str) -> None:
    """Write a Chrome trace JSON file for ``segments``."""
    with open(path, "w") as f:
        json.dump(to_chrome_trace(segments), f, indent=1)


def render_ascii(segments: list[Segment], width: int = 72) -> str:
    """ASCII Gantt chart of a simulated iteration (Figure 9 style): one
    row per lane the segments use."""
    if not segments:
        return "(empty timeline)"
    t_end = max(s.end for s in segments)
    if t_end <= 0:
        return "(empty timeline)"
    lines = []
    for res in _lanes(segments):
        row = [" "] * width
        labels = []
        for seg in segments:
            if seg.resource != res:
                continue
            a = int(seg.start / t_end * (width - 1))
            b = max(int(seg.end / t_end * (width - 1)), a + 1)
            for i in range(a, min(b, width)):
                row[i] = "#"
            labels.append(f"{seg.label}[{seg.duration*1e3:.1f}ms]")
        lines.append(f"{res:>5} |{''.join(row)}| {' '.join(labels)}")
    lines.append(f"{'':>5}  total {t_end*1e3:.2f} ms")
    return "\n".join(lines)
