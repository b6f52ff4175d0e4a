"""Measured-vs-modeled per-phase comparison.

The simulator predicts an iteration's time budget as a per-phase
breakdown (:func:`repro.sim.simulate_iteration` → ``IterationSim.
breakdown``); the tracer records what the running system actually spent.
This module rolls measured spans up into the same phase vocabulary and
diffs the two — the closing of the loop ``tools/compare_trace.py``
exposes on the command line.

:data:`PHASE_TABLE` is that vocabulary, and every span counts once, by
its *self time*: its duration minus the spans nested in it on the same
thread. ``disk`` is page traffic on every thread; ``disk_stall`` is the
part on the stepping thread (the one recording ``train/`` spans), as the
simulator's is the part of its disk leg on the critical path.
"""

from __future__ import annotations

from .export import MEASURED_PID
from .trace import Tracer

__all__ = [
    "IGNORED_PREFIXES",
    "PHASE_BY_SPAN",
    "PHASES",
    "PHASE_TABLE",
    "compare_breakdowns",
    "format_table",
    "measured_breakdown",
    "modeled_breakdown",
]

#: Breakdown key, in the simulator's reporting order -> the span-name
#: prefixes it counts (longest matching prefix wins). ``disk_stall``
#: counts no span of its own: it is ``disk`` on the stepping thread.
PHASE_TABLE = {
    "cull": ("train/cull",),
    "h2d": ("train/stage",),
    "fwd_bwd": ("train/forward", "train/backward"),
    "d2h": ("train/unstage",),
    "optimizer": ("train/commit", "train/return_grads"),
    "composite": ("train/aggregate",),
    "disk": ("page/",),
    "disk_stall": (),
    "misc": ("train/step", "train/prefetch", "train/spill"),
}

#: Span prefixes no phase counts: serving, pool tasks, densification.
IGNORED_PREFIXES = ("serve/", "pool/", "train/densify")

PHASES = tuple(PHASE_TABLE)

#: Span-name prefix -> breakdown key.
PHASE_BY_SPAN = {p: phase for phase, ps in PHASE_TABLE.items() for p in ps}


def phase_for(name: str) -> str | None:
    """The breakdown phase a span name rolls up into (None = ignored)."""
    matches = [prefix for prefix in PHASE_BY_SPAN if name.startswith(prefix)]
    return PHASE_BY_SPAN[max(matches, key=len)] if matches else None


def _iter_span_rows(source):
    """``(name, tid, start_s, dur_s)`` of a tracer, event list, trace doc."""
    if isinstance(source, Tracer):
        source = source.events()
    if isinstance(source, dict):  # a Chrome trace document
        for ev in source.get("traceEvents", ()):
            if ev.get("ph") != "X" or ev.get("pid") != MEASURED_PID:
                continue
            yield ev["name"], ev["tid"], ev["ts"] / 1e6, ev["dur"] / 1e6
        return
    for name, _cat, tid, start, dur, _attrs in source:
        yield name, tid, start, dur


def _self_times(rows):
    """Yield ``(name, tid, self_s)``: a span's duration minus the spans
    nested in it on its thread (an overlap on one thread is a nesting)."""
    for tid in {row[1] for row in rows}:
        spans = sorted((r for r in rows if r[1] == tid), key=lambda r: (r[2], -r[3]))
        self_s = [dur for _name, _tid, _start, dur in spans]
        enclosing = []  # (end, index) of the spans open at this start
        for i, (_name, _tid, start, dur) in enumerate(spans):
            while enclosing and enclosing[-1][0] <= start:
                enclosing.pop()
            if enclosing:
                self_s[enclosing[-1][1]] -= dur
            enclosing.append((start + dur, i))
        for (name, tid, _start, _dur), s in zip(spans, self_s):
            yield name, tid, s


def measured_breakdown(source, iterations: int = 1) -> dict:
    """Roll measured spans up into per-phase seconds (per iteration).

    ``source`` is a :class:`Tracer`, a list of span events, or a parsed
    Chrome trace document (measured lanes only). ``iterations`` divides
    the totals so a multi-step trace compares against the simulator's
    single-iteration breakdown.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    rows = list(_iter_span_rows(source))
    stepping = {tid for name, tid, _start, _dur in rows if name.startswith("train/")}
    totals = dict.fromkeys(PHASES, 0.0)
    for name, tid, self_s in _self_times(rows):
        phase = phase_for(name)
        if phase is not None:
            totals[phase] += self_s / iterations
        if phase == "disk" and tid in stepping:
            totals["disk_stall"] += self_s / iterations
    return totals


def modeled_breakdown(
    system: str,
    platform: str,
    n_total: int,
    active_ratio: float,
    num_pixels: int,
    **sim_kwargs,
) -> dict:
    """The simulator's per-phase seconds for one iteration."""
    from ..sim import CostModel, get_platform, simulate_iteration

    sim = simulate_iteration(
        system, CostModel(get_platform(platform)), n_total, active_ratio,
        num_pixels, **sim_kwargs,
    )
    return {key: float(value) for key, value in sim.breakdown.items()}


def compare_breakdowns(measured: dict, modeled: dict) -> list[dict]:
    """Per-phase rows: measured, modeled, delta and ratio."""
    rows = []
    for phase in PHASES:
        m = float(measured.get(phase, 0.0))
        s = float(modeled.get(phase, 0.0))
        rows.append({
            "phase": phase,
            "measured_s": m,
            "modeled_s": s,
            "delta_s": m - s,
            "ratio": (m / s) if s > 0 else float("inf") if m > 0 else 1.0,
        })
    return rows


def format_table(rows: list[dict]) -> str:
    """Human-readable comparison table."""
    lines = [
        f"{'phase':<10} {'measured':>12} {'modeled':>12} "
        f"{'delta':>12} {'ratio':>8}"
    ]
    for r in rows:
        ratio = r["ratio"]
        ratio_s = f"{ratio:8.2f}" if ratio != float("inf") else "     inf"
        lines.append(
            f"{r['phase']:<10} {r['measured_s']:>11.6f}s "
            f"{r['modeled_s']:>11.6f}s {r['delta_s']:>+11.6f}s {ratio_s}"
        )
    return "\n".join(lines)
