"""Measured-vs-modeled per-phase comparison.

The simulator predicts an iteration's time budget as a per-phase
breakdown (:func:`repro.sim.simulate_iteration` → ``IterationSim.
breakdown`` with keys like ``cull``/``h2d``/``fwd_bwd``/``optimizer``/
``disk``); the tracer records what the running system actually spent.
This module rolls measured spans up into the same phase vocabulary and
diffs the two — the closing of the loop ``tools/compare_trace.py``
exposes on the command line.

Span names map to phases by longest matching prefix
(:data:`PHASE_BY_SPAN`); spans outside the vocabulary (``serve/*``,
``pool/*``, ``train/step`` itself) are ignored rather than double counted — nested
spans mean a naive sum over *all* spans would count the same wall time
twice.
"""

from __future__ import annotations

from .export import MEASURED_PID
from .trace import SpanEvent, Tracer

__all__ = [
    "PHASE_BY_SPAN",
    "PHASES",
    "compare_breakdowns",
    "format_table",
    "measured_breakdown",
    "modeled_breakdown",
]

#: Phase vocabulary, in the simulator's reporting order.
PHASES = ("cull", "h2d", "fwd_bwd", "d2h", "optimizer", "composite", "disk")

#: Measured span-name prefix -> modeled breakdown key. Longest matching
#: prefix wins, so ``train/forward`` beats a hypothetical ``train/``.
PHASE_BY_SPAN = {
    "train/cull": "cull",
    "train/stage": "h2d",
    "train/forward": "fwd_bwd",
    "train/backward": "fwd_bwd",
    "train/unstage": "d2h",
    "train/commit": "optimizer",
    "train/return_grads": "optimizer",
    "train/aggregate": "composite",
    "page/in": "disk",
    "page/out": "disk",
    "page/prefetch": "disk",
    "page/writeback": "disk",
}


def phase_for(name: str) -> str | None:
    """The breakdown phase a span name rolls up into (None = ignored)."""
    best = None
    best_len = -1
    for prefix, phase in PHASE_BY_SPAN.items():
        if name.startswith(prefix) and len(prefix) > best_len:
            best, best_len = phase, len(prefix)
    return best


def _iter_span_rows(source):
    """Yield ``(name, dur_s)`` from a tracer, event list, or trace doc."""
    if isinstance(source, Tracer):
        source = source.events()
    if isinstance(source, dict):  # a Chrome trace document
        for ev in source.get("traceEvents", ()):
            if ev.get("ph") != "X" or ev.get("pid") != MEASURED_PID:
                continue
            yield ev["name"], ev["dur"] / 1e6
        return
    for ev in source:
        if isinstance(ev, SpanEvent):
            yield ev.name, ev.dur
        else:
            name, _cat, _tid, _start, dur, _attrs = ev
            yield name, dur


def measured_breakdown(source, iterations: int = 1) -> dict:
    """Roll measured spans up into per-phase seconds (per iteration).

    ``source`` is a :class:`Tracer`, a list of span events, or a parsed
    Chrome trace document (measured lanes only). ``iterations`` divides
    the totals so a multi-step trace compares against the simulator's
    single-iteration breakdown.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    totals = dict.fromkeys(PHASES, 0.0)
    for name, dur in _iter_span_rows(source):
        phase = phase_for(name)
        if phase is not None:
            totals[phase] += dur / iterations
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
    out = dict.fromkeys(PHASES, 0.0)
    for key, value in sim.breakdown.items():
        if key in out:
            out[key] = float(value)
    return out


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
