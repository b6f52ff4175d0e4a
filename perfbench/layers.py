"""From spans to per-layer metrics: busy time, counts and shares by layer."""

from __future__ import annotations

from . import tracing


def span_metrics(spans, main_thread, unresolved, steps, roots):
    """``(metrics, accounting)``: the per-layer metrics derivable from
    spans alone, and the check that they account for the traced time.

    ``steps`` divides totals into per-step numbers (a serving round
    counts as a step). ``roots`` are the spans the benchmark loop itself
    opened around the timed region; only main-thread spans nested under
    one of them count towards a layer (set-up has its own root), so the
    self times of all names sum to the roots' durations.
    """
    timed = [
        s.thread == main_thread and root_name(spans, s) in roots for s in spans
    ]
    main = tracing.totals_by_name(spans, keep=timed)
    background = tracing.totals_by_name(
        spans, keep=[s.thread != main_thread for s in spans]
    )
    zero = tracing.LayerTotals()

    def per_step(name: str, what: str = "self_s", scale: float = 1e3):
        if name in unresolved:
            return None
        return getattr(main.get(name, zero), what) * scale / steps

    def attr(name: str, key: str):
        if name in unresolved:
            return None
        return main.get(name, zero).attrs.get(key, 0) / steps

    def add(*values):
        return None if any(v is None for v in values) else sum(values)

    def share(value):
        return None if value is None or root_ms == 0 else value / root_ms

    root_ms = sum(main.get(r, zero).total_s for r in roots) * 1e3 / steps
    cull = per_step("render.cull")
    forward = per_step("render.forward")
    backward = per_step("render.backward")
    store_ops = [per_step(f"stores.{op}") for op in ("stage", "unstage", "commit", "return_grads")]
    page_in = per_step("pager.page_in")
    page_out = per_step("pager.page_out")
    adopt = per_step("pager.adopt")
    searches = main.get("splitting.search", zero)
    search_culls = sum(
        1
        for s, keep in zip(spans, timed)
        if keep and s.name == "render.cull"
        and has_ancestor(spans, s, "splitting.search")
    )
    background_s = sum(t.self_s for t in background.values())
    metrics = {
        "render.cull_ms_per_step": cull,
        "render.cull_calls_per_step": per_step("render.cull", "calls", 1.0),
        "render.cull_rows_per_step": attr("render.cull", "rows"),
        "render.cull_share": share(cull),
        "render.forward_ms_per_step": forward,
        "render.backward_ms_per_step": backward,
        "render.calls_per_step": per_step("render.forward", "calls", 1.0),
        "render.visible_per_step": attr("render.forward", "visible"),
        "render.pixels_per_step": attr("render.forward", "pixels"),
        "render.share": share(add(forward, backward)),
        "loss.ms_per_step": per_step("loss.photometric"),
        "splitting.search_ms_per_step": per_step("splitting.search"),
        "splitting.searches_per_step": per_step("splitting.search", "calls", 1.0),
        "splitting.culls_per_search": (
            None if "splitting.search" in unresolved or "render.cull" in unresolved
            else search_culls / searches.calls if searches.calls else 0.0
        ),
        "splitting.balance": (
            None if "splitting.search" in unresolved
            else searches.attrs.get("balance", 0.0) / searches.calls
            if searches.calls else 0.0
        ),
        "stores.stage_ms_per_step": store_ops[0],
        "stores.unstage_ms_per_step": store_ops[1],
        "stores.commit_ms_per_step": store_ops[2],
        "stores.return_grads_ms_per_step": store_ops[3],
        "stores.staged_rows_per_step": attr("stores.stage", "rows"),
        "stores.share": share(add(*store_ops)),
        "optim.step_ms_per_step": per_step("optim.step"),
        "optim.calls_per_step": per_step("optim.step", "calls", 1.0),
        "optim.rows_updated_per_step": attr("optim.step", "rows_updated"),
        "optim.float_bytes_per_step": attr("optim.step", "float_bytes"),
        "pager.page_in_ms_per_step": page_in,
        "pager.page_out_ms_per_step": page_out,
        "pager.main_thread_stall_ms_per_step": add(page_in, page_out, adopt),
        "pager.prefetch_thread_ms_per_step": background_s * 1e3 / steps,
        "pager.share": share(add(page_in, page_out, adopt)),
        "trace.spans_per_step": len(spans) / steps,
    }
    layer_self = [
        cull, forward, backward, per_step("loss.photometric"),
        per_step("splitting.search"), *store_ops, per_step("optim.step"),
        page_in, page_out, adopt,
        per_step("serve.tick"), per_step("serve.cache_get"),
        per_step("serve.cache_put"), per_step("serve.gather"),
    ]
    # self times of all layers plus the roots' own self time must add up
    # to the traced time (exact by construction; a gap means spans were
    # lost or recorded on the wrong stack)
    layers = sum(v for v in layer_self if v is not None)
    root_self = sum(main.get(r, zero).self_s for r in roots) * 1e3 / steps
    gap = abs(layers + root_self - root_ms) / root_ms if root_ms else 0.0
    accounting = {
        "name": "layer self times + root self time == traced time (2%)",
        "ok": gap <= 0.02,
        "detail": f"layers {layers:.3f} ms + self {root_self:.3f} ms vs {root_ms:.3f} ms",
    }
    return metrics, accounting


def root_name(spans, span) -> str:
    while span.parent >= 0:
        span = spans[span.parent]
    return span.name


def has_ancestor(spans, span, name: str) -> bool:
    parent = span.parent
    while parent >= 0:
        if spans[parent].name == name:
            return True
        parent = spans[parent].parent
    return False
