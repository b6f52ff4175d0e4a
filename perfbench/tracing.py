"""The benchmark's own span recorder and the wrappers of the traced run.

Spans are recorded from *outside* the program: for the traced run only,
the layer-boundary public callables of ``repro`` are wrapped (module
functions are rebound in every loaded ``repro.*`` module that holds a
reference, methods are wrapped on their classes), every call becomes a
span in an in-memory list, and :func:`uninstall` puts the original
objects back. The untraced run — the one end-to-end metrics come from —
never sees a wrapper, and the program's own ``telemetry=`` stays off in
both.

A target that no longer resolves (a later refactor renamed it) is
reported in :attr:`Installed.unresolved`; its metrics read as missing,
nothing raises.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time
from dataclasses import dataclass, field

# -- spans --------------------------------------------------------------------


@dataclass
class Span:
    """One timed call: ``parent`` indexes the recorder's span list (-1 for
    a root); ``ctx`` is the step / round the benchmark loop had set when
    the span opened, so the spans of one step share an identifier."""

    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    thread: int = 0
    ctx: int = -1
    attrs: dict | None = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    """In-memory span list with one open-span stack per thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.context = -1
        self.main_thread = threading.get_ident()
        self._stacks = threading.local()
        self._lock = threading.Lock()

    def begin(self, name: str) -> int:
        """Open a span under the calling thread's innermost open span."""
        stack = self._stacks.__dict__.setdefault("stack", [])
        span = Span(
            name=name,
            start=time.perf_counter(),
            parent=stack[-1] if stack else -1,
            thread=threading.get_ident(),
            ctx=self.context,
        )
        with self._lock:  # the prefetch thread records spans too
            self.spans.append(span)
            index = len(self.spans) - 1
        stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        """Close the span opened by :meth:`begin`."""
        span = self.spans[index]
        span.end = time.perf_counter()
        span.attrs = attrs
        self._stacks.stack.pop()

    def wrap(self, fn, name: str, extract=None):
        """``fn`` recorded as a ``name`` span per call.

        ``extract(args, kwargs, result) -> dict`` attaches counts to the
        span; a failing extractor costs the counts, never the call.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = self.begin(name)
            attrs = None
            try:
                result = fn(*args, **kwargs)
                if extract is not None:
                    try:
                        attrs = extract(args, kwargs, result)
                    except Exception:  # noqa: BLE001 - counts are best-effort
                        attrs = None
                return result
            finally:
                self.end(index, attrs)

        return traced


def self_times(spans: list[Span]) -> list[float]:
    """Per-span self time: duration minus the durations of its children.

    Children are nested inside their parent on the parent's thread by
    construction (one stack per thread), so they never overlap each other
    and the subtraction is exact.
    """
    out = [s.duration for s in spans]
    for s in spans:
        if s.parent >= 0:
            out[s.parent] -= s.duration
    return out


@dataclass
class LayerTotals:
    """Aggregate of every (kept) span with one name."""

    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    outer_calls: int = 0
    attrs: dict = field(default_factory=dict)


def totals_by_name(
    spans: list[Span], keep: list[bool] | None = None
) -> dict[str, LayerTotals]:
    """Roll spans up by name (``keep[i]`` false leaves span ``i`` out).

    ``self_s`` sums self times, so the ``self_s`` of all names adds up to
    the duration of the root spans. ``outer_calls`` and ``attrs`` count
    only *outermost* spans of a name (a composite store's ``stage`` calls
    its children's ``stage``; the rows were staged once).
    """
    selfs = self_times(spans)
    out: dict[str, LayerTotals] = {}
    for i, (span, self_s) in enumerate(zip(spans, selfs)):
        if keep is not None and not keep[i]:
            continue
        agg = out.setdefault(span.name, LayerTotals())
        agg.calls += 1
        agg.total_s += span.duration
        agg.self_s += self_s
        parent = span.parent
        while parent >= 0 and spans[parent].name != span.name:
            parent = spans[parent].parent
        if parent < 0:
            agg.outer_calls += 1
            for key, value in (span.attrs or {}).items():
                agg.attrs[key] = agg.attrs.get(key, 0) + value
    return out


def write_chrome_trace(spans: list[Span], path: str, main_thread: int) -> None:
    """Dump spans as Chrome-trace JSON (open in chrome://tracing or
    https://ui.perfetto.dev)."""
    if not spans:
        origin = 0.0
    else:
        origin = min(s.start for s in spans)
    tids: dict[int, int] = {main_thread: 0}
    events = []
    for s in spans:
        tid = tids.setdefault(s.thread, len(tids))
        args = {"ctx": s.ctx}
        if s.attrs:
            args.update(s.attrs)
        events.append(
            {
                "name": s.name,
                "cat": s.name.split(".")[0],
                "ph": "X",
                "ts": (s.start - origin) * 1e6,
                "dur": s.duration * 1e6,
                "pid": 0,
                "tid": tid,
                "args": args,
            }
        )
    for thread, tid in tids.items():
        events.append(
            {
                "name": "thread_name", "ph": "M", "pid": 0, "tid": tid,
                "args": {"name": "main" if thread == main_thread else f"background-{tid}"},
            }
        )
    with open(path, "w") as fh:
        json.dump({"traceEvents": events, "displayTimeUnit": "ms"}, fh)


# -- wrap targets -------------------------------------------------------------


def _rows_of_first_array(args, kwargs, result):
    # bound method call: args[0] is self, args[1] the id array
    return {"rows": int(args[1].size)}


def _cull_counts(args, kwargs, result):
    return {"rows": int(args[0].shape[0]), "visible": int(result.num_visible)}


def _render_counts(args, kwargs, result):
    camera = args[1] if len(args) > 1 else kwargs["camera"]
    return {
        "visible": int(result.valid_ids.size),
        "pixels": int(camera.num_pixels),
    }


def _step_stats(args, kwargs, result):
    return {
        "rows_updated": int(result.rows_updated),
        "rows_total": int(result.rows_total),
        "float_bytes": int(result.float_bytes),
    }


def _split_counts(args, kwargs, result):
    return {"balance": float(result.balance)}


@dataclass(frozen=True)
class Target:
    """One public callable to wrap.

    ``module`` + ``owner`` locate it: ``owner is None`` means the module
    function ``module.attr`` (rebound wherever ``repro`` imported it by
    name); otherwise the method ``attr`` of class ``module.owner``.
    """

    span: str
    module: str
    owner: str | None
    attr: str
    extract: object = None

    @property
    def path(self) -> str:
        """Dotted name of the callable (for messages)."""
        return ".".join(p for p in (self.module, self.owner, self.attr) if p)


_STORE_CLASSES = ("DeviceStore", "HostStore", "DiskStore", "HybridStore", "ShardedStore")
_STORE_OPS = (
    ("stage", _rows_of_first_array),
    ("unstage", _rows_of_first_array),
    ("commit", None),
    ("return_grads", _rows_of_first_array),
)

TARGETS: tuple[Target, ...] = (
    Target("render.cull", "repro.render", None, "frustum_cull", _cull_counts),
    Target("render.forward", "repro.render", None, "render", _render_counts),
    Target("render.backward", "repro.render", None, "render_backward"),
    Target("loss.photometric", "repro.train", None, "photometric_loss"),
    Target("splitting.search", "repro.core", None, "find_balanced_split_by", _split_counts),
    *(
        Target(f"stores.{op}", "repro.core", cls, op, extract)
        for cls in _STORE_CLASSES
        for op, extract in _STORE_OPS
    ),
    Target("optim.step", "repro.optim", "DenseAdam", "step_rows", _step_stats),
    Target("optim.step", "repro.optim", "DeferredAdam", "step_rows", _step_stats),
    Target("pager.page_in", "repro.core", "DiskStore", "page_in"),
    Target("pager.page_out", "repro.core", "DiskStore", "spill"),
    Target("pager.preload", "repro.core", "DiskStore", "preload"),
    Target("pager.adopt", "repro.core", "DiskStore", "adopt"),
    Target("serve.tick", "repro.serve", "RenderService", "tick"),
    Target("serve.cache_get", "repro.serve", "FrameCache", "get"),
    Target("serve.cache_put", "repro.serve", "FrameCache", "put"),
    Target("serve.gather", "repro.serve", "InMemoryServingStore", "gather", _rows_of_first_array),
    Target("serve.gather", "repro.serve", "PagedServingStore", "gather", _rows_of_first_array),
)


@dataclass
class Installed:
    """What :func:`install` changed (so :func:`uninstall` can undo it)
    and which targets did not resolve."""

    recorder: Recorder
    patches: list[tuple[object, str, object]] = field(default_factory=list)
    unresolved: list[Target] = field(default_factory=list)

    def unresolved_spans(self) -> set[str]:
        """Span names with at least one target that did not resolve."""
        return {target.span for target in self.unresolved}


def _loaded_repro_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "repro" or name.startswith("repro."))
    ]


def _resolve(target: Target):
    """``(holder, original)`` of a target, or ``None`` for a method the
    class merely inherits (it is wrapped on the class that defines it).
    Raises ``ImportError`` / ``AttributeError`` when the target is gone."""
    module = importlib.import_module(target.module)
    if target.owner is None:
        return module, getattr(module, target.attr)
    cls = getattr(module, target.owner)
    if target.attr in vars(cls):
        return cls, vars(cls)[target.attr]
    getattr(cls, target.attr)  # AttributeError when not even inherited
    return None


def install(
    recorder: Recorder, targets: tuple[Target, ...] | None = None
) -> Installed:
    """Wrap every resolvable target (default: :data:`TARGETS`); never
    raises for a missing one."""
    installed = Installed(recorder)
    for target in TARGETS if targets is None else targets:
        try:
            resolved = _resolve(target)
        except (ImportError, AttributeError):
            installed.unresolved.append(target)
            continue
        if resolved is None:
            continue
        holder, original = resolved
        wrapper = recorder.wrap(original, target.span, target.extract)
        if target.owner is not None:
            installed.patches.append((holder, target.attr, original))
            setattr(holder, target.attr, wrapper)
            continue
        for mod in _loaded_repro_modules():
            for name, value in list(vars(mod).items()):
                if value is original:
                    installed.patches.append((mod, name, original))
                    setattr(mod, name, wrapper)
    return installed


def uninstall(installed: Installed) -> None:
    """Put every original object back (reverse order of installation)."""
    for holder, name, original in reversed(installed.patches):
        setattr(holder, name, original)
    installed.patches.clear()
