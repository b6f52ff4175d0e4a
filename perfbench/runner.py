"""Running a workload: identical repeats, checks, metrics.

A training workload is a sequence of *identical repeats*: each repeat
builds a fresh system from the same initial model and runs the same steps
over the same view schedule, then finalizes (the deferred and lazy state
a run owes is paid inside the timed region). Repeats therefore do the
same work, their spread is machine noise, and every count they produce
must repeat exactly. ``serve_walk`` does the same with client sessions
against a fresh service. Repeats run until ``--seconds`` is used up.
"""

from __future__ import annotations

import gc
import shutil
import statistics
import tempfile
import time
from dataclasses import dataclass, field

import numpy as np

from repro import GSScaleConfig, Trainer
from repro.core import create_system, locality_view_order
from repro.gaussians import GaussianModel, layout
from repro.metrics import psnr
from repro.render import render
from repro.serve import (
    LODSet,
    PagedServingStore,
    RenderRequest,
    RenderService,
    default_serve_raster_config,
)

from . import calibration, scenes, tracing
from .layers import span_metrics
from .stats import percentile, summary
from .workloads import WORKLOADS, ServeWorkload, TrainWorkload, check_guards

ENGINE = "vectorized"

#: PSNR reported for bit-identical images (keeps the metric finite)
PSNR_CAP_DB = 100.0


@dataclass
class RunResult:
    """What one ``(workload, seed, trace)`` run produced."""

    end_to_end: dict = field(default_factory=dict)
    per_layer: dict = field(default_factory=dict)
    checks: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    info: dict = field(default_factory=dict)
    recorder: tracing.Recorder | None = None  # the traced run's spans

    @property
    def correct(self) -> bool:
        return self.failed == 0 and all(c["ok"] for c in self.checks)

    def check(self, name: str, ok: bool, detail: str = "") -> None:
        self.checks.append({"name": name, "ok": bool(ok), "detail": detail})


def _position_medians(samples: list[list[float]]) -> list[float]:
    """Median over repeats of each position's sample: repeats are
    identical, so position ``i`` of every repeat timed the same work and
    a noise burst in one repeat does not move the estimate."""
    return [statistics.median(column) for column in zip(*samples)]


def _timing_metrics(per_op: list[float], extra_s: float, tail: float) -> dict:
    """Throughput and latency percentiles from per-operation medians
    (``extra_s``: time a repeat spends outside its operations)."""
    return {
        "throughput_per_s": {"value": len(per_op) / (sum(per_op) + extra_s)},
        "latency_ms_p50": {"value": percentile(per_op, 50.0) * 1e3, "n": len(per_op)},
        "latency_ms_tail": {"value": percentile(per_op, tail) * 1e3, "n": len(per_op)},
    }


def _repeat_until(seconds: float, trace: bool, run_one):
    """Run repeats for ``seconds``; returns ``(untraced, traced, recorder,
    unresolved)``.

    ``run_one(recorder_or_None) -> repeat`` runs one repeat (with a
    ``wall_s``). In a traced run untraced and traced repeats alternate, so
    both see the same machine state, and the wrappers are installed for
    the traced ones only. The calibration kernel runs between repeats;
    each repeat's ``slowdown`` is the mean of the readings right before
    and right after it (see :mod:`perfbench.calibration`).
    """
    untraced, traced = [], []
    recorder = tracing.Recorder() if trace else None
    unresolved: set[str] = set()
    begin = time.perf_counter()
    before = calibration.slowdown()
    while True:
        gc.collect()
        if trace and len(untraced) > len(traced):
            installed = tracing.install(recorder)
            try:
                rep = run_one(recorder)
            finally:
                tracing.uninstall(installed)
            if not traced:
                for target in installed.unresolved:
                    print(f"  warning: wrap target did not resolve: "
                          f"{target.span} {target.path}")
            unresolved |= installed.unresolved_spans()
            traced.append(rep)
        else:
            rep = run_one(None)
            untraced.append(rep)
        after = calibration.slowdown()
        rep.slowdown = 0.5 * (before + after)
        before = after
        have_both = untraced and (traced or not trace)
        elapsed = time.perf_counter() - begin
        if have_both and elapsed + 0.5 * rep.wall_s >= seconds:
            return untraced, traced, recorder, unresolved


def _at_reference_speed(repeats: list, samples: str) -> list[list[float]]:
    """Each repeat's ``samples`` (a list attribute), divided by how much
    slower than the reference the machine ran around that repeat."""
    return [[t / r.slowdown for t in getattr(r, samples)] for r in repeats]


def _overhead(untraced: list, traced: list) -> float:
    base = statistics.median(r.wall_s / r.slowdown for r in untraced)
    return (statistics.median(r.wall_s / r.slowdown for r in traced) - base) / base


# -- training workloads -------------------------------------------------------


@dataclass
class TrainInputs:
    initial: GaussianModel
    cameras: list
    images: list
    schedule: list[int]
    test_cameras: list
    test_images: list


@dataclass
class TrainRepeat:
    setup_s: float
    wall_s: float
    finalize_s: float
    step_s: list[float]
    losses: list[float]
    visible: list[int]
    regions: list[int]
    num_gaussians: int
    peak_device_bytes: int
    peak_host_bytes: int
    ledger: dict
    prefetch_hits: int
    prefetch_misses: int
    failed: int
    touched: np.ndarray | None = None
    eval_psnr: float | None = None
    slowdown: float = 1.0


def make_train_inputs(w: TrainWorkload, seed: int) -> TrainInputs:
    rng = np.random.default_rng(seed)
    oracle, initial = scenes.make_models(w.site, rng)
    cameras = scenes.sweep_cameras(w.site.extent, **w.views)
    order = (
        locality_view_order(cameras)
        if w.view_order == "locality"
        else np.arange(len(cameras))
    )
    # held-out views: the same rig flown over the site centre
    test_cameras = scenes.sweep_cameras(
        w.site.extent, **{**w.views, "rows": 2, "cols": 2, "span": 0.25}
    )
    return TrainInputs(
        initial=initial,
        cameras=cameras,
        images=scenes.target_images(oracle, cameras),
        schedule=[int(order[i % len(cameras)]) for i in range(w.steps)],
        test_cameras=test_cameras,
        test_images=scenes.target_images(oracle, test_cameras),
    )


def _config(w: TrainWorkload, **overrides) -> GSScaleConfig:
    return GSScaleConfig(
        **{**w.config, "scene_extent": w.site.extent, "engine": ENGINE, **overrides}
    )


def _build_trainer(w: TrainWorkload, inputs: TrainInputs, spill: str):
    """Program set-up of a training workload, timed: ``(trainer, seconds)``."""
    overrides = {"spill_dir": spill} if w.config["system"] == "outofcore" else {}
    t0 = time.perf_counter()
    trainer = Trainer(inputs.initial, _config(w, **overrides))
    return trainer, time.perf_counter() - t0


def _setup_samples(build_and_discard) -> list[float]:
    """Set-up times at reference speed: up to 15 constructions back to
    back (or one second of them). The constructions inside the repeats
    are not mixed in: they run cold, right after a repeat was torn down,
    and take twice as long as these — one population gives one median."""
    seconds = []
    before = calibration.slowdown()
    begin = time.perf_counter()
    while len(seconds) < 15 and time.perf_counter() - begin < 1.0:
        seconds.append(build_and_discard())
    slowdown = 0.5 * (before + calibration.slowdown())
    return [s / slowdown for s in seconds]


def train_repeat(
    w: TrainWorkload,
    inputs: TrainInputs,
    tmp: str,
    recorder: tracing.Recorder | None = None,
    first: bool = False,
) -> TrainRepeat:
    """One repeat: construct, run the schedule, finalize.

    With a ``recorder`` the benchmark loop opens the root spans itself
    (``systems.step`` / ``systems.finalize``); the wrappers must already
    be installed. ``first`` additionally keeps the ids that received
    gradients and evaluates held-out PSNR (outside the timed region).
    """
    spill = tempfile.mkdtemp(prefix="spill-", dir=tmp)
    if recorder is not None:
        recorder.context = -1
        root = recorder.begin("systems.setup")
    trainer, setup_s = _build_trainer(w, inputs, spill)
    if recorder is not None:
        recorder.end(root)
    system = trainer.system
    depth = getattr(system, "prefetch_depth", 0)
    schedule, cameras, images = inputs.schedule, inputs.cameras, inputs.images
    step_s, reports, failed = [], [], 0
    finalized = False
    try:
        begin = time.perf_counter()
        for it, view in enumerate(schedule):
            if depth and it + 1 < len(schedule):
                system.hint_upcoming_views(
                    [cameras[v] for v in schedule[it + 1 : it + 1 + depth]]
                )
            if recorder is not None:
                recorder.context = it
                root = recorder.begin("systems.step")
            t0 = time.perf_counter()
            try:
                reports.append(system.step(cameras[view], images[view]))
            except Exception as exc:  # noqa: BLE001 - a failed step is a failed op
                failed += 1
                print(f"  step {it + 1} raised {type(exc).__name__}: {exc}")
                break
            finally:
                step_s.append(time.perf_counter() - t0)
                if recorder is not None:
                    recorder.end(root)
        if recorder is not None:
            recorder.context = len(schedule)
            root = recorder.begin("systems.finalize")
        t0 = time.perf_counter()
        system.finalize()
        finalized = True
        end = time.perf_counter()
        if recorder is not None:
            recorder.end(root)
        rep = TrainRepeat(
            setup_s=setup_s,
            wall_s=end - begin,
            finalize_s=end - t0,
            step_s=step_s,
            losses=[r.loss for r in reports],
            visible=[r.num_visible for r in reports],
            regions=[r.num_regions for r in reports],
            num_gaussians=system.num_gaussians,
            peak_device_bytes=system.memory.peak_bytes,
            peak_host_bytes=(
                system.host_memory.peak_bytes if hasattr(system, "host_memory") else 0
            ),
            ledger=system.ledger.counts(),
            prefetch_hits=getattr(system, "prefetch_hits", 0),
            prefetch_misses=getattr(system, "prefetch_misses", 0),
            failed=failed,
        )
        if first and not failed:
            rep.touched = np.unique(np.concatenate([r.valid_ids for r in reports]))
            rep.eval_psnr = trainer.evaluate(
                inputs.test_cameras, inputs.test_images
            ).psnr
        return rep
    finally:
        if not finalized:
            system.finalize()  # stops the prefetch thread of a failed repeat
        del trainer, system
        shutil.rmtree(spill, ignore_errors=True)


def reference_run(w: TrainWorkload, inputs: TrainInputs, first: TrainRepeat):
    """Loss trajectory (and all-resident peak bytes) of the reference.

    ``sharded`` runs the full model (its partition depends on it).
    ``gpu_only`` runs the sub-model of rows that ever received a gradient
    in the run under test: dense Adam leaves a row whose gradient is
    always zero untouched, so the restriction follows the same trajectory
    while skipping the dense update of every never-seen row — the cost
    that makes a full ``gpu_only`` epoch unaffordable on ``train_sparse``.
    Its peak is rebuilt from the program's own trackers: the resident
    state of a full-size ``gpu_only`` system plus the transient (the
    activations) the reference run added on top of its own state.
    """
    if w.reference == "sharded":
        system = create_system(
            inputs.initial,
            _config(w, system="sharded", async_prefetch=False, prefetch_depth=1),
        )
        baseline = scenes.host_state_bytes(first.num_gaussians)
    else:
        cfg = _config(w, system="gpu_only")
        system = create_system(inputs.initial.select(first.touched), cfg)
        state = system.memory.peak_bytes
        baseline = None
    reports = [
        system.step(inputs.cameras[v], inputs.images[v]) for v in inputs.schedule
    ]
    system.finalize()
    if baseline is None:
        transient = system.memory.peak_bytes - state
        baseline = create_system(inputs.initial, cfg).memory.peak_bytes + transient
    return [r.loss for r in reports], [r.num_visible for r in reports], baseline


def run_train(
    w: TrainWorkload, seed: int, seconds: float, trace: bool, tmp: str
) -> RunResult:
    result = RunResult()
    t0 = time.perf_counter()
    inputs = make_train_inputs(w, seed)
    input_gen_s = time.perf_counter() - t0

    first = train_repeat(w, inputs, tmp, first=True)
    steps = len(inputs.schedule)
    n = first.num_gaussians
    print(f"  {'step':>4} {'view':>4} {'regions':>7} {'visible':>8} {'active_ratio':>12} {'loss':>12}")
    for it, view in enumerate(inputs.schedule[: len(first.losses)]):
        print(
            f"  {it + 1:>4} {view:>4} {first.regions[it]:>7} {first.visible[it]:>8} "
            f"{first.visible[it] / n:>12.4f} {first.losses[it]:>12.6f}"
        )

    if first.failed:  # nothing to measure: the program does not run
        result.attempted, result.failed = len(first.step_s), first.failed
        return result

    ref_losses, ref_visible, baseline_bytes = reference_run(w, inputs, first)
    if w.reference == "sharded":
        ok = ref_losses == first.losses
        detail = "bit-identical" if ok else f"{first.losses} vs {ref_losses}"
    else:
        err = max(
            abs(a - b) / max(abs(b), 1e-300)
            for a, b in zip(first.losses, ref_losses)
        )
        ok = err <= w.reference_rtol and ref_visible == first.visible
        detail = (
            f"max relative loss error {err:.3e}, "
            f"visible sets equal: {ref_visible == first.visible}"
        )
    result.check(f"losses match the {w.reference} reference", ok, detail)

    untraced, traced, recorder, unresolved = _repeat_until(
        seconds, trace, lambda recorder: train_repeat(w, inputs, tmp, recorder)
    )
    every = [first, *untraced, *traced]

    def extra_setup() -> float:
        spill = tempfile.mkdtemp(prefix="spill-", dir=tmp)
        try:
            trainer, seconds = _build_trainer(w, inputs, spill)
            trainer.system.finalize()  # stops the prefetch thread
            return seconds
        finally:
            shutil.rmtree(spill, ignore_errors=True)

    setups = _setup_samples(extra_setup)

    result.attempted = sum(len(r.step_s) for r in every)
    result.failed = sum(r.failed for r in every)
    result.check(
        "every repeat ends on a bit-identical loss trajectory",
        all(r.losses == first.losses for r in every),
        f"final losses {sorted({tuple(r.losses[-1:]) for r in every})}",
    )
    result.check(
        "transfer and page ledgers identical across repeats",
        all(r.ledger == first.ledger for r in every),
        "h2d/d2h/page counters of every repeat equal the first repeat's",
    )
    result.check(
        "peak tracked bytes identical across repeats",
        all(
            (r.peak_device_bytes, r.peak_host_bytes)
            == (first.peak_device_bytes, first.peak_host_bytes)
            for r in every
        ),
    )

    out_of_core = w.config["system"] == "outofcore"
    peak = first.peak_host_bytes if out_of_core else first.peak_device_bytes
    step_s = _position_medians(_at_reference_speed(untraced, "step_s"))
    finalize_s = statistics.median(r.finalize_s / r.slowdown for r in untraced)
    raw_step_s = _position_medians([r.step_s for r in untraced])
    result.end_to_end = {
        **_timing_metrics(step_s, finalize_s, w.tail_percentile),
        "peak_resident_bytes": {"value": peak},
        "mem_reduction_x": {"value": baseline_bytes / peak},
        "quality_psnr_db": {"value": first.eval_psnr},
        "setup_s": summary(setups),
    }
    facts = {
        "regions_per_step": first.regions,
        "active_ratio": [v / n for v in first.visible],
        "page_in_count": first.ledger["page_in_count"],
        "page_out_count": first.ledger["page_out_count"],
    }
    result.info = {
        "input_gen_s": input_gen_s,
        "steps_per_repeat": steps,
        "untraced_repeats": len(untraced),
        "traced_repeats": len(traced),
        "num_gaussians": n,
        "final_loss": first.losses[-1],
        "finalize_s": statistics.median(r.finalize_s for r in every),
        "setup_in_repeat_s": statistics.median(r.setup_s for r in every),
        "tail_percentile": w.tail_percentile,
        "peak_device_bytes": first.peak_device_bytes,
        "peak_host_bytes": first.peak_host_bytes,
        "baseline_bytes": baseline_bytes,
        "raw_throughput_per_s": steps / (
            sum(raw_step_s) + statistics.median(r.finalize_s for r in untraced)
        ),
        "raw_latency_ms_p50": percentile(raw_step_s, 50.0) * 1e3,
        "machine_slowdown": statistics.median(r.slowdown for r in untraced),
        "step_s": [r.step_s for r in untraced],
        "slowdowns": [r.slowdown for r in untraced],
    }

    if trace:
        last = traced[-1]
        per_step = steps * len(traced)
        from_spans, accounting = span_metrics(
            recorder.spans, recorder.main_thread, unresolved, per_step,
            roots=("systems.step", "systems.finalize"),
        )
        result.checks.append(accounting)
        root = tracing.totals_by_name(recorder.spans)
        zero = tracing.LayerTotals()
        ledger = last.ledger
        hinted = last.prefetch_hits + last.prefetch_misses
        result.per_layer = {
            **from_spans,
            "stores.h2d_bytes_per_step": ledger["h2d_bytes"] / steps,
            "stores.d2h_bytes_per_step": ledger["d2h_bytes"] / steps,
            "optim.rows_total": n,
            "systems.step_ms_per_step": root.get("systems.step", zero).total_s * 1e3 / per_step,
            "systems.step_self_ms_per_step": root.get("systems.step", zero).self_s * 1e3 / per_step,
            "systems.finalize_ms_per_step": root.get("systems.finalize", zero).total_s * 1e3 / per_step,
            "systems.regions_per_step": statistics.fmean(last.regions),
            "systems.active_ratio": statistics.fmean(last.visible) / n,
            "systems.peak_device_bytes": last.peak_device_bytes,
            "pager.page_in_count_per_step": ledger["page_in_count"] / steps,
            "pager.page_out_count_per_step": ledger["page_out_count"] / steps,
            "pager.page_in_bytes_per_step": ledger["page_in_bytes"] / steps,
            "pager.page_out_bytes_per_step": ledger["page_out_bytes"] / steps,
            "pager.disk_bytes_per_step": (
                ledger["page_in_disk_bytes"] + ledger["page_out_disk_bytes"]
            ) / steps,
            "pager.prefetch_hit_ratio": last.prefetch_hits / hinted if hinted else 0.0,
            "pager.peak_host_bytes": last.peak_host_bytes,
            "trace.overhead_fraction": _overhead(untraced, traced),
        }
        facts.update(
            {k: v for k, v in result.per_layer.items() if v is not None}
        )
        result.recorder = recorder
    result.checks += check_guards(w.guards, facts)
    return result


# -- the serving workload -----------------------------------------------------


@dataclass
class ServeInputs:
    model: GaussianModel
    sessions: list[list[RenderRequest]]  # per round: the four clients' requests


@dataclass
class ServeRepeat:
    setup_s: float
    wall_s: float
    latencies_s: list[float]
    round_s: list[float]
    tick_s: list[float]
    lods: list[int]
    stats: dict
    ledger: dict
    peak_host_bytes: int
    model_bytes: int
    failed: int
    sampled: list = field(default_factory=list)  # (request, image) pairs
    exact_frames: int = 0
    exact_checked: int = 0
    slowdown: float = 1.0


def make_serve_inputs(w: ServeWorkload, seed: int) -> ServeInputs:
    rng = np.random.default_rng(seed)
    model, _ = scenes.make_models(w.site, rng)
    a, b, c = (
        scenes.walk_session(w.site.extent, rng, client, w.rounds, w.frame_size)
        for client in range(3)
    )
    # client 0 walks path a; client 1 walks the same path `lag` rounds
    # behind (cache hits, and duplicates of a[0] while it waits); client
    # 2 walks path b; client 3 walks path c at LOD 2
    sessions = [
        [
            RenderRequest(a[r]),
            RenderRequest(a[max(r - w.lag, 0)]),
            RenderRequest(b[r]),
            RenderRequest(c[r], lod=2),
        ]
        for r in range(w.rounds)
    ]
    return ServeInputs(model=model, sessions=sessions)


def _build_service(w: ServeWorkload, inputs: ServeInputs, pages: str):
    """Program set-up of the serving workload, timed: ``(service, seconds)``."""
    n = inputs.model.num_gaussians
    budget = layout.param_bytes(n, layout.GEOMETRIC_DIM) + int(
        w.host_fraction * layout.param_bytes(n, layout.NON_GEOMETRIC_DIM)
    )
    t0 = time.perf_counter()
    store = PagedServingStore.from_model(
        inputs.model, budget, num_shards=w.num_shards, page_dir=pages,
        codec=w.codec,
    )
    service = RenderService(store, lod_set=LODSet.build(inputs.model.params))
    return service, time.perf_counter() - t0


def serve_repeat(
    w: ServeWorkload,
    inputs: ServeInputs,
    tmp: str,
    recorder: tracing.Recorder | None = None,
    first: bool = False,
) -> ServeRepeat:
    """One closed-loop window against a fresh (cold) service: every
    client submits its next request, one ``tick()`` answers the round,
    and only then does the next round start."""
    pages = tempfile.mkdtemp(prefix="pages-", dir=tmp)
    n = inputs.model.num_gaussians
    if recorder is not None:
        recorder.context = -1
        root = recorder.begin("serve.setup")
    service, setup_s = _build_service(w, inputs, pages)
    store = service.store
    if recorder is not None:
        recorder.end(root)
    latencies, rounds, ticks, lods, sampled = [], [], [], [], []
    failed = 0
    try:
        begin = time.perf_counter()
        for r, requests in enumerate(inputs.sessions):
            if recorder is not None:
                recorder.context = r
                root = recorder.begin("serve.round")
            submitted = []
            for request in requests:
                service.submit(request)
                submitted.append(time.perf_counter())
            t0 = time.perf_counter()
            responses = service.tick()
            replied = time.perf_counter()
            if recorder is not None:
                recorder.end(root)
            ticks.append(replied - t0)
            rounds.append(replied - submitted[0])
            latencies += [replied - t for t in submitted]
            for resp in responses:
                lods.append(resp.lod)
                failed += resp.status != "ok"
                if first and resp.image is not None and len(lods) % 5 == 0:
                    sampled.append((resp.request, resp.image))
            failed += len(requests) - len(responses)
        wall = time.perf_counter() - begin
        rep = ServeRepeat(
            setup_s=setup_s,
            wall_s=wall,
            latencies_s=latencies,
            round_s=rounds,
            tick_s=ticks,
            lods=lods,
            stats=service.stats.as_dict(),
            ledger=store.ledger.counts(),
            peak_host_bytes=store.host_memory.peak_bytes,
            model_bytes=store.model_bytes,
            failed=failed,
            sampled=sampled,
        )
        if first:
            # the stored model (float16 pages decoded), rendered directly
            stored = GaussianModel(store.gather(np.arange(n)))
            full = [(q, img) for q, img in sampled if q.lod == 0][:3]
            rep.exact_checked = len(full)
            rep.exact_frames = sum(
                np.array_equal(
                    img, render(stored, q.camera, config=service.config).image
                )
                for q, img in full
            )
        return rep
    finally:
        service.close()
        shutil.rmtree(pages, ignore_errors=True)


def run_serve(
    w: ServeWorkload, seed: int, seconds: float, trace: bool, tmp: str
) -> RunResult:
    result = RunResult()
    t0 = time.perf_counter()
    inputs = make_serve_inputs(w, seed)
    input_gen_s = time.perf_counter() - t0

    first = serve_repeat(w, inputs, tmp, first=True)
    result.check(
        "sampled full-LOD served frames equal a direct render() of the stored model",
        first.exact_checked > 0 and first.exact_frames == first.exact_checked,
        f"{first.exact_frames} of {first.exact_checked} bit-identical",
    )
    # quality: served frames against the original model, full-detail
    # requests only — what a reduced level happens to drop swings its PSNR
    # between 11 and 47 dB from seed to seed
    config = default_serve_raster_config()
    scores = [
        min(psnr(img, render(inputs.model, q.camera, config=config).image), PSNR_CAP_DB)
        for q, img in first.sampled
        if q.lod == 0
    ]

    untraced, traced, recorder, unresolved = _repeat_until(
        seconds, trace, lambda recorder: serve_repeat(w, inputs, tmp, recorder)
    )
    every = [first, *untraced, *traced]

    def extra_setup() -> float:
        pages = tempfile.mkdtemp(prefix="pages-", dir=tmp)
        try:
            service, seconds = _build_service(w, inputs, pages)
            service.close()
            return seconds
        finally:
            shutil.rmtree(pages, ignore_errors=True)

    setups = _setup_samples(extra_setup)
    result.attempted = sum(len(s) for s in inputs.sessions) * len(every)
    result.failed = sum(r.failed for r in every)
    counters = ("requests", "ticks", "frames_rendered", "cache_hits",
                "cache_misses", "deduped", "degraded", "rejected")
    result.check(
        "serve counters and page ledger identical across repeats",
        all(
            r.ledger == first.ledger
            and all(r.stats[c] == first.stats[c] for c in counters)
            for r in every
        ),
    )

    requests = first.stats["requests"]
    frames = first.stats["frames_rendered"]
    # a round answers its four requests together: a session's wall time is
    # the sum of its rounds, a request's latency its reply minus its submit
    round_s = _position_medians(_at_reference_speed(untraced, "round_s"))
    latency_s = _position_medians(_at_reference_speed(untraced, "latencies_s"))
    raw_round_s = _position_medians([r.round_s for r in untraced])
    timing = _timing_metrics(latency_s, 0.0, w.tail_percentile)
    timing["throughput_per_s"] = {"value": len(latency_s) / sum(round_s)}
    result.end_to_end = {
        **timing,
        "peak_resident_bytes": {"value": first.peak_host_bytes},
        "mem_reduction_x": {"value": first.model_bytes / first.peak_host_bytes},
        "quality_psnr_db": {"value": statistics.fmean(scores) if scores else 0.0},
        "setup_s": summary(setups),
    }
    hit_ratio = first.stats["cache_hits"] / requests
    facts = {
        "cache_hit_ratio": hit_ratio,
        "page_in_count": first.ledger["page_in_count"],
    }
    result.info = {
        "input_gen_s": input_gen_s,
        "requests_per_repeat": requests,
        "untraced_repeats": len(untraced),
        "traced_repeats": len(traced),
        "num_gaussians": inputs.model.num_gaussians,
        "tail_percentile": w.tail_percentile,
        "sampled_frames": len(scores),
        "setup_in_repeat_s": statistics.median(r.setup_s for r in every),
        "model_bytes": first.model_bytes,
        "raw_throughput_per_s": len(latency_s) / sum(raw_round_s),
        "raw_latency_ms_p50": percentile(
            _position_medians([r.latencies_s for r in untraced]), 50.0
        ) * 1e3,
        "machine_slowdown": statistics.median(r.slowdown for r in untraced),
        "round_s": [r.round_s for r in untraced],
        "slowdowns": [r.slowdown for r in untraced],
    }
    if trace:
        last = traced[-1]
        rounds = len(inputs.sessions) * len(traced)
        from_spans, accounting = span_metrics(
            recorder.spans, recorder.main_thread, unresolved, rounds,
            roots=("serve.round",),
        )
        result.checks.append(accounting)
        main = tracing.totals_by_name(recorder.spans)
        zero = tracing.LayerTotals()
        traced_frames = frames * len(traced)

        def per_frame(name: str):
            if name in unresolved:
                return None
            return main.get(name, zero).self_s * 1e3 / traced_frames

        result.per_layer = {
            **from_spans,
            "serve.tick_ms_p50": percentile(last.tick_s, 50.0) * 1e3,
            "serve.tick_self_ms_per_round": (
                None if "serve.tick" in unresolved
                else main.get("serve.tick", zero).self_s * 1e3 / rounds
            ),
            "serve.batch_size_mean": frames / first.stats["ticks"],
            "serve.cache_hit_ratio": hit_ratio,
            "serve.dedupe_ratio": first.stats["deduped"] / requests,
            "serve.render_ms_per_frame": per_frame("render.forward"),
            "serve.gather_ms_per_frame": per_frame("serve.gather"),
            "serve.page_in_count_per_frame": last.ledger["page_in_count"] / frames,
            "serve.page_in_bytes_per_frame": last.ledger["page_in_bytes"] / frames,
            "serve.lod_mean": statistics.fmean(last.lods),
            "serve.degraded_fraction": first.stats["degraded"] / requests,
            "pager.peak_host_bytes": last.peak_host_bytes,
            "trace.overhead_fraction": _overhead(untraced, traced),
        }
        result.recorder = recorder
    result.checks += check_guards(w.guards, facts)
    return result


def run_workload(
    name: str, seed: int, seconds: float, trace: bool, tmp: str, quick: bool = False
) -> RunResult:
    """Run one workload (``quick`` swaps in the unit-test size, which
    carries no regime guards)."""
    w = WORKLOADS[name]
    if quick:
        w = w.quick()
    runner = run_train if isinstance(w, TrainWorkload) else run_serve
    return runner(w, seed, seconds, trace, tmp)
