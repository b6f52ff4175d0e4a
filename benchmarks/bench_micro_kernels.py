"""Micro-benchmarks of the library's hot kernels (pytest-benchmark).

These time the actual Python/numpy implementations — useful for tracking
regressions and for demonstrating the deferred update's traffic advantage
on real hardware (this machine's CPU), not just in the analytic model."""

import numpy as np
import pytest

from repro.cameras import Camera
from repro.gaussians import GaussianModel, layout
from repro.optim import AdamConfig, DeferredAdam, DenseAdam
from repro.render import frustum_cull, render, render_backward

N_ROWS = 60_000
ACTIVE = 5_000  # ~8.3%, the paper's average active ratio


@pytest.fixture(scope="module")
def param_store():
    rng = np.random.default_rng(0)
    return rng.normal(size=(N_ROWS, layout.PARAM_DIM)).astype(np.float64)


@pytest.fixture(scope="module")
def grads():
    rng = np.random.default_rng(1)
    return rng.normal(size=(ACTIVE, layout.PARAM_DIM)).astype(np.float64)


def test_dense_adam_step(benchmark, param_store, grads):
    opt = DenseAdam(param_store.copy(), AdamConfig(lr=1e-3))
    ids = np.arange(ACTIVE)

    def step():
        opt.step_sparse(ids, grads)

    benchmark(step)


def test_deferred_adam_step(benchmark, param_store, grads):
    opt = DeferredAdam(param_store.copy(), AdamConfig(lr=1e-3))
    ids = np.arange(ACTIVE)

    def step():
        opt.step(ids, grads)

    benchmark(step)


def test_deferred_vs_dense_speed(benchmark, param_store, grads):
    """The deferred update must beat dense at the paper's active ratio
    even in numpy (it touches ~12x fewer rows)."""
    import time

    def compare():
        ids = np.arange(ACTIVE)
        dense = DenseAdam(param_store.copy(), AdamConfig(lr=1e-3))
        deferred = DeferredAdam(param_store.copy(), AdamConfig(lr=1e-3))
        for _ in range(2):  # warmup
            dense.step_sparse(ids, grads)
            deferred.step(ids, grads)
        t0 = time.perf_counter()
        for _ in range(5):
            dense.step_sparse(ids, grads)
        t_dense = time.perf_counter() - t0
        t0 = time.perf_counter()
        for _ in range(5):
            deferred.step(ids, grads)
        t_deferred = time.perf_counter() - t0
        return t_dense, t_deferred

    t_dense, t_deferred = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert t_deferred < t_dense


# -- whole-model optimizer passes (the row kernel's reason to exist) ----------
# The rows above are steady state: ~8% of the rows carry a gradient. These
# three are the passes that touch *every* row — the step where the defer
# counters saturate, the flush, and dense Adam over the geometric block —
# at a size whose (N, D) arrays no allocator hands back for free.

GATE_ROWS = 20_000
GATE_IDS = np.arange(0, GATE_ROWS, 40)


def _gate_deferred():
    rng = np.random.default_rng(4)
    dim = layout.NON_GEOMETRIC_DIM
    opt = DeferredAdam(rng.normal(size=(GATE_ROWS, dim)), AdamConfig(lr=1e-3))
    opt.step(GATE_IDS, rng.normal(size=(GATE_IDS.size, dim)))
    return opt, rng.normal(size=(GATE_IDS.size, dim))


def _gate_dense():
    rng = np.random.default_rng(5)
    dim = layout.GEOMETRIC_DIM
    opt = DenseAdam(rng.normal(size=(GATE_ROWS, dim)), AdamConfig(lr=1e-3))
    return opt, rng.normal(size=(GATE_IDS.size, dim))


def _saturate(opt):
    opt.counter[...] = opt.max_defer  # the next step restores every row


def _stagger(opt):
    opt.counter[...] = np.arange(opt.num_rows) % (opt.max_defer + 1)


def test_deferred_saturation_step(benchmark):
    opt, g = _gate_deferred()
    stats = benchmark.pedantic(
        lambda: opt.step(GATE_IDS, g), setup=lambda: _saturate(opt), rounds=5
    )
    assert stats.rows_updated == GATE_ROWS


def test_deferred_flush(benchmark):
    opt, _ = _gate_deferred()
    stats = benchmark.pedantic(opt.flush, setup=lambda: _stagger(opt), rounds=5)
    assert stats.rows_updated == GATE_ROWS and not opt.counter.any()


def test_dense_adam_sparse_step(benchmark):
    opt, g = _gate_dense()
    stats = benchmark(lambda: opt.step_sparse(GATE_IDS, g))
    assert stats.rows_updated == GATE_ROWS


def test_optimizer_allocation_gate():
    """A byte count, not a timing: each whole-model pass peaks below one
    ``N * D * itemsize`` of traced allocation (the out-of-place formulas
    measured 10.0x, 6.0x and 7.0x here), so it holds on a 1-CPU runner."""
    from repro.bench import traced_peak_bytes

    opt, g = _gate_deferred()
    _saturate(opt)
    ratios = {
        "saturation step": traced_peak_bytes(lambda: opt.step(GATE_IDS, g))
        / opt.params.nbytes
    }
    _stagger(opt)
    ratios["flush"] = traced_peak_bytes(opt.flush) / opt.params.nbytes
    dense, g = _gate_dense()
    dense.step_sparse(GATE_IDS, g)
    ratios["dense sparse step"] = (
        traced_peak_bytes(lambda: dense.step_sparse(GATE_IDS, g))
        / dense.params.nbytes
    )
    print({k: round(v, 3) for k, v in ratios.items()})
    assert max(ratios.values()) < 1.0, ratios


@pytest.fixture(scope="module")
def culling_scene():
    rng = np.random.default_rng(2)
    n = 50_000
    means = rng.uniform(-10, 10, size=(n, 3))
    log_scales = np.full((n, 3), np.log(0.05))
    quats = np.zeros((n, 4))
    quats[:, 0] = 1.0
    cam = Camera.look_at([0, -15.0, 5.0], [0, 0, 0], width=256, height=192)
    return means, log_scales, quats, cam


def test_frustum_culling(benchmark, culling_scene):
    means, log_scales, quats, cam = culling_scene
    result = benchmark(lambda: frustum_cull(means, log_scales, quats, cam))
    assert result.num_visible > 0


def test_cull_allocation_gate():
    """A byte count, not a timing, like the gates above: an exact cull of
    120k rows, held as strided column views of a packed ``(N, 10)``
    matrix like a store's ``geometry()``, peaks below ``2 * N * 72`` bytes
    of traced allocation — two float64 ``(N, 3, 3)`` arrays. Projected
    over the whole array it peaked at 561 B per row (67.3 MB) on the
    first view; walked in ``BLOCK_ROWS`` blocks it is 99 B per row (11.9
    MB). Two views: one that sees every row in depth range, under 1% of
    them on the image (the walk reads the views in place), and one whose
    near plane cuts the rows (it gathers). Holds on a 1-CPU runner."""
    from repro.bench import traced_peak_bytes

    n = 120_000
    rng = np.random.default_rng(9)
    packed = np.empty((n, 10))
    packed[:, 0:3] = rng.uniform([-50, -50, 0], [50, 50, 4], size=(n, 3))
    packed[:, 3:6] = rng.normal(np.log(0.2), 0.5, size=(n, 3))
    packed[:, 6:10] = rng.normal(size=(n, 4))
    geometry = packed[:, 0:3], packed[:, 3:6], packed[:, 6:10]
    views = {
        "in place": Camera.look_at(
            [-70, -70, 10], [-45, -45, 0], width=64, height=48,
            fov_x_deg=8.0,
        ),
        "gathered": Camera.look_at(
            [0, 0, 3], [10, 5, 0], width=64, height=48
        ),
    }
    gate = 2 * n * 72
    peaks = {}
    for name, camera in views.items():
        result = frustum_cull(*geometry, camera)
        assert (result.num_in_depth < n) == (name == "gathered")
        peaks[name] = traced_peak_bytes(lambda: frustum_cull(*geometry, camera))
    print({"gate_bytes": gate, **peaks})
    assert max(peaks.values()) < gate, peaks


@pytest.fixture(scope="module")
def render_scene():
    rng = np.random.default_rng(3)
    n = 400
    means = rng.uniform(-1, 1, size=(n, 3))
    log_scales = rng.uniform(np.log(0.02), np.log(0.1), size=(n, 3))
    quats = rng.normal(size=(n, 4))
    op = rng.uniform(-1, 2, size=n)
    sh = rng.normal(size=(n, 16, 3)) * 0.2
    model = GaussianModel.from_attributes(means, log_scales, quats, op, sh,
                                          dtype=np.float64)
    cam = Camera.look_at([0, -3.0, 0.6], [0, 0, 0], width=64, height=48)
    return model, cam


def test_render_forward(benchmark, render_scene):
    model, cam = render_scene
    res = benchmark(lambda: render(model, cam))
    assert res.image.shape == (48, 64, 3)


def test_render_backward(benchmark, render_scene):
    model, cam = render_scene
    res = render(model, cam)
    grad = np.ones_like(res.image)
    out = benchmark(lambda: render_backward(model, cam, res, grad))
    assert out.param_grads.shape[1] == layout.PARAM_DIM


# ---------------------------------------------------------------------------
# raster engine comparison: reference loop vs vectorized engine
# ---------------------------------------------------------------------------

RASTER_N = 5_000  # ~5k visible splats, the paper's average active count
RASTER_WH = 256

#: The engine matrix's large scene: 50k visible splats.
RASTER_N_LARGE = 50_000


def make_raster_scene(n: int, wh: int, seed: int = 7, sigma=(0.5, 1.2)):
    """Random splat arrays in the paper's regime.

    The default splat scales (sigma 0.5-1.2 px) match
    multi-million-Gaussian scenes, where most visible splats project to a
    few pixels (the EPS_2D low-pass floor alone is sigma ~0.55).
    """
    rng = np.random.default_rng(seed)
    means2d = rng.uniform([0, 0], [wh, wh], size=(n, 2))
    sig = rng.uniform(*sigma, size=n)
    conics = np.stack([1 / sig**2, np.zeros(n), 1 / sig**2], axis=1)
    colors = rng.uniform(0, 1, size=(n, 3))
    opacities = rng.uniform(0.2, 1.0, size=n)
    depths = rng.uniform(1, 20, size=n)
    radii = 3 * sig
    return (means2d, conics, colors, opacities, depths, radii, wh, wh)


def make_occluded_raster_scene(n: int, wh: int, near: int = 32, seed: int = 7):
    """:func:`make_raster_scene` seen from inside the scene: ``near``
    wide, mostly opaque splats stand between the camera and everything
    else, so every tile saturates a few layers in — the regime the
    occlusion prune (``engine.prune_occluded``) exists for."""
    far = make_raster_scene(n, wh, seed)
    rng = np.random.default_rng(seed + 1)
    sig = rng.uniform(400.0, 800.0, size=near)
    front = (
        rng.uniform([0, 0], [wh, wh], size=(near, 2)),
        np.stack([1 / sig**2, np.zeros(near), 1 / sig**2], axis=1),
        rng.uniform(0, 1, size=(near, 3)),
        rng.uniform(0.85, 1.0, size=near),
        rng.uniform(0.1, 1.0, size=near),  # nearer than every far splat
        3 * sig,
    )
    return (
        *(np.concatenate([a, b]) for a, b in zip(front, far[:6])), wh, wh
    )


@pytest.fixture(scope="module")
def raster_scene():
    """~5k visible splats on a 256x256 render."""
    return make_raster_scene(RASTER_N, RASTER_WH)


def test_rasterize_forward_reference(benchmark, raster_scene):
    from repro.render.rasterize import rasterize

    res = benchmark(lambda: rasterize(*raster_scene))
    assert res.image.shape == (RASTER_WH, RASTER_WH, 3)


def test_rasterize_forward_vectorized(benchmark, raster_scene):
    from repro.render.engine import rasterize_vectorized

    res = benchmark(lambda: rasterize_vectorized(*raster_scene))
    assert res.image.shape == (RASTER_WH, RASTER_WH, 3)


def test_rasterize_backward_reference(benchmark, raster_scene):
    from repro.render.backward import rasterize_backward
    from repro.render.rasterize import rasterize

    res = rasterize(*raster_scene)
    grad = np.ones((RASTER_WH, RASTER_WH, 3))
    out = benchmark(
        lambda: rasterize_backward(
            raster_scene[0], raster_scene[1], raster_scene[2],
            raster_scene[3], res, grad,
        )
    )
    assert out.means2d.shape == (RASTER_N, 2)


def test_rasterize_backward_vectorized(benchmark, raster_scene):
    """The standalone adjoint: the forward's saved pair table is stripped,
    so every round rebuilds pairs and scan — comparable with the
    reference backward above, which also starts from ``order``/``bboxes``
    alone. The training path (saved context) is the ``backward_s`` column
    of ``test_raster_engine_matrix``."""
    from dataclasses import replace

    from repro.render.engine import (
        rasterize_backward_vectorized,
        rasterize_vectorized,
    )

    res = replace(rasterize_vectorized(*raster_scene), saved=None)
    grad = np.ones((RASTER_WH, RASTER_WH, 3))
    out = benchmark(
        lambda: rasterize_backward_vectorized(
            raster_scene[0], raster_scene[1], raster_scene[2],
            raster_scene[3], res, grad,
        )
    )
    assert out.means2d.shape == (RASTER_N, 2)


def test_raster_backward_allocation_gate():
    """A byte count, not a timing, like the optimizer's gate above: the
    backward's traced peak over a table of >= 500k pairs (``train_raster``'s
    shape: 2k splats, ~70 pairs per pixel at 128x128) stays below one
    pair-sized float64 array. The unblocked kernel held 25 of them at
    once (25.1x, 158 MB, on ``train_raster``'s tables); in blocks of
    ``BLOCK_PAIRS`` it is 0.33x here. Holds on a 1-CPU runner."""
    from repro.bench import traced_peak_bytes
    from repro.render.engine import (
        rasterize_backward_vectorized,
        rasterize_vectorized,
    )

    scene = make_raster_scene(2_000, 128, sigma=(3.0, 6.0))
    res = rasterize_vectorized(*scene)
    pairs = res.counts.pairs
    assert pairs >= 500_000, pairs
    grad = np.ones((128, 128, 3))
    peak = traced_peak_bytes(
        lambda: rasterize_backward_vectorized(*scene[:4], res, grad)
    )
    ratio = peak / (pairs * 8)
    print({"pairs": pairs, "peak_bytes": peak, "ratio": round(ratio, 3)})
    assert ratio < 1.0, ratio


def test_raster_engine_speedup(benchmark, raster_scene):
    """The vectorized engine must beat the reference loop by >= 5x on both
    passes at the paper's active-splat scale (best-of-3 to be robust)."""
    import time

    from repro.render.backward import rasterize_backward
    from repro.render.engine import (
        rasterize_backward_vectorized,
        rasterize_vectorized,
    )
    from repro.render.rasterize import rasterize

    def best_of(fn, rounds=3):
        fn()  # warmup
        times = []
        for _ in range(rounds):
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
        return min(times)

    def compare():
        ref_res = rasterize(*raster_scene)
        vec_res = rasterize_vectorized(*raster_scene)
        np.testing.assert_allclose(
            vec_res.image, ref_res.image, atol=1e-9, rtol=0
        )
        grad = np.ones((RASTER_WH, RASTER_WH, 3))
        fwd_ref = best_of(lambda: rasterize(*raster_scene))
        fwd_vec = best_of(lambda: rasterize_vectorized(*raster_scene))
        bwd_ref = best_of(
            lambda: rasterize_backward(
                raster_scene[0], raster_scene[1], raster_scene[2],
                raster_scene[3], ref_res, grad,
            )
        )
        bwd_vec = best_of(
            lambda: rasterize_backward_vectorized(
                raster_scene[0], raster_scene[1], raster_scene[2],
                raster_scene[3], vec_res, grad,
            )
        )
        return fwd_ref / fwd_vec, bwd_ref / bwd_vec

    fwd_speedup, bwd_speedup = benchmark.pedantic(compare, rounds=1, iterations=1)
    assert fwd_speedup >= 5.0, f"forward speedup only {fwd_speedup:.1f}x"
    assert bwd_speedup >= 5.0, f"backward speedup only {bwd_speedup:.1f}x"


# ---------------------------------------------------------------------------
# float32 fast path and the engine matrix
# ---------------------------------------------------------------------------

import json
import os
import time


def _best_of(fn, rounds=3):
    fn()  # warmup
    times = []
    for _ in range(rounds):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return min(times)


def test_rasterize_forward_vectorized_f32(benchmark, raster_scene):
    """The float32 inference fast path (micro-bench column; parity is
    pinned by tests/render/test_engine_equivalence.py)."""
    from repro.render import RasterConfig
    from repro.render.engine import rasterize_vectorized

    cfg = RasterConfig(dtype="float32")
    res = benchmark(lambda: rasterize_vectorized(*raster_scene, config=cfg))
    assert res.image.dtype == np.float32


def test_raster_engine_matrix(benchmark):
    """Engine x splat-count x dtype timing matrix.

    Writes ``benchmarks/out/BENCH_raster.json`` — the perf-trajectory
    artifact the CI perf-smoke job uploads. ``GSSCALE_BENCH_QUICK=1``
    shrinks the grid so shared runners finish in seconds; no speedup is
    asserted here (timings on shared runners are informational). The
    fragment rows sweep the shard count (the slices run on the block
    threads, one per usable CPU, as every flat engine's do). The ``vectorized``
    rows time the backward twice: ``backward_s`` from the forward's saved
    pair table (the training path) and ``backward_rebuild_s`` with it
    stripped (the fallback a foreign forward takes). One ``occluded`` row
    per flat engine (``scene: "occluded"``, in-process) renders
    :func:`make_occluded_raster_scene` and reports, beside ``forward_s``,
    the ``pairs`` the forward built and the ``pruned_isects`` the
    occlusion prune dropped on the way (``RasterResult.counts``).
    """
    from dataclasses import replace
    from functools import partial

    from repro.render import RasterConfig
    from repro.render.engine import (
        rasterize_backward_vectorized,
        rasterize_vectorized,
    )
    from repro.render.fragment import (
        rasterize_backward_fragment,
        rasterize_fragment,
    )

    quick = os.environ.get("GSSCALE_BENCH_QUICK", "") not in ("", "0")
    sizes = (2_000,) if quick else (RASTER_N, RASTER_N_LARGE)
    shard_axis = (1, 2) if quick else (1, 2, 4)
    rounds = 1 if quick else 2

    def run_matrix():
        entries = []
        occluded = make_occluded_raster_scene(sizes[0], RASTER_WH)
        for name, fwd, cfg in (
            ("vectorized", rasterize_vectorized, RasterConfig()),
            ("fragment", rasterize_fragment,
             RasterConfig(engine="fragment", fragment_shards=2)),
        ):
            run = partial(fwd, *occluded, config=cfg)
            counts = run().counts
            entries.append({
                "engine": name, "dtype": "float64",
                "splats": int(occluded[0].shape[0]), "scene": "occluded",
                "forward_s": _best_of(run, rounds), "pairs": counts.pairs,
                "pruned_isects": counts.pruned_isects,
            })
        for n in sizes:
            scene = make_raster_scene(n, RASTER_WH)
            grad = np.ones((RASTER_WH, RASTER_WH, 3))

            def add(engine, dtype, fwd, bwd, **extra):
                entries.append({
                    "engine": engine, "dtype": dtype,
                    "splats": n,
                    "forward_s": _best_of(fwd, rounds),
                    "backward_s": _best_of(bwd, rounds) if bwd else None,
                    **extra,
                })

            for dtype in (None, "float32"):
                cfg = RasterConfig(dtype=dtype)
                res = rasterize_vectorized(*scene, config=cfg)

                def bwd_vec(res, cfg=cfg):
                    return rasterize_backward_vectorized(
                        scene[0], scene[1], scene[2], scene[3], res, grad,
                        config=cfg,
                    )

                add(
                    "vectorized", dtype or "float64",
                    lambda cfg=cfg: rasterize_vectorized(*scene, config=cfg),
                    partial(bwd_vec, res),
                    backward_rebuild_s=_best_of(
                        partial(bwd_vec, replace(res, saved=None)), rounds
                    ),
                )
            for shards in shard_axis:
                cfg = RasterConfig(engine="fragment", fragment_shards=shards)
                res = rasterize_fragment(*scene, config=cfg)
                add(
                    "fragment", "float64",
                    lambda cfg=cfg: rasterize_fragment(*scene, config=cfg),
                    lambda res=res, cfg=cfg: rasterize_backward_fragment(
                        scene[0], scene[1], scene[2], scene[3], res, grad,
                        config=cfg,
                    ),
                    shards=shards,
                )
        return entries

    entries = benchmark.pedantic(run_matrix, rounds=1, iterations=1)
    out_dir = os.path.join(os.path.dirname(__file__), "out")
    os.makedirs(out_dir, exist_ok=True)
    payload = {
        "quick": quick,
        "cpu_count": os.cpu_count(),
        "image": f"{RASTER_WH}x{RASTER_WH}",
        "entries": entries,
    }
    with open(os.path.join(out_dir, "BENCH_raster.json"), "w") as fh:
        json.dump(payload, fh, indent=2)
    assert entries and all(e["forward_s"] > 0 for e in entries)


def test_ssim_with_grad(benchmark):
    from repro.metrics import ssim_with_grad

    rng = np.random.default_rng(4)
    a = rng.uniform(size=(128, 128, 3))
    b = rng.uniform(size=(128, 128, 3))
    val, grad = benchmark(lambda: ssim_with_grad(a, b))
    assert grad.shape == a.shape
