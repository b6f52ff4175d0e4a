"""Multi-core tile-span rasterization (forward + backward).

PR 1's vectorized engine removed the interpreter from the raster hot path
but still runs on one core. This module adds the next multiplier: after
the flat intersection sort, the table is cut into contiguous **tile
spans** — load-balanced by pair counts (clipped-rect areas), not tile
counts, the BalanceGS observation — and the spans run on a **persistent**
``multiprocessing`` pool. A pixel's blend segment lives entirely inside
one tile, so spans composite disjoint pixels: the forward merge is a
scatter, and the backward merge is a fixed-order sum of per-span
``np.bincount`` partials.

The engine is a scheduler: a span builds its slice of the pair table and
hands it to the pair kernel of :mod:`repro.render.engine`, the same
arithmetic the ``vectorized`` engine runs over the whole table. Data
reaches the workers through a shared-memory pair table
(:func:`repro.pool.pack_shm`): the parent packs the splat arrays and the
sorted intersection table into one segment, workers attach by name and
slice their span — nothing but the task tuple and the per-span partial
results crosses the pickle channel. :func:`run_slices` is that dispatch,
shared with the ``fragment`` engine; the pool itself is
:class:`repro.pool.PersistentPool`.

Numerics match the vectorized engine to ~1e-12 (the only difference is
prefix-scan rounding at span boundaries) for every worker count — with
one span, ``workers <= 1``, exactly — and repeated runs with a fixed
worker count are bit-identical: span partitioning is a pure function of the inputs and the merge order is
fixed. ``tests/render/test_parallel_engine.py`` and
``tests/render/test_pair_kernel.py`` pin both.
"""

from __future__ import annotations

import numpy as np

from .. import faults
from ..pool import attach_shm, get_raster_pool, pack_shm, shm_views
from ..telemetry.trace import span as _tspan
from .backward import RasterGrads, alloc_grads
from .engine import (
    TILE_SIZE,
    _transmittance_scan,
    backward_pairs,
    clip_isect_rects,
    composite_pairs,
    fill_grads,
    local_ids,
    pairs_for_isects,
    prepare,
    visible_intersections,
)
from .rasterize import PairCounts, RasterConfig, RasterResult, config_bboxes
from .tiles import adaptive_span_count, partition_spans

__all__ = [
    "rasterize_parallel",
    "rasterize_backward_parallel",
    "run_slices",
]


# ---------------------------------------------------------------------------
# slice dispatch (shared with the fragment engine)
# ---------------------------------------------------------------------------

def _slice_task(args):
    """Pool task: attach the shared arrays, run one slice, detach.

    The slice runs inside a ``pool/<fn name>`` span — ``pool/forward`` or
    ``pool/backward`` for both pooled engines, which is what the measured
    breakdown (:mod:`repro.telemetry.compare`) counts as ``fwd_bwd``.
    """
    shm_name, metas, fn, slc, kwargs = args
    shm = attach_shm(shm_name)
    arr = None
    try:
        arr = shm_views(shm, metas)
        with _tspan(f"pool/{fn.__name__.lstrip('_')}", "pool"):
            out = fn(arr, *slc, **kwargs)
    finally:
        del arr  # drop buffer views so close() cannot see exports
        shm.close()
    return out


def run_slices(fn, arrays, slices, workers, **kwargs):
    """``fn(arrays, *slice, **kwargs)`` for every slice, in slice order.

    In-process for ``workers <= 1`` (or a single slice), else on the
    shared pool with ``arrays`` packed into one shared-memory segment.
    ``fn`` — a module-level ``_forward`` / ``_backward`` — sees identical
    arrays in both paths and results come back in slice order either way,
    so the merged output does not depend on where a slice ran.
    """
    if workers <= 1 or len(slices) <= 1:
        return [fn(arrays, *slc, **kwargs) for slc in slices]
    shm, metas = pack_shm(arrays)
    try:
        tasks = [(shm.name, metas, fn, slc, kwargs) for slc in slices]
        return get_raster_pool(workers).map(_slice_task, tasks)
    finally:
        shm.close()
        shm.unlink()


# ---------------------------------------------------------------------------
# per-span passes (run in workers; also in-process for workers <= 1)
# ---------------------------------------------------------------------------

def _span_pairs(arr, start, stop, width, height, tiles_x, config, tile_size):
    return pairs_for_isects(
        arr["means2d"], arr["conics"], arr["opacities"], arr["bboxes"],
        arr["tile_ids"][start:stop], arr["sid"][start:stop], tiles_x,
        width, height, config, tile_size,
    )


def _forward(arr, start, stop, width, height, tiles_x, config, tile_size):
    """Composite one tile span; returns its table's
    :class:`~repro.render.rasterize.PairCounts` and ``(nz, trans, rgb)``,
    or ``None`` in its place for a span without pairs.

    ``nz`` are the span's touched pixel ids — disjoint from every other
    span's, because spans cut only at tile boundaries.
    """
    faults.fault_point("span:forward")
    pairs = _span_pairs(
        arr, start, stop, width, height, tiles_x, config, tile_size
    )
    if pairs.alpha.size == 0:
        return pairs.pair_counts, None
    seg_log_t, t_before = _transmittance_scan(pairs)
    seg_ids = np.repeat(
        np.arange(pairs.nz.size, dtype=np.int64), pairs.counts
    )
    rgb = composite_pairs(
        pairs, t_before, arr["colors"], seg_ids, pairs.nz.size
    )
    return pairs.pair_counts, (pairs.nz, np.exp2(seg_log_t), rgb)


def _backward(arr, start, stop, width, height, tiles_x, config, tile_size):
    """Gradient partials of one tile span: ``(uids, colors, opacities,
    conics, gmx, gmy)`` over just the splats the span touches, or ``None``
    for an empty span (see :func:`repro.render.engine.fill_grads`)."""
    faults.fault_point("span:backward")
    pairs = _span_pairs(
        arr, start, stop, width, height, tiles_x, config, tile_size
    )
    if pairs.alpha.size == 0:
        return None
    uids, lid = local_ids(
        arr["sid"][start:stop], pairs.sid, arr["means2d"].shape[0]
    )
    _, t_before = _transmittance_scan(pairs)
    g_flat, nz = arr["grad_image"], pairs.nz
    return uids, backward_pairs(
        arr["means2d"], arr["conics"], arr["colors"], arr["opacities"],
        g_flat, width, config.alpha_max, pairs,
        t_before=t_before, groups=(pairs.starts, pairs.counts),
        base=(g_flat[nz] @ arr["background"]) * arr["t_final"][nz],
        base_has_total=False, rid=lid, m=uids.size,
    )


# ---------------------------------------------------------------------------
# span planning
# ---------------------------------------------------------------------------

def _plan_spans(tile_ids, sid, bboxes, tiles_x, tile_size, num_spans):
    """Pair-count-weighted contiguous spans of the intersection table."""
    rx0, rx1, ry0, ry1 = clip_isect_rects(
        bboxes, tile_ids, sid, tiles_x, tile_size
    )
    weights = (rx1 - rx0) * (ry1 - ry0)
    return partition_spans(tile_ids, weights, num_spans)


def _run_spans(fn, arrays, tiles_x, width, height, config, tile_size):
    """Plan the spans of ``arrays``' intersection table and run ``fn`` on
    each. The table was pruned on the host, before span planning, so
    every worker count (and the in-process path) composites the same one.
    """
    spans = _plan_spans(
        arrays["tile_ids"], arrays["sid"], arrays["bboxes"], tiles_x,
        tile_size,
        adaptive_span_count(config.workers, config.span_oversubscription),
    )
    return run_slices(
        fn, arrays, spans, config.workers, width=width, height=height,
        tiles_x=tiles_x, config=config, tile_size=tile_size,
    )


# ---------------------------------------------------------------------------
# forward
# ---------------------------------------------------------------------------

def rasterize_parallel(
    means2d: np.ndarray,
    conics: np.ndarray,
    colors: np.ndarray,
    opacities: np.ndarray,
    depths: np.ndarray,
    radii: np.ndarray,
    width: int,
    height: int,
    background: np.ndarray | None = None,
    config: RasterConfig | None = None,
    tile_size: int = TILE_SIZE,
) -> RasterResult:
    """Multi-core tile-span compositor; same contract as
    :func:`repro.render.rasterize.rasterize`.

    ``config.workers`` selects the span/pool fan-out; ``0``/``1`` run the
    span pipeline serially in-process (useful for parity testing the span
    machinery without process overhead).
    """
    config, background, splats = prepare(
        config, background, means2d, conics, colors, opacities
    )
    order = np.argsort(depths, kind="stable")
    bboxes = config_bboxes(means2d, radii, width, height, config)
    means2d, conics, colors, opacities = splats
    dtype = means2d.dtype

    tile_ids, sid, tiles_x, num_pruned = visible_intersections(
        means2d, conics, opacities, bboxes, order, width, height, config,
        tile_size,
    )
    n_pix = width * height
    image = np.zeros((n_pix, 3), dtype=dtype)
    trans = np.ones(n_pix, dtype=dtype)
    # the prune ran here, on the host; the spans count the rest
    counts = [PairCounts(pruned_isects=num_pruned)]
    if tile_ids.size:
        arrays = {
            "means2d": means2d, "conics": conics, "colors": colors,
            "opacities": opacities, "bboxes": bboxes,
            "tile_ids": tile_ids, "sid": sid,
        }
        for span_counts, res in _run_spans(
            _forward, arrays, tiles_x, width, height, config, tile_size
        ):
            counts.append(span_counts)
            if res is None:
                continue
            nz, span_trans, rgb = res
            trans[nz] = span_trans
            image[nz] = rgb
    image += trans[:, None] * background
    return RasterResult(
        image=image.reshape(height, width, 3),
        final_transmittance=trans.reshape(height, width),
        order=order,
        bboxes=bboxes,
        counts=PairCounts.total(counts),
    )


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def rasterize_backward_parallel(
    means2d: np.ndarray,
    conics: np.ndarray,
    colors: np.ndarray,
    opacities: np.ndarray,
    result: RasterResult,
    grad_image: np.ndarray,
    background: np.ndarray | None = None,
    config: RasterConfig | None = None,
    tile_size: int = TILE_SIZE,
) -> RasterGrads:
    """Multi-core adjoint of :func:`rasterize_parallel`; same contract as
    :func:`repro.render.backward.rasterize_backward`."""
    config, background, (means2d, conics, colors, opacities) = prepare(
        config, background, means2d, conics, colors, opacities
    )
    dtype = means2d.dtype
    height, width = grad_image.shape[:2]

    grads = alloc_grads(means2d.shape[0], dtype)
    tile_ids, sid, tiles_x, _ = visible_intersections(
        means2d, conics, opacities, result.bboxes, result.order, width,
        height, config, tile_size,
    )
    if tile_ids.size == 0:
        return grads
    arrays = {
        "means2d": means2d, "conics": conics, "colors": colors,
        "opacities": opacities, "bboxes": result.bboxes,
        "tile_ids": tile_ids, "sid": sid,
        "grad_image": np.ascontiguousarray(
            grad_image.reshape(-1, 3), dtype=dtype
        ),
        "t_final": np.ascontiguousarray(
            result.final_transmittance.reshape(-1), dtype=dtype
        ),
        "background": background,
    }
    return fill_grads(grads, conics, opacities, _run_spans(
        _backward, arrays, tiles_x, width, height, config, tile_size
    ))
