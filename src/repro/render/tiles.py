"""Tile binning and span planning, the gsplat/3DGS work decomposition.

Real GPU rasterizers bin splats into 16x16 pixel tiles and composite each
tile independently so thread blocks get coherent work.
:func:`bin_gaussians` exposes that assignment — the intersection counts the
performance model's forward/backward costs are built on — and
:func:`partition_spans` cuts a tile-sorted intersection table into the
load-balanced spans the ``parallel`` engine fans out.

Binning is vectorized: it delegates to
:func:`repro.render.engine.tile_intersections`, the same flat
``np.repeat``/radix-sort expansion the flat engines composite from, so
``num_intersections`` and the per-tile lists come from a single code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import TILE_SIZE, tile_intersections
from .rasterize import splat_bboxes

__all__ = [
    "SPAN_OVERSUBSCRIPTION",
    "TILE_SIZE",
    "TileBinning",
    "adaptive_span_count",
    "bin_gaussians",
    "partition_spans",
]

#: Span-oversubscription factor of the parallel raster engine: the span
#: planner cuts this many spans per worker instead of one. Pair-count
#: balancing is only approximate (cuts land on tile boundaries, and the
#: per-pair cost model ignores cache effects), so with one span per
#: worker the slowest span sets the pass time; with ~3x spans the pool
#: backfills finished workers and stragglers shrink to span granularity.
SPAN_OVERSUBSCRIPTION = 3


def adaptive_span_count(
    workers: int, oversubscription: int = SPAN_OVERSUBSCRIPTION
) -> int:
    """Target span count for a ``workers``-process parallel raster pass.

    ``workers <= 1`` runs in-process, where extra spans are pure overhead
    (one span); pooled runs oversubscribe by ``oversubscription`` (default
    :data:`SPAN_OVERSUBSCRIPTION`, tunable per render via
    ``RasterConfig.span_oversubscription``) for straggler smoothing.
    :func:`partition_spans` may still return fewer spans when the
    intersection table has fewer tiles.
    """
    if workers <= 1:
        return 1
    return workers * max(int(oversubscription), 1)


def partition_spans(
    tile_ids: np.ndarray, weights: np.ndarray, num_spans: int
) -> list[tuple[int, int]]:
    """Cut a tile-sorted intersection table into load-balanced spans.

    Spans are contiguous index ranges ``[start, stop)`` whose boundaries
    fall only between tiles — a pixel's blend segment lives entirely in
    one tile, so every span composites independently. Balance is by the
    per-intersection ``weights`` (pair counts, i.e. clipped-rect areas),
    not by tile counts: a handful of screen-filling splats would otherwise
    starve all but one worker.

    Args:
        tile_ids: ascending tile id per intersection (the sort order of
            :func:`repro.render.engine.tile_intersections`).
        weights: non-negative per-intersection load estimate.
        num_spans: target span count; fewer are returned when the table
            has fewer tiles.

    Returns:
        At most ``num_spans`` non-empty ``(start, stop)`` pairs covering
        ``[0, len(tile_ids))`` in order.
    """
    n = int(tile_ids.size)
    if n == 0:
        return []
    if num_spans <= 1:
        return [(0, n)]
    bounds = np.flatnonzero(np.diff(tile_ids)) + 1  # legal cut positions
    if bounds.size == 0:
        return [(0, n)]
    cum = np.cumsum(weights, dtype=np.float64)
    targets = cum[-1] * np.arange(1, num_spans) / num_spans
    # first legal cut at or past each target load
    picks = bounds[
        np.minimum(
            np.searchsorted(cum[bounds - 1], targets), bounds.size - 1
        )
    ]
    edges = np.unique(np.concatenate([[0], picks, [n]]))
    return [
        (int(a), int(b)) for a, b in zip(edges[:-1], edges[1:]) if b > a
    ]


@dataclass
class TileBinning:
    """Splat-to-tile assignment.

    Attributes:
        tiles_x, tiles_y: tile-grid dimensions.
        tile_lists: for each tile (row-major), the splat indices whose
            bounding box overlaps it, in input order.
        num_intersections: total splat-tile pairs (the duplication factor
            that drives sorting cost in the real pipeline).
        bboxes: the clipped integer pixel bounds ``(M, 4)`` the binning was
            computed from, so callers can composite without recomputing
            them.
    """

    tiles_x: int
    tiles_y: int
    tile_lists: list[np.ndarray]
    num_intersections: int
    bboxes: np.ndarray


def bin_gaussians(
    means2d: np.ndarray,
    radii: np.ndarray,
    width: int,
    height: int,
    tile_size: int = TILE_SIZE,
    bboxes: np.ndarray | None = None,
) -> TileBinning:
    """Assign each splat to every tile its bounding box overlaps.

    Args:
        means2d, radii: splat centers and pixel radii.
        width, height: image size.
        tile_size: tile edge in pixels.
        bboxes: precomputed clipped bounds ``(M, 4)``; computed from
            ``means2d``/``radii`` when omitted.
    """
    if bboxes is None:
        bboxes = splat_bboxes(means2d, radii, width, height)
    tile_ids, splat_ids, tiles_x, tiles_y = tile_intersections(
        bboxes, width, height, tile_size
    )
    counts = np.bincount(tile_ids, minlength=tiles_x * tiles_y)
    tile_lists = np.split(splat_ids, np.cumsum(counts)[:-1])
    return TileBinning(
        tiles_x=tiles_x,
        tiles_y=tiles_y,
        tile_lists=tile_lists,
        num_intersections=int(tile_ids.size),
        bboxes=bboxes,
    )
