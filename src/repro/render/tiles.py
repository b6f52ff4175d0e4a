"""Tile binning, the gsplat/3DGS work decomposition.

Real GPU rasterizers bin splats into 16x16 pixel tiles and composite each
tile independently so thread blocks get coherent work.
:func:`bin_gaussians` exposes that assignment — the intersection counts the
performance model's forward/backward costs are built on.

Binning is vectorized: it delegates to
:func:`repro.render.engine.tile_intersections`, the same flat
``np.repeat``/radix-sort expansion the ``vectorized`` engine composites from, so
``num_intersections`` and the per-tile lists come from a single code path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .engine import TILE_SIZE, tile_intersections
from .rasterize import splat_bboxes

__all__ = [
    "TILE_SIZE",
    "TileBinning",
    "bin_gaussians",
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
