"""Differentiable 3DGS renderer: culling, projection, rasterization, backward.

The rasterization backends (:data:`ENGINES`; one line each in
:data:`repro.render.rasterize.ENGINE_TABLE`, described in
``docs/raster_engines.md``) are selected through ``RasterConfig.engine``:
``vectorized``, the default, runs one pair kernel
(:mod:`repro.render.engine`) over the whole intersection table on the
block threads of the calling process; the per-splat ``reference`` loop is
the oracle it is checked against. ``RasterConfig.dtype="float32"`` selects
the ``vectorized`` engine's inference fast path.
"""

from . import backward, culling, engine, projection, rasterize
from .culling import CullResult, cull_candidates, frustum_cull, image_stage
from .engine import (
    rasterize_backward_vectorized,
    rasterize_vectorized,
    tile_intersections,
)
from .pipeline import RenderBackwardResult, RenderResult, render, render_backward
from .rasterize import ENGINES, RASTER_DTYPES, RasterConfig

__all__ = [
    "CullResult",
    "ENGINES",
    "RASTER_DTYPES",
    "RasterConfig",
    "RenderBackwardResult",
    "RenderResult",
    "backward",
    "cull_candidates",
    "culling",
    "engine",
    "frustum_cull",
    "image_stage",
    "projection",
    "rasterize",
    "rasterize_backward_vectorized",
    "rasterize_vectorized",
    "render",
    "render_backward",
    "tile_intersections",
]
