"""Differentiable 3DGS renderer: culling, projection, rasterization, backward.

The interchangeable rasterization backends (:data:`ENGINES`; one line each
in :data:`repro.render.rasterize.ENGINE_TABLE`, described in
``docs/raster_engines.md``) are selected through ``RasterConfig.engine``:
the per-splat ``reference`` loop — the oracle — and the flat engines, which
schedule one pair kernel (:mod:`repro.render.engine`) over the whole
intersection table, or shard by shard (``RasterConfig.fragment_shards``),
on the block threads of the calling process.
``RasterConfig.dtype="float32"`` selects the inference fast path of the
flat engines.
"""

from . import backward, culling, engine, projection, rasterize, tiles
from .culling import CullResult, cull_candidates, frustum_cull
from .engine import (
    rasterize_backward_vectorized,
    rasterize_vectorized,
    tile_intersections,
)
from .fragment import (
    FragmentRasterResult,
    FragmentSource,
    rasterize_backward_fragment,
    rasterize_fragment,
    rasterize_fragment_sources,
)
from .pipeline import RenderBackwardResult, RenderResult, render, render_backward
from .rasterize import ENGINES, RASTER_DTYPES, RasterConfig
from .tiles import TileBinning, bin_gaussians

__all__ = [
    "CullResult",
    "ENGINES",
    "FragmentRasterResult",
    "FragmentSource",
    "RASTER_DTYPES",
    "RasterConfig",
    "RenderBackwardResult",
    "RenderResult",
    "TileBinning",
    "backward",
    "bin_gaussians",
    "cull_candidates",
    "culling",
    "engine",
    "frustum_cull",
    "projection",
    "rasterize",
    "rasterize_backward_fragment",
    "rasterize_backward_vectorized",
    "rasterize_fragment",
    "rasterize_fragment_sources",
    "rasterize_vectorized",
    "render",
    "render_backward",
    "tile_intersections",
    "tiles",
]
