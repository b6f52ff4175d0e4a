"""Depth-sorted alpha compositing of projected 2D Gaussians (steps 2-3).

The rasterizer processes Gaussians in global depth order and composites each
splat over its pixel bounding box with the classical volume-rendering
equation. It is deliberately written without per-pixel Python loops: the
outer loop runs over Gaussians, the inner work is vectorized numpy over the
splat's bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

#: Minimum alpha for a splat-pixel pair to contribute (3DGS uses 1/255).
ALPHA_MIN = 1.0 / 255.0

#: Maximum alpha per splat-pixel pair (3DGS caps at 0.99 for stability).
ALPHA_MAX = 0.99

#: The rasterization backends (``docs/raster_engines.md``), one line each:
#: ``name -> (forward, backward)`` as ``module.function`` under
#: :mod:`repro.render`. :data:`ENGINES`, ``RasterConfig``'s validation and
#: :func:`repro.render.engine.get_forward` / ``get_backward`` all read this
#: table; the getters import the module on first use, because the flat
#: engines import this one. ``reference`` is the per-splat loop oracle in
#: this module; the others schedule the pair kernel of
#: :mod:`repro.render.engine` — ``vectorized`` over the whole table,
#: ``fragment`` per shard on the block threads.
ENGINE_TABLE = {
    "reference": ("rasterize.rasterize", "backward.rasterize_backward"),
    "vectorized": (
        "engine.rasterize_vectorized", "engine.rasterize_backward_vectorized",
    ),
    "fragment": (
        "fragment.rasterize_fragment", "fragment.rasterize_backward_fragment",
    ),
}

#: Selectable values of ``RasterConfig.engine``.
ENGINES = tuple(ENGINE_TABLE)

#: Compute dtypes the flat engines accept for
#: ``RasterConfig.dtype`` (``None`` keeps the input arrays' dtype).
RASTER_DTYPES = ("float32", "float64")


@dataclass
class RasterConfig:
    """Rasterizer knobs.

    Attributes:
        alpha_min: splat-pixel contributions below this are skipped. Setting
            it to 0 makes the forward/backward pair exactly smooth, which
            the numerical gradient tests rely on.
        alpha_max: per-splat alpha cap (gradient is zero where the cap binds).
        full_image_splats: rasterize every splat over the whole image instead
            of its 3-sigma bounding box. Removes the (measure-zero)
            discontinuity of the integer bbox, which finite-difference
            gradient checks would otherwise trip over.
        engine: which rasterization backend executes the forward/backward
            passes; one of :data:`ENGINES`. All produce the same output
            (the flat engines ``vectorized``/``fragment`` match the
            ``reference`` loop to ~1e-12); the flat engines are much faster
            past a few hundred splats.
        dtype: compute dtype of the flat engines — one of
            :data:`RASTER_DTYPES`, or ``None`` to keep the input dtype.
            ``"float32"`` is the inference fast path: pair-level arithmetic
            (the exp2/scan hot loops) runs in single precision, roughly
            halving memory traffic, at ~1e-4 image tolerance. The
            ``reference`` loop ignores it (it is the correctness oracle).
        fragment_shards: shard count of the ``fragment`` engine when it is
            invoked through the generic engine interface (whole-scene
            inputs are cut into this many contiguous depth slabs). The
            sharded systems bypass this and pass their own per-shard
            sources. Shard counts differ in the last bits (~1e-12), so the
            count is a setting, never the machine's CPU count.

    No setting sizes the fan-out: the ``vectorized`` forward's tile-row
    blocks and the ``fragment`` engine's shards run on threads, one per
    CPU the process may use (:func:`repro.pool.map_blocks`), with
    bit-identical results at every CPU count.
    """

    alpha_min: float = ALPHA_MIN
    alpha_max: float = ALPHA_MAX
    full_image_splats: bool = False
    engine: str = "reference"
    dtype: str | None = None
    fragment_shards: int = 1

    def __post_init__(self):
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown raster engine {self.engine!r}; choose from {ENGINES}"
            )
        if self.dtype is not None and self.dtype not in RASTER_DTYPES:
            raise ValueError(
                f"unknown raster dtype {self.dtype!r}; choose from "
                f"{RASTER_DTYPES} or None"
            )
        if self.fragment_shards < 1:
            raise ValueError("fragment_shards must be >= 1")


class PairCounts(NamedTuple):
    """What a flat engine's forward built, counted where it was built.

    ``cells`` are the (splat, pixel) rows expanded from the clipped
    rectangles, ``pairs`` those left after ``alpha_min`` compaction (the
    rows the scan, the composite and the backward touch; ``pairs / cells``
    is what tighter rectangles would be judged by), ``isects`` the rows of
    the tile-intersection table they were expanded from and
    ``pruned_isects`` the rows the occlusion prune dropped before that.
    """

    cells: int = 0
    pairs: int = 0
    isects: int = 0
    pruned_isects: int = 0

    @classmethod
    def total(cls, parts) -> PairCounts:
        """Field-wise sum of the slices' counts."""
        return cls(*map(sum, zip(*parts)))


@dataclass
class RasterResult:
    """Output of :func:`rasterize`.

    Attributes:
        image: composited RGB image, ``(H, W, 3)``.
        final_transmittance: per-pixel transmittance after all splats,
            ``(H, W)`` — multiplies the background color.
        order: Gaussian indices in the composited (depth-ascending) order.
        bboxes: integer pixel bounds ``(x0, x1, y0, y1)`` per Gaussian in
            input order; ``x0 >= x1`` marks a skipped splat.
        saved: forward state an engine keeps for its own backward pass
            (the ``vectorized`` engine's sorted pair table and
            transmittance scan, see :mod:`repro.render.engine`); ``None``
            from engines that keep nothing. It lives exactly as long as
            this result does, and a backward that does not recognise it
            recomputes what it needs.
        counts: the :class:`PairCounts` of the forward, summed over its
            slices, from every flat engine; ``None`` from the
            ``reference`` loop, which builds no table.
    """

    image: np.ndarray
    final_transmittance: np.ndarray
    order: np.ndarray
    bboxes: np.ndarray
    # keyword-only so subclasses can keep adding required fields
    saved: object | None = field(default=None, repr=False, kw_only=True)
    counts: PairCounts | None = field(default=None, kw_only=True)


def splat_bboxes(
    means2d: np.ndarray, radii: np.ndarray, width: int, height: int
) -> np.ndarray:
    """Clipped integer bounding boxes ``(M, 4)`` as ``(x0, x1, y0, y1)``."""
    x0 = np.clip(np.floor(means2d[:, 0] - radii), 0, width).astype(np.int64)
    x1 = np.clip(np.ceil(means2d[:, 0] + radii) + 1, 0, width).astype(np.int64)
    y0 = np.clip(np.floor(means2d[:, 1] - radii), 0, height).astype(np.int64)
    y1 = np.clip(np.ceil(means2d[:, 1] + radii) + 1, 0, height).astype(np.int64)
    return np.stack([x0, x1, y0, y1], axis=-1)


def config_bboxes(
    means2d: np.ndarray,
    radii: np.ndarray,
    width: int,
    height: int,
    config: RasterConfig,
) -> np.ndarray:
    """Per-splat composite bounds honoring ``config.full_image_splats``.

    The single source of the bbox-selection rule for every engine.
    """
    if config.full_image_splats:
        m_count = means2d.shape[0]
        return np.tile(
            np.array([0, width, 0, height], dtype=np.int64), (m_count, 1)
        )
    return splat_bboxes(means2d, radii, width, height)


def _splat_alpha(
    mean2d: np.ndarray,
    conic: np.ndarray,
    opacity: float,
    xs: np.ndarray,
    ys: np.ndarray,
    config: RasterConfig,
) -> np.ndarray:
    """Alpha map of one splat over a pixel box; entries below alpha_min are 0."""
    dx = xs[None, :] - mean2d[0]
    dy = ys[:, None] - mean2d[1]
    power = -0.5 * (
        conic[0] * dx * dx + conic[2] * dy * dy
    ) - conic[1] * dx * dy
    alpha = opacity * np.exp(power)
    alpha = np.minimum(alpha, config.alpha_max)
    if config.alpha_min > 0:
        alpha = np.where(alpha >= config.alpha_min, alpha, 0.0)
    return alpha


def rasterize(
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
) -> RasterResult:
    """Composite projected Gaussians into an image.

    Args:
        means2d: pixel-space centers, ``(M, 2)``.
        conics: inverse-covariance triplets ``(a, b, c)``, ``(M, 3)``.
        colors: RGB per splat, ``(M, 3)``.
        opacities: post-sigmoid opacities, ``(M,)``.
        depths: camera-space z for sorting, ``(M,)``.
        radii: splat radii in pixels, ``(M,)``.
        width, height: image size.
        background: background RGB (defaults to black).
        config: rasterizer thresholds.
    """
    config = config or RasterConfig()
    dtype = means2d.dtype
    if background is None:
        background = np.zeros(3, dtype=dtype)
    background = np.asarray(background, dtype=dtype)

    order = np.argsort(depths, kind="stable")
    bboxes = config_bboxes(means2d, radii, width, height, config)
    image = np.zeros((height, width, 3), dtype=dtype)
    transmittance = np.ones((height, width), dtype=dtype)
    xs_full = np.arange(width, dtype=dtype) + 0.5
    ys_full = np.arange(height, dtype=dtype) + 0.5

    for idx in order:
        x0, x1, y0, y1 = bboxes[idx]
        if x0 >= x1 or y0 >= y1:
            continue
        alpha = _splat_alpha(
            means2d[idx], conics[idx], opacities[idx], xs_full[x0:x1],
            ys_full[y0:y1], config,
        )
        t_box = transmittance[y0:y1, x0:x1]
        weight = t_box * alpha
        image[y0:y1, x0:x1] += weight[:, :, None] * colors[idx]
        transmittance[y0:y1, x0:x1] = t_box * (1.0 - alpha)

    image += transmittance[:, :, None] * background
    return RasterResult(
        image=image,
        final_transmittance=transmittance,
        order=order,
        bboxes=bboxes,
    )
