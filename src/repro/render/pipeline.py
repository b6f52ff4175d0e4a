"""End-to-end differentiable rendering of a GaussianModel.

``render`` runs culling -> projection -> rasterization and returns an image
plus the context needed by ``render_backward``, which packs per-attribute
gradients into a single ``(M, 59)`` array aligned with the visible subset.
That packed layout is exactly what GS-Scale ships across the (simulated)
PCIe link as "G1/G3" in Figure 6.

Both passes dispatch the rasterization stage through
:mod:`repro.render.engine` according to ``RasterConfig.engine``, so every
caller (the training systems, benchmarks, examples) can pick any backend
of :data:`repro.render.rasterize.ENGINES` per run; ``RasterConfig.dtype``
additionally selects the ``vectorized`` engine's float32 inference fast path (the
raster stage computes and returns single precision while projection stays
in the model dtype).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..cameras.camera import Camera
from ..gaussians import layout
from ..gaussians.layout import SH_DEGREE
from ..gaussians.model import GaussianModel
from . import culling, engine, projection, rasterize


@dataclass
class RenderResult:
    """Forward rendering output plus backward context.

    Attributes:
        image: composited RGB, ``(H, W, 3)``.
        valid_ids: indices of the rendered (visible) Gaussians.
        cull: culling statistics for this view.
        proj: projection result for the visible subset.
        raster: rasterization result.
        background: background color used.
        config: rasterizer configuration used.
    """

    image: np.ndarray
    valid_ids: np.ndarray
    cull: culling.CullResult
    proj: projection.ProjectionResult = field(repr=False)
    raster: rasterize.RasterResult = field(repr=False)
    background: np.ndarray = field(repr=False, default=None)
    config: rasterize.RasterConfig = field(repr=False, default=None)


@dataclass
class RenderBackwardResult:
    """Gradients of a rendered view.

    Attributes:
        param_grads: packed gradients ``(M, 59)`` for the visible subset,
            column layout per :mod:`repro.gaussians.layout`.
        valid_ids: the visible indices the rows correspond to.
        mean2d_abs: screen-space positional gradient magnitudes ``(M,)``
            used by densification.
    """

    param_grads: np.ndarray
    valid_ids: np.ndarray
    mean2d_abs: np.ndarray


def render(
    model: GaussianModel,
    camera: Camera,
    sh_degree: int = SH_DEGREE,
    background: np.ndarray | None = None,
    valid_ids: np.ndarray | None = None,
    config: rasterize.RasterConfig | None = None,
    screen: projection.ScreenRows | None = None,
) -> RenderResult:
    """Render ``model`` from ``camera``.

    A view is projected once: the exact cull computes the screen geometry
    of every row it keeps, and the render uses it instead of projecting
    those rows again — bit-identically (numerics contract fact 8). With
    ``valid_ids=None`` the cull runs here and hands on by itself; a
    caller that culled elsewhere hands on ``screen``. Either way the
    cull's :class:`~repro.render.projection.ScreenRows` is the one
    per-row record from the cull through the backward:
    ``RenderResult.proj.rows`` is the screen itself (or the rows'
    fresh projection), and ``proj`` adds only what the render needs
    besides — the stacked centres, conics, opacities and colours.

    Args:
        model: the Gaussian scene.
        camera: viewing camera.
        sh_degree: active SH degree.
        background: background RGB (defaults to black).
        valid_ids: pre-computed visible indices; when ``None``, frustum
            culling runs here. GS-Scale passes this explicitly because its
            pipeline culls one iteration ahead (parameter forwarding).
        config: rasterizer thresholds.
        screen: ``CullResult.screen`` of the cull that chose
            ``valid_ids``, row for row, over the geometric values
            ``model`` holds for them (``None``: project afresh). Kept
            without the backward context, the result renders but cannot
            be passed to :func:`render_backward`; the ``vectorized``
            engine then shades only the splats left in its pruned pair
            table, and reads only their rows of ``model.sh`` (anything
            ``model.sh[rows]`` gives ``(k, 16, 3)`` coefficients for):
            ``proj.colors`` holds those rows and 0 elsewhere. The image
            is the same bytes either way.
    """
    config = config or rasterize.RasterConfig()
    if background is None:
        background = np.zeros(3, dtype=model.dtype)
    background = np.asarray(background, dtype=model.dtype)

    if valid_ids is None:
        cull = culling.frustum_cull(
            model.means, model.log_scales, model.quats, camera,
            keep="backward",
        )
        valid_ids, screen = cull.valid_ids, cull.screen
    else:
        valid_ids = np.asarray(valid_ids)
        cull = culling.CullResult(
            valid_ids=valid_ids,
            num_total=model.num_gaussians,
            num_in_depth=int(valid_ids.size),
            num_visible=int(valid_ids.size),
        )

    # forward only (the screen was kept without the backward context) and
    # an engine that shades on demand: only the splats the pruned pair
    # table composites are shaded, and only their SH rows are read
    sh = model.sh
    on_demand = (
        screen is not None and screen.jacobians is None
        and config.engine == "vectorized"
    )
    proj = projection.project(
        model.means[valid_ids],
        model.log_scales[valid_ids],
        model.quats[valid_ids],
        model.opacity_logits[valid_ids],
        (lambda rows: sh[valid_ids[rows]]) if on_demand else sh[valid_ids],
        camera,
        sh_degree=sh_degree,
        screen=screen,
    )
    raster = engine.get_forward(config.engine)(
        proj.means2d,
        proj.conics,
        proj.colors if proj.shade is None else proj.shade,
        proj.opacities,
        proj.rows.cam_points[:, 2],
        proj.rows.radii,
        camera.width,
        camera.height,
        background=background,
        config=config,
    )
    return RenderResult(
        image=raster.image,
        valid_ids=valid_ids,
        cull=cull,
        proj=proj,
        raster=raster,
        background=background,
        config=config,
    )


def render_backward(
    model: GaussianModel,
    camera: Camera,
    result: RenderResult,
    grad_image: np.ndarray,
) -> RenderBackwardResult:
    """Backpropagate ``dL/d image`` to packed per-Gaussian gradients.

    Args:
        model: the model used in the forward pass.
        camera: the forward camera.
        result: forward :class:`RenderResult`.
        grad_image: gradient w.r.t. ``result.image``, ``(H, W, 3)``.
    """
    ids = result.valid_ids
    proj = result.proj
    config = result.config or rasterize.RasterConfig()
    rgrads = engine.get_backward(config.engine)(
        proj.means2d,
        proj.conics,
        proj.colors,
        proj.opacities,
        result.raster,
        grad_image,
        background=result.background,
        config=config,
    )
    pgrads = projection.project_backward(
        model.means[ids],
        model.log_scales[ids],
        model.quats[ids],
        model.sh[ids],
        camera,
        proj,
        grad_means2d=rgrads.means2d,
        grad_conics=rgrads.conics,
        grad_colors=rgrads.colors,
        grad_opacities=rgrads.opacities,
    )
    packed = np.zeros((ids.size, layout.PARAM_DIM), dtype=model.dtype)
    packed[:, layout.MEAN_SLICE] = pgrads.means
    packed[:, layout.SCALE_SLICE] = pgrads.log_scales
    packed[:, layout.QUAT_SLICE] = pgrads.quats
    packed[:, layout.OPACITY_SLICE] = pgrads.opacity_logits
    packed[:, layout.SH_SLICE] = pgrads.sh.reshape(ids.size, layout.SH_DIM)
    return RenderBackwardResult(
        param_grads=packed, valid_ids=ids, mean2d_abs=rgrads.mean2d_abs
    )
