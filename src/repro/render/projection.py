"""EWA projection of 3D Gaussians to screen space, forward and backward.

Step 1 of the training pipeline (Figure 2): geometric parameters
(mean/scale/quaternion) map to a 2D mean and covariance via the perspective
Jacobian, and SH coefficients map to RGB via the view direction. The
backward pass here is the exact adjoint, verified against numerical
gradients in ``tests/render/test_gradcheck.py``.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field, fields

import numpy as np

from ..cameras.camera import Camera
from ..gaussians import covariance as cov3d
from ..gaussians import sh as sh_module
from ..gaussians.layout import SH_DEGREE

#: Low-pass filter added to the 2D covariance diagonal (3DGS uses 0.3 px^2)
#: so every splat covers at least ~one pixel.
EPS_2D = 0.3

#: Floor on the eigenvalue discriminant when computing splat radii.
_RADIUS_DISCRIMINANT_FLOOR = 0.1


@dataclass
class ProjectionResult:
    """The render's projection of a (pre-culled) set of Gaussians.

    Attributes:
        rows: the rows' screen geometry and backward context, handed on
            by the cull or projected by :func:`project`.
        means2d: ``rows.x`` and ``rows.y`` stacked, ``(M, 2)``: the
            pixel-space centres the rasterizers take.
        conics: upper-triangular entries ``(a, b, c)`` of
            ``inv(rows.cov2d)``, ``(M, 3)``.
        colors: RGB per row, ``(M, 3)``.
        opacities: post-sigmoid opacities, ``(M,)``.
        sh_degree: SH degree the colours were evaluated at.
        view_dirs, view_vec_norms, clamp_mask: the colours' backward
            context — unit view directions ``(M, 3)``, their lengths
            ``(M,)`` and the colour clamp mask ``(M, 3)``; ``None`` where
            the colours are shaded on demand.
        shade: ``None`` unless the colours are shaded on demand
            (:func:`project` given an SH function): then ``colors`` starts
            at 0, and ``shade(rows)`` evaluates the rows ``rows`` (sorted
            distinct indices), fills them in ``colors`` and returns them,
            ``(k, 3)`` — the colour function
            :func:`repro.render.engine.rasterize_vectorized` takes.

    The depth column is ``rows.cam_points[:, 2]``.
    """

    rows: ScreenRows = field(repr=False)
    means2d: np.ndarray
    conics: np.ndarray
    colors: np.ndarray
    opacities: np.ndarray
    sh_degree: int
    view_dirs: np.ndarray | None = field(default=None, repr=False)
    view_vec_norms: np.ndarray | None = field(default=None, repr=False)
    clamp_mask: np.ndarray | None = field(default=None, repr=False)
    shade: Callable[[np.ndarray], np.ndarray] | None = field(
        default=None, repr=False
    )


@dataclass
class ProjectionGrads:
    """Gradients w.r.t. the raw Gaussian attributes of the projected subset."""

    means: np.ndarray  # (M, 3)
    log_scales: np.ndarray  # (M, 3)
    quats: np.ndarray  # (M, 4)
    opacity_logits: np.ndarray  # (M, 1)
    sh: np.ndarray  # (M, 16, 3)


def _perspective_jacobian(cam_points: np.ndarray, camera: Camera) -> np.ndarray:
    """Jacobian of the pinhole projection at each camera-space point."""
    tx, ty, tz = cam_points[:, 0], cam_points[:, 1], cam_points[:, 2]
    inv_z = 1.0 / tz
    inv_z2 = inv_z * inv_z
    jac = np.zeros(cam_points.shape[:-1] + (2, 3), dtype=cam_points.dtype)
    jac[:, 0, 0] = camera.fx * inv_z
    jac[:, 0, 2] = -camera.fx * tx * inv_z2
    jac[:, 1, 1] = camera.fy * inv_z
    jac[:, 1, 2] = -camera.fy * ty * inv_z2
    return jac


def _splat_radii(cov2d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Conservative 3-sigma pixel radii and validity mask from 2D covariances."""
    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    c = cov2d[:, 1, 1]
    det = a * c - b * b
    mid = 0.5 * (a + c)
    disc = np.sqrt(np.maximum(mid * mid - det, _RADIUS_DISCRIMINANT_FLOOR))
    lambda_max = mid + disc
    radii = np.ceil(3.0 * np.sqrt(np.maximum(lambda_max, 0.0)))
    return radii, det > 0


def camera_points(means: np.ndarray, camera: Camera) -> np.ndarray:
    """Camera-space centres ``means @ R^T + t``, in the model dtype.

    One product over all the rows it is given. Over two rows or more it
    is a gemm, and a row's bits do not depend on which other rows share
    it (numerics contract fact 8, checked on the pinned BLAS); over one
    row numpy runs a gemv, which may round that row differently (fact
    2). So a cull's centres stand in for a render's unless one side has
    one row.
    """
    dtype = means.dtype
    rot = camera.world_to_cam_rot.astype(dtype)
    trans = camera.world_to_cam_trans.astype(dtype)
    return means @ rot.T + trans


@dataclass
class ScreenRows:
    """Per-row screen-space geometry from :func:`project_rows`.

    Attributes:
        cam_points: camera-space centres the rows were projected from,
            ``(M, 3)``.
        x, y: pixel-space centre, ``(M,)`` each.
        radii: conservative splat radii in pixels (3 sigma), ``(M,)``.
        valid: mask of rows with positive-definite 2D covariance, ``(M,)``.
        jacobians: perspective Jacobians, ``(M, 2, 3)``.
        cov3d_mats: world-space covariances, ``(M, 3, 3)``.
        cov3d_ctx: :func:`~repro.gaussians.covariance.build_covariance`'s
            context.
        cov2d: 2D covariances including the low-pass term, ``(M, 2, 2)``.

    ``jacobians``, ``cov3d_mats`` and ``cov3d_ctx`` are the backward
    context; rows taken without it (:meth:`take`) hold ``None`` there.
    """

    cam_points: np.ndarray
    x: np.ndarray
    y: np.ndarray
    radii: np.ndarray
    valid: np.ndarray
    jacobians: np.ndarray | None
    cov3d_mats: np.ndarray | None
    cov3d_ctx: dict | None
    cov2d: np.ndarray

    _CONTEXT = ("jacobians", "cov3d_mats", "cov3d_ctx")

    def __len__(self) -> int:
        return self.x.shape[0]

    def take(self, rows: np.ndarray, context: bool = True) -> "ScreenRows":
        """The rows ``rows`` (an index array) of every field, copied;
        ``context=False`` leaves the backward context out."""
        return ScreenRows(**{
            f.name: None if f.name in self._CONTEXT and not context
            else _map_arrays(getattr(self, f.name), lambda a: a[rows])
            for f in fields(self)
        })

    @staticmethod
    def concat(parts: list["ScreenRows"]) -> "ScreenRows":
        """The parts' rows one after another (one part is returned as
        it is)."""
        if len(parts) == 1:
            return parts[0]

        def join(name):
            values = [getattr(part, name) for part in parts]
            if values[0] is None:
                return None
            if isinstance(values[0], dict):
                return {k: np.concatenate([v[k] for v in values]) for k in values[0]}
            return np.concatenate(values)

        return ScreenRows(**{f.name: join(f.name) for f in fields(ScreenRows)})


def _map_arrays(value, fn):
    """``fn`` over an array, over each value of a dict of arrays, or
    ``None`` through."""
    if value is None:
        return None
    if isinstance(value, dict):
        return {k: fn(v) for k, v in value.items()}
    return fn(value)


def project_rows(
    cam_points: np.ndarray,
    log_scales: np.ndarray,
    quats: np.ndarray,
    camera: Camera,
) -> ScreenRows:
    """The EWA projection of rows whose camera-space centres are known:
    pixel centre, perspective Jacobian, 3D and 2D covariance, radius.

    The one implementation behind :func:`project` and the frustum
    cull's block walk. Every operation in it is per row —
    elementwise ufuncs, the per-row quaternion norm, the stacked
    products ``V V^T``, ``M Sigma`` and ``(M Sigma) M^T`` (one BLAS call
    per item, each with a contiguous right operand), and ``J W`` as one
    flat gemm over two rows per input row, whose rows do not depend on
    each other (fact 8) — so its output for a row does not depend on
    which other rows share the call, and a caller may hand it any slice
    of the rows (numerics contract facts 6 and 10).

    Args:
        cam_points: camera-space centres from :func:`camera_points`,
            ``(M, 3)``.
        log_scales: log extents, ``(M, 3)``.
        quats: raw quaternions, ``(M, 4)``.
        camera: viewing camera.
    """
    x = camera.fx * cam_points[:, 0] / cam_points[:, 2] + camera.cx
    y = camera.fy * cam_points[:, 1] / cam_points[:, 2] + camera.cy

    jac = _perspective_jacobian(cam_points, camera)
    cov_world, c3_ctx = cov3d.build_covariance(log_scales, quats)
    # M = J W as one (2M, 3) @ (3, 3) gemm, not M stacked calls, and
    # M Sigma M^T against a contiguous copy of M^T, which numpy multiplies
    # about twice as fast as the transposed view; both give the same bits
    # (numerics contract fact 10)
    rot = camera.world_to_cam_rot.astype(cam_points.dtype)
    m = (jac.reshape(-1, 3) @ rot).reshape(jac.shape)  # (M, 2, 3)
    cov2d = (m @ cov_world) @ np.ascontiguousarray(np.swapaxes(m, -1, -2))
    cov2d[:, 0, 0] += EPS_2D
    cov2d[:, 1, 1] += EPS_2D

    radii, valid = _splat_radii(cov2d)
    return ScreenRows(
        cam_points=cam_points,
        x=x,
        y=y,
        radii=radii,
        valid=valid,
        jacobians=jac,
        cov3d_mats=cov_world,
        cov3d_ctx=c3_ctx,
        cov2d=cov2d,
    )


def project(
    means: np.ndarray,
    log_scales: np.ndarray,
    quats: np.ndarray,
    opacity_logits: np.ndarray,
    sh_coeffs: np.ndarray,
    camera: Camera,
    sh_degree: int = SH_DEGREE,
    screen: ScreenRows | None = None,
) -> ProjectionResult:
    """Full forward projection of a (pre-culled) set of Gaussians:
    :func:`project_rows` over all rows, plus the conics, the opacities and
    the colours. Frustum culling (which needs only geometry — the basis of
    selective offloading, Section 4.2.1) runs the same :func:`project_rows`
    block by block, and hands on what it computed for the rows it keeps
    (``CullResult.screen``).

    Args:
        means: world positions, ``(M, 3)``.
        log_scales: log extents, ``(M, 3)``.
        quats: raw quaternions, ``(M, 4)``.
        opacity_logits: ``(M,)`` or ``(M, 1)``.
        sh_coeffs: SH coefficients, ``(M, 16, 3)`` or ``(M, 48)``; or,
            for a forward-only render, a function of row indices returning
            those rows' coefficients. The colours are then not computed
            here: ``ProjectionResult.shade`` computes the rows it is asked
            for, and the result holds no colour context.
        camera: viewing camera.
        sh_degree: active SH degree (0..3).
        screen: those rows' :class:`ScreenRows`, in the order of
            ``means``, from a cull over the same values; used as
            ``ProjectionResult.rows`` in place of :func:`camera_points` +
            :func:`project_rows`, with the same bits (numerics contract
            fact 8). A screen of fewer than two rows is not used: numpy
            computes a one-row product as a gemv, whose row differs from
            the gemm's (fact 2).

    A colour depends on its own row only — the view direction, its norm
    and :func:`~repro.gaussians.sh.eval_colors` are per row (numerics
    contract fact 11) — so a row shaded on demand has the bits of the
    whole-array colour.
    """
    m_count = means.shape[0]
    if screen is None or len(screen) < 2:
        screen = project_rows(
            camera_points(means, camera), log_scales, quats, camera
        )

    cov2d = screen.cov2d
    a = cov2d[:, 0, 0]
    b = cov2d[:, 0, 1]
    c = cov2d[:, 1, 1]
    det = a * c - b * b
    safe_det = np.where(det > 0, det, 1.0)
    conics = np.stack([c / safe_det, -b / safe_det, a / safe_det], axis=-1)

    logits = np.reshape(opacity_logits, (m_count,))
    opacities = 1.0 / (1.0 + np.exp(-logits))
    center = camera.center.astype(means.dtype)
    common = dict(
        rows=screen, means2d=np.stack([screen.x, screen.y], axis=-1),
        conics=conics, opacities=opacities, sh_degree=sh_degree,
    )

    def colors_of(rows, coeffs):
        view_vec = means if rows is None else means[rows]
        view_vec = view_vec - center
        norms = np.maximum(np.linalg.norm(view_vec, axis=-1), 1e-12)
        dirs = view_vec / norms[:, None]
        n = view_vec.shape[0]
        coeffs = coeffs.reshape(n, 16 if n == 0 else -1, 3)
        return dirs, norms, *sh_module.eval_colors(coeffs, dirs, sh_degree)

    if callable(sh_coeffs):
        colors = np.zeros((m_count, 3), dtype=means.dtype)

        def shade(rows):
            shaded = colors_of(rows, sh_coeffs(rows))[2]
            colors[rows] = shaded
            return shaded

        return ProjectionResult(**common, colors=colors, shade=shade)
    dirs, norms, colors, clamp_mask = colors_of(None, sh_coeffs)
    return ProjectionResult(
        **common, colors=colors, view_dirs=dirs, view_vec_norms=norms,
        clamp_mask=clamp_mask,
    )


def project_backward(
    means: np.ndarray,
    log_scales: np.ndarray,
    quats: np.ndarray,
    sh_coeffs: np.ndarray,
    camera: Camera,
    result: ProjectionResult,
    grad_means2d: np.ndarray,
    grad_conics: np.ndarray,
    grad_colors: np.ndarray,
    grad_opacities: np.ndarray,
) -> ProjectionGrads:
    """Backpropagate rasterizer gradients to raw Gaussian attributes.

    Args:
        means, log_scales, quats, sh_coeffs: forward inputs (projected subset).
        camera: viewing camera.
        result: forward :class:`ProjectionResult`.
        grad_means2d: ``dL/d means2d``, ``(M, 2)``.
        grad_conics: ``dL/d (a, b, c)`` of the conic, ``(M, 3)``.
        grad_colors: ``dL/d colors``, ``(M, 3)``.
        grad_opacities: ``dL/d opacities`` (post-sigmoid), ``(M,)``.
    """
    rows = result.rows
    m_count = means.shape[0]
    dtype = means.dtype
    rot = camera.world_to_cam_rot.astype(dtype)
    cam_points = rows.cam_points
    jac = rows.jacobians
    sh_coeffs = sh_coeffs.reshape(m_count, 16 if m_count == 0 else -1, 3)

    # --- conic -> cov2d: C = V^{-1} so dL/dV = -C G C with G symmetrized.
    conic_mat_grad = np.empty((m_count, 2, 2), dtype=dtype)
    conic_mat_grad[:, 0, 0] = grad_conics[:, 0]
    conic_mat_grad[:, 0, 1] = 0.5 * grad_conics[:, 1]
    conic_mat_grad[:, 1, 0] = 0.5 * grad_conics[:, 1]
    conic_mat_grad[:, 1, 1] = grad_conics[:, 2]
    conic_full = np.empty((m_count, 2, 2), dtype=dtype)
    conic_full[:, 0, 0] = result.conics[:, 0]
    conic_full[:, 0, 1] = result.conics[:, 1]
    conic_full[:, 1, 0] = result.conics[:, 1]
    conic_full[:, 1, 1] = result.conics[:, 2]
    grad_cov2d = -(conic_full @ conic_mat_grad @ conic_full)

    # --- cov2d = M Sigma3 M^T + eps I with M = J W. J W and dL/dM W^T
    # as one flat (2M, 3) gemm each, as the forward computes J W: the
    # stacked products' bits, ~8x faster (numerics contract fact 10)
    m_mat = (jac.reshape(-1, 3) @ rot).reshape(jac.shape)
    sym = grad_cov2d + np.swapaxes(grad_cov2d, -1, -2)
    grad_sigma3 = np.swapaxes(m_mat, -1, -2) @ grad_cov2d @ m_mat
    grad_m = sym @ m_mat @ rows.cov3d_mats
    grad_jac = (grad_m.reshape(-1, 3) @ rot.T).reshape(grad_m.shape)  # W constant

    # --- Jacobian entries -> camera-space point.
    tx, ty, tz = cam_points[:, 0], cam_points[:, 1], cam_points[:, 2]
    inv_z = 1.0 / tz
    inv_z2 = inv_z * inv_z
    inv_z3 = inv_z2 * inv_z
    grad_t = np.zeros_like(cam_points)
    grad_t[:, 0] += grad_jac[:, 0, 2] * (-camera.fx * inv_z2)
    grad_t[:, 1] += grad_jac[:, 1, 2] * (-camera.fy * inv_z2)
    grad_t[:, 2] += (
        grad_jac[:, 0, 0] * (-camera.fx * inv_z2)
        + grad_jac[:, 1, 1] * (-camera.fy * inv_z2)
        + grad_jac[:, 0, 2] * (2.0 * camera.fx * tx * inv_z3)
        + grad_jac[:, 1, 2] * (2.0 * camera.fy * ty * inv_z3)
    )

    # --- 2D mean -> camera-space point.
    grad_t[:, 0] += grad_means2d[:, 0] * camera.fx * inv_z
    grad_t[:, 2] += grad_means2d[:, 0] * (-camera.fx * tx * inv_z2)
    grad_t[:, 1] += grad_means2d[:, 1] * camera.fy * inv_z
    grad_t[:, 2] += grad_means2d[:, 1] * (-camera.fy * ty * inv_z2)

    grad_means = grad_t @ rot  # t = W p + c  =>  dL/dp = W^T dL/dt

    # --- colors -> SH coefficients and view direction -> mean.
    grad_sh, grad_dirs = sh_module.eval_colors_backward(
        sh_coeffs, result.view_dirs, result.clamp_mask, grad_colors, result.sh_degree
    )
    dirs = result.view_dirs
    inner = np.sum(dirs * grad_dirs, axis=-1, keepdims=True)
    grad_means += (grad_dirs - dirs * inner) / result.view_vec_norms[:, None]

    # --- covariance -> scales and quaternions.
    grad_log_scales, grad_quats = cov3d.build_covariance_backward(
        quats, rows.cov3d_ctx, grad_sigma3
    )

    # --- opacity sigmoid.
    o = result.opacities
    grad_logits = (grad_opacities * o * (1.0 - o)).reshape(m_count, 1)

    if grad_sh.shape[1] < 16:
        padded = np.zeros((m_count, 16, 3), dtype=dtype)
        padded[:, : grad_sh.shape[1], :] = grad_sh
        grad_sh = padded

    return ProjectionGrads(
        means=grad_means,
        log_scales=grad_log_scales,
        quats=grad_quats,
        opacity_logits=grad_logits,
        sh=grad_sh,
    )
