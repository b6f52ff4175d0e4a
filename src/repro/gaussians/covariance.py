"""3D covariance construction from scale + rotation, with gradients.

A Gaussian's world-space covariance is ``Sigma = R S S^T R^T`` where ``R``
is the rotation from its (normalized) quaternion and ``S = diag(exp(log_scale))``
(Section 2.3 of the paper; identical to 3DGS).
"""

from __future__ import annotations

import numpy as np

from . import quaternion


def build_covariance(
    log_scales: np.ndarray, quats: np.ndarray
) -> tuple[np.ndarray, dict]:
    """Build world-space covariances.

    Args:
        log_scales: per-axis log extents, ``(N, 3)``.
        quats: raw (unnormalized) quaternions, ``(N, 4)``.

    Returns:
        ``(cov, ctx)`` where ``cov`` is ``(N, 3, 3)`` and ``ctx`` caches the
        intermediates needed by :func:`build_covariance_backward`.
    """
    scales = np.exp(log_scales)
    unit = quaternion.normalize(quats)
    rot = quaternion.to_rotation_matrix(unit)
    # V = R S, as one flat (N, 9) product with each row's scales tiled
    # along it, which numpy runs faster than a broadcast over a length-3
    # inner axis. Sigma = V V^T: handed a transposed view of its own left
    # operand, numpy calls BLAS syrk per stacked 3x3, which costs about
    # twice gemm; a contiguous copy of V^T takes gemm. Both give the same
    # bits (numerics contract facts 6 and 10)
    factor = (rot.reshape(-1, 9) * np.tile(scales, 3)).reshape(rot.shape)
    cov = factor @ np.ascontiguousarray(np.swapaxes(factor, -1, -2))
    ctx = {"scales": scales, "unit": unit, "rot": rot, "factor": factor}
    return cov, ctx


def build_covariance_backward(
    quats: np.ndarray, ctx: dict, grad_cov: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Backpropagate ``dL/dSigma`` to log-scales and raw quaternions.

    Args:
        quats: raw quaternions passed to :func:`build_covariance`.
        ctx: context dict returned by :func:`build_covariance`.
        grad_cov: gradient w.r.t. the covariances, ``(N, 3, 3)``. Need not
            be symmetric; it is symmetrized internally since ``Sigma`` is.

    Returns:
        ``(grad_log_scales, grad_quats)`` with shapes ``(N, 3)`` and ``(N, 4)``.
    """
    scales = ctx["scales"]
    rot = ctx["rot"]
    factor = ctx["factor"]

    sym = grad_cov + np.swapaxes(grad_cov, -1, -2)
    grad_factor = sym @ factor  # dL/dV for Sigma = V V^T
    grad_rot = grad_factor * scales[:, None, :]
    grad_scales = np.einsum("nik,nik->nk", rot, grad_factor)
    grad_log_scales = grad_scales * scales
    grad_unit = quaternion.rotation_matrix_backward(ctx["unit"], grad_rot)
    grad_quats = quaternion.normalize_backward(quats, grad_unit)
    return grad_log_scales, grad_quats
