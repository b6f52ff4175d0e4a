"""Quaternion utilities with analytic gradients.

Rotations are parameterized by ``(w, x, y, z)`` quaternions stored raw and
normalized on use, matching the 3DGS/gsplat convention. All functions are
vectorized over a leading batch axis.
"""

from __future__ import annotations

import numpy as np


def _norms(quats: np.ndarray) -> np.ndarray:
    """``np.linalg.norm(quats, axis=-1, keepdims=True)``, bit for bit in
    float32 and float64.

    The squared norm is summed left to right over the four components,
    the order the norm's reduction sums them in, without its reduction
    machinery: the same bits in about half the time (numerics contract
    fact 10).
    """
    w, x, y, z = (quats[..., i] for i in range(4))
    return np.sqrt(w * w + x * x + y * y + z * z)[..., None]


def normalize(quats: np.ndarray, eps: float = 1e-12) -> np.ndarray:
    """Return unit quaternions for raw ``(N, 4)`` input."""
    return quats / np.maximum(_norms(quats), eps)


def normalize_backward(
    quats: np.ndarray, grad_unit: np.ndarray, eps: float = 1e-12
) -> np.ndarray:
    """Backpropagate through :func:`normalize`.

    Args:
        quats: raw quaternions, shape ``(N, 4)``.
        grad_unit: gradient w.r.t. the normalized quaternions, ``(N, 4)``.

    Returns:
        Gradient w.r.t. the raw quaternions, ``(N, 4)``. Uses
        ``d(q/|q|)/dq = (I - u u^T) / |q|`` with ``u = q/|q|``.
    """
    norms = np.maximum(_norms(quats), eps)
    unit = quats / norms
    inner = np.sum(unit * grad_unit, axis=-1, keepdims=True)
    return (grad_unit - unit * inner) / norms


def to_rotation_matrix(unit_quats: np.ndarray) -> np.ndarray:
    """Convert unit quaternions ``(N, 4)`` to rotation matrices ``(N, 3, 3)``."""
    w, x, y, z = (unit_quats[..., i] for i in range(4))
    rot = np.empty(unit_quats.shape[:-1] + (3, 3), dtype=unit_quats.dtype)
    rot[..., 0, 0] = 1 - 2 * (y * y + z * z)
    rot[..., 0, 1] = 2 * (x * y - w * z)
    rot[..., 0, 2] = 2 * (x * z + w * y)
    rot[..., 1, 0] = 2 * (x * y + w * z)
    rot[..., 1, 1] = 1 - 2 * (x * x + z * z)
    rot[..., 1, 2] = 2 * (y * z - w * x)
    rot[..., 2, 0] = 2 * (x * z - w * y)
    rot[..., 2, 1] = 2 * (y * z + w * x)
    rot[..., 2, 2] = 1 - 2 * (x * x + y * y)
    return rot


def rotation_matrix_backward(
    unit_quats: np.ndarray, grad_rot: np.ndarray
) -> np.ndarray:
    """Backpropagate ``dL/dR`` to ``dL/d(unit quaternion)``.

    Args:
        unit_quats: unit quaternions, ``(N, 4)``.
        grad_rot: gradient w.r.t. the rotation matrices, ``(N, 3, 3)``.

    Returns:
        Gradient w.r.t. the unit quaternions, ``(N, 4)``.
    """
    w, x, y, z = (unit_quats[..., i] for i in range(4))
    g = grad_rot

    # Each dR/dq_k is linear in (w, x, y, z); contract with grad_rot.
    grad_w = 2 * (
        -z * g[..., 0, 1]
        + y * g[..., 0, 2]
        + z * g[..., 1, 0]
        - x * g[..., 1, 2]
        - y * g[..., 2, 0]
        + x * g[..., 2, 1]
    )
    grad_x = 2 * (
        y * g[..., 0, 1]
        + z * g[..., 0, 2]
        + y * g[..., 1, 0]
        - 2 * x * g[..., 1, 1]
        - w * g[..., 1, 2]
        + z * g[..., 2, 0]
        + w * g[..., 2, 1]
        - 2 * x * g[..., 2, 2]
    )
    grad_y = 2 * (
        -2 * y * g[..., 0, 0]
        + x * g[..., 0, 1]
        + w * g[..., 0, 2]
        + x * g[..., 1, 0]
        + z * g[..., 1, 2]
        - w * g[..., 2, 0]
        + z * g[..., 2, 1]
        - 2 * y * g[..., 2, 2]
    )
    grad_z = 2 * (
        -2 * z * g[..., 0, 0]
        - w * g[..., 0, 1]
        + x * g[..., 0, 2]
        + w * g[..., 1, 0]
        - 2 * z * g[..., 1, 1]
        + y * g[..., 1, 2]
        + x * g[..., 2, 0]
        + y * g[..., 2, 1]
    )
    return np.stack([grad_w, grad_x, grad_y, grad_z], axis=-1)

