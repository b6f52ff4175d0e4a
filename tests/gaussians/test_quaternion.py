"""Unit and numerical-gradient tests for quaternion utilities."""

import numpy as np
import pytest

from repro.gaussians import quaternion


def numerical_grad(f, x, eps=1e-6):
    """Central-difference gradient of scalar f at x (flattened loop)."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    gflat = grad.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + eps
        hi = f(x)
        flat[i] = orig - eps
        lo = f(x)
        flat[i] = orig
        gflat[i] = (hi - lo) / (2 * eps)
    return grad


def random_unit_quats(num, rng):
    """``num`` uniformly distributed unit quaternions."""
    return quaternion.normalize(rng.normal(size=(num, 4)))


class TestNormalize:
    def test_unit_norm(self):
        rng = np.random.default_rng(0)
        q = rng.normal(size=(32, 4))
        u = quaternion.normalize(q)
        np.testing.assert_allclose(np.linalg.norm(u, axis=-1), 1.0, atol=1e-12)

    def test_already_unit_unchanged(self):
        q = np.array([[1.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(quaternion.normalize(q), q)

    def test_zero_quaternion_safe(self):
        q = np.zeros((1, 4))
        u = quaternion.normalize(q)
        assert np.all(np.isfinite(u))

    def test_backward_matches_numerical(self):
        rng = np.random.default_rng(1)
        q = rng.normal(size=(5, 4))
        w = rng.normal(size=(5, 4))  # random linear functional

        def loss(qq):
            return float(np.sum(quaternion.normalize(qq) * w))

        analytic = quaternion.normalize_backward(q, w)
        numeric = numerical_grad(loss, q.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-7)


class TestRotationMatrix:
    def test_identity(self):
        q = np.array([[1.0, 0.0, 0.0, 0.0]])
        np.testing.assert_allclose(
            quaternion.to_rotation_matrix(q)[0], np.eye(3), atol=1e-12
        )

    def test_orthonormal(self):
        rng = np.random.default_rng(2)
        u = random_unit_quats(16, rng)
        rots = quaternion.to_rotation_matrix(u)
        for r in rots:
            np.testing.assert_allclose(r @ r.T, np.eye(3), atol=1e-12)
            assert np.linalg.det(r) == pytest.approx(1.0, abs=1e-12)

    def test_z_rotation_90deg(self):
        angle = np.pi / 2
        q = np.array([[np.cos(angle / 2), 0.0, 0.0, np.sin(angle / 2)]])
        r = quaternion.to_rotation_matrix(q)[0]
        np.testing.assert_allclose(r @ [1, 0, 0], [0, 1, 0], atol=1e-12)

    def test_double_cover(self):
        rng = np.random.default_rng(3)
        u = random_unit_quats(8, rng)
        np.testing.assert_allclose(
            quaternion.to_rotation_matrix(u),
            quaternion.to_rotation_matrix(-u),
            atol=1e-12,
        )

    def test_backward_matches_numerical(self):
        rng = np.random.default_rng(4)
        u = random_unit_quats(6, rng)
        w = rng.normal(size=(6, 3, 3))

        analytic = quaternion.rotation_matrix_backward(u, w)

        # numerical: perturb unit quats directly (no re-normalization; the
        # rotation formula is defined for any q, grads match at unit norm)
        def loss(qq):
            return float(np.sum(quaternion.to_rotation_matrix(qq) * w))

        numeric = numerical_grad(loss, u.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)


class TestFullChain:
    def test_raw_quat_to_rotation_gradient(self):
        rng = np.random.default_rng(5)
        q = rng.normal(size=(4, 4)) * 2.0
        w = rng.normal(size=(4, 3, 3))

        def loss(qq):
            u = quaternion.normalize(qq)
            return float(np.sum(quaternion.to_rotation_matrix(u) * w))

        unit = quaternion.normalize(q)
        grad_unit = quaternion.rotation_matrix_backward(unit, w)
        analytic = quaternion.normalize_backward(q, grad_unit)
        numeric = numerical_grad(loss, q.copy())
        np.testing.assert_allclose(analytic, numeric, atol=1e-6)
