"""Tests for 3D covariance construction and its backward pass."""

import numpy as np

from repro.gaussians import covariance, quaternion


class TestBuildCovariance:
    def test_identity_rotation_diag(self):
        log_scales = np.log(np.array([[1.0, 2.0, 3.0]]))
        quats = np.array([[1.0, 0.0, 0.0, 0.0]])
        cov, _ = covariance.build_covariance(log_scales, quats)
        np.testing.assert_allclose(cov[0], np.diag([1.0, 4.0, 9.0]), atol=1e-12)

    def test_symmetric_positive_definite(self):
        rng = np.random.default_rng(0)
        n = 32
        log_scales = rng.uniform(-2, 1, size=(n, 3))
        quats = rng.normal(size=(n, 4))
        cov, _ = covariance.build_covariance(log_scales, quats)
        np.testing.assert_allclose(cov, np.swapaxes(cov, -1, -2), atol=1e-12)
        eigvals = np.linalg.eigvalsh(cov)
        assert np.all(eigvals > 0)

    def test_rotation_invariant_trace(self):
        """Trace (sum of squared scales) is rotation invariant."""
        rng = np.random.default_rng(1)
        log_scales = rng.uniform(-1, 1, size=(8, 3))
        quats = rng.normal(size=(8, 4))
        cov, _ = covariance.build_covariance(log_scales, quats)
        expected = np.sum(np.exp(2 * log_scales), axis=1)
        np.testing.assert_allclose(np.trace(cov, axis1=1, axis2=2), expected)

    def test_determinant(self):
        """det(Sigma) = prod(scale^2) regardless of rotation."""
        rng = np.random.default_rng(2)
        log_scales = rng.uniform(-1, 1, size=(8, 3))
        quats = rng.normal(size=(8, 4))
        cov, _ = covariance.build_covariance(log_scales, quats)
        expected = np.prod(np.exp(2 * log_scales), axis=1)
        np.testing.assert_allclose(np.linalg.det(cov), expected, rtol=1e-10)


class TestBackward:
    def test_matches_numerical(self):
        rng = np.random.default_rng(3)
        n = 5
        log_scales = rng.uniform(-1, 0.5, size=(n, 3))
        quats = rng.normal(size=(n, 4))
        w = rng.normal(size=(n, 3, 3))

        cov, ctx = covariance.build_covariance(log_scales, quats)
        g_ls, g_q = covariance.build_covariance_backward(quats, ctx, w)

        eps = 1e-6

        def loss():
            c, _ = covariance.build_covariance(log_scales, quats)
            return float(np.sum(c * w))

        for arr, grad in ((log_scales, g_ls), (quats, g_q)):
            numeric = np.zeros_like(arr)
            flat, nflat = arr.reshape(-1), numeric.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                hi = loss()
                flat[i] = orig - eps
                lo = loss()
                flat[i] = orig
                nflat[i] = (hi - lo) / (2 * eps)
            np.testing.assert_allclose(grad, numeric, atol=1e-5)

    def test_asymmetric_grad_handled(self):
        """Backward symmetrizes dL/dSigma, so G and (G+G^T)/2 agree."""
        rng = np.random.default_rng(4)
        log_scales = rng.uniform(-1, 0, size=(3, 3))
        quats = quaternion.normalize(rng.normal(size=(3, 4)))  # uniform unit quats
        g = rng.normal(size=(3, 3, 3))
        _, ctx = covariance.build_covariance(log_scales, quats)
        out1 = covariance.build_covariance_backward(quats, ctx, g)
        gsym = 0.5 * (g + np.swapaxes(g, -1, -2))
        out2 = covariance.build_covariance_backward(quats, ctx, gsym)
        np.testing.assert_allclose(out1[0], out2[0], atol=1e-12)
        np.testing.assert_allclose(out1[1], out2[1], atol=1e-12)
