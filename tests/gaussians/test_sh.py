"""Tests for the real spherical harmonics basis and its gradients."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gaussians import sh


def random_unit_dirs(n, seed=0):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=(n, 3))
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


class TestBasis:
    def test_degree0_constant(self):
        dirs = random_unit_dirs(10)
        b = sh.basis(dirs, degree=0)
        np.testing.assert_allclose(b, sh.C0)

    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_shape(self, degree):
        dirs = random_unit_dirs(7)
        assert sh.basis(dirs, degree).shape == (7, (degree + 1) ** 2)

    def test_invalid_degree_raises(self):
        with pytest.raises(ValueError):
            sh.num_coeffs(4)
        with pytest.raises(ValueError):
            sh.num_coeffs(-1)

    def test_orthonormality(self):
        """Monte-Carlo check: int basis_i basis_j dOmega ~= delta_ij."""
        rng = np.random.default_rng(42)
        v = rng.normal(size=(200_000, 3))
        dirs = v / np.linalg.norm(v, axis=-1, keepdims=True)
        b = sh.basis(dirs, degree=3)
        gram = (b.T @ b) / dirs.shape[0] * (4 * np.pi)
        np.testing.assert_allclose(gram, np.eye(16), atol=0.05)

    def test_degree_prefix_consistency(self):
        dirs = random_unit_dirs(5, seed=1)
        full = sh.basis(dirs, degree=3)
        for d in range(4):
            np.testing.assert_allclose(
                sh.basis(dirs, degree=d), full[:, : (d + 1) ** 2]
            )


class TestBasisJacobian:
    @pytest.mark.parametrize("degree", [0, 1, 2, 3])
    def test_matches_numerical(self, degree):
        dirs = random_unit_dirs(6, seed=2)
        jac = sh.basis_jacobian(dirs, degree)
        eps = 1e-6
        for axis in range(3):
            shift = np.zeros(3)
            shift[axis] = eps
            hi = sh.basis(dirs + shift, degree)
            lo = sh.basis(dirs - shift, degree)
            numeric = (hi - lo) / (2 * eps)
            np.testing.assert_allclose(jac[..., axis], numeric, atol=1e-6)


class TestEvalColors:
    def test_dc_only_color(self):
        """A Gaussian with only DC coefficients has view-independent color."""
        coeffs = np.zeros((1, 16, 3))
        target = np.array([0.7, 0.2, 0.4])
        coeffs[0, 0, :] = (target - 0.5) / sh.C0
        for seed in range(3):
            dirs = random_unit_dirs(1, seed=seed)
            colors, mask = sh.eval_colors(coeffs, dirs, degree=3)
            np.testing.assert_allclose(colors[0], target, atol=1e-12)
            assert mask.all()

    def test_clamp_at_zero(self):
        coeffs = np.zeros((1, 16, 3))
        coeffs[0, 0, :] = (-1.0 - 0.5) / sh.C0  # raw = -1.0
        dirs = random_unit_dirs(1)
        colors, mask = sh.eval_colors(coeffs, dirs)
        np.testing.assert_allclose(colors, 0.0)
        assert not mask.any()

    def test_backward_matches_numerical(self):
        rng = np.random.default_rng(3)
        n = 4
        coeffs = rng.normal(size=(n, 16, 3)) * 0.3
        dirs = random_unit_dirs(n, seed=4)
        w = rng.normal(size=(n, 3))

        colors, mask = sh.eval_colors(coeffs, dirs)
        g_coeffs, g_dirs = sh.eval_colors_backward(coeffs, dirs, mask, w)

        eps = 1e-6
        # coefficients
        numeric_c = np.zeros_like(coeffs)
        flat = coeffs.reshape(-1)
        nflat = numeric_c.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = np.sum(sh.eval_colors(coeffs, dirs)[0] * w)
            flat[i] = orig - eps
            lo = np.sum(sh.eval_colors(coeffs, dirs)[0] * w)
            flat[i] = orig
            nflat[i] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(g_coeffs, numeric_c, atol=1e-6)

        # directions (treating components as free variables)
        numeric_d = np.zeros_like(dirs)
        flat = dirs.reshape(-1)
        nflat = numeric_d.reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = np.sum(sh.eval_colors(coeffs, dirs)[0] * w)
            flat[i] = orig - eps
            lo = np.sum(sh.eval_colors(coeffs, dirs)[0] * w)
            flat[i] = orig
            nflat[i] = (hi - lo) / (2 * eps)
        np.testing.assert_allclose(g_dirs, numeric_d, atol=1e-5)

    def test_clamped_channels_get_zero_grad(self):
        coeffs = np.zeros((1, 16, 3))
        coeffs[0, 0, 0] = (-1.0 - 0.5) / sh.C0  # R clamped
        coeffs[0, 0, 1] = (0.5 - 0.5) / sh.C0  # G alive
        dirs = random_unit_dirs(1)
        colors, mask = sh.eval_colors(coeffs, dirs)
        g_coeffs, _ = sh.eval_colors_backward(
            coeffs, dirs, mask, np.ones((1, 3))
        )
        assert g_coeffs[0, 0, 0] == 0.0
        assert g_coeffs[0, 0, 1] != 0.0


class TestRowSubsets:
    """Numerics contract fact 11: a colour depends on its own row only,
    so evaluating any subset of rows gives those rows of the whole call,
    byte for byte — what lets a forward-only render shade only the
    splats its pair table composites."""

    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(1, 48),
        degree=st.integers(0, 3),
        dtype=st.sampled_from([np.float32, np.float64]),
        seed=st.integers(0, 2**32 - 1),
        data=st.data(),
    )
    def test_a_subset_is_those_rows_of_the_whole(
        self, n, degree, dtype, seed, data
    ):
        rng = np.random.default_rng(seed)
        coeffs = (
            rng.normal(size=(n, 16, 3)) * 10.0 ** rng.uniform(-3, 3, (n, 1, 1))
        ).astype(dtype)
        dirs = random_unit_dirs(n, seed=seed % 1000).astype(dtype)
        size = data.draw(st.sampled_from(sorted({1, min(2, n), n})))
        rows = rng.choice(n, size=size, replace=False)
        if data.draw(st.booleans()):
            rows.sort()
        colors, mask = sh.eval_colors(coeffs, dirs, degree)
        sub_colors, sub_mask = sh.eval_colors(coeffs[rows], dirs[rows], degree)
        assert sub_colors.dtype == colors.dtype
        assert sub_colors.tobytes() == colors[rows].tobytes()
        assert sub_mask.tobytes() == mask[rows].tobytes()
