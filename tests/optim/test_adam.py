"""Unit tests for the dense Adam reference optimizer."""

import numpy as np
import pytest

from repro.optim import AdamConfig, DenseAdam, adam_update


class TestAdamKernel:
    def test_first_step_matches_hand_computation(self):
        cfg = AdamConfig(lr=0.1, beta1=0.9, beta2=0.999, eps=1e-8)
        p = np.array([[1.0]])
        g = np.array([[2.0]])
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        p1, m1, v1 = adam_update(p, g, m, v, 1, cfg)
        # m1 = 0.1*2 = 0.2 ; v1 = 0.001*4 = 0.004
        assert m1[0, 0] == pytest.approx(0.2)
        assert v1[0, 0] == pytest.approx(0.004)
        # m_hat = 2, v_hat = 4 -> step = 0.1 * 2/(2+1e-8) ~= 0.1
        assert p1[0, 0] == pytest.approx(1.0 - 0.1, abs=1e-8)

    def test_zero_grad_still_moves_params(self):
        """The paper's Challenge 2: momentum keeps nonzero updates."""
        cfg = AdamConfig(lr=0.1)
        p = np.array([[1.0]])
        g = np.array([[2.0]])
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        p, m, v = adam_update(p, g, m, v, 1, cfg)
        p2, m2, v2 = adam_update(p, np.zeros_like(p), m, v, 2, cfg)
        assert p2[0, 0] != p[0, 0]
        assert m2[0, 0] == pytest.approx(0.9 * m[0, 0])
        assert v2[0, 0] == pytest.approx(0.999 * v[0, 0])

    def test_step_zero_rejected(self):
        cfg = AdamConfig()
        z = np.zeros((1, 1))
        with pytest.raises(ValueError):
            adam_update(z, z, z, z, 0, cfg)

    def test_per_column_lr(self):
        cfg = AdamConfig(lr=np.array([0.1, 0.0]))
        p = np.ones((2, 2))
        g = np.ones((2, 2))
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        p1, _, _ = adam_update(p, g, m, v, 1, cfg)
        assert np.all(p1[:, 0] < 1.0)
        np.testing.assert_allclose(p1[:, 1], 1.0)

    def test_weight_decay_decoupled(self):
        cfg = AdamConfig(lr=0.1, weight_decay=0.5)
        p = np.array([[1.0]])
        g = np.zeros((1, 1))
        m = np.zeros_like(p)
        v = np.zeros_like(p)
        p1, _, _ = adam_update(p, g, m, v, 1, cfg)
        # no gradient: only the decay term fires: p - lr*wd*p
        assert p1[0, 0] == pytest.approx(1.0 - 0.1 * 0.5)


class TestDenseAdam:
    def test_matches_kernel_over_steps(self):
        rng = np.random.default_rng(0)
        p0 = rng.normal(size=(5, 3))
        opt = DenseAdam(p0.copy(), AdamConfig(lr=0.01))
        p, m, v = p0.copy(), np.zeros_like(p0), np.zeros_like(p0)
        for t in range(1, 6):
            g = rng.normal(size=(5, 3))
            opt.step(g)
            p, m, v = adam_update(p, g, m, v, t, AdamConfig(lr=0.01))
        np.testing.assert_allclose(opt.params, p, rtol=1e-12)

    def test_step_sparse_equals_dense_with_zeros(self):
        rng = np.random.default_rng(1)
        p0 = rng.normal(size=(6, 4))
        a = DenseAdam(p0.copy())
        b = DenseAdam(p0.copy())
        ids = np.array([1, 4])
        g_rows = rng.normal(size=(2, 4))
        dense = np.zeros((6, 4))
        dense[ids] = g_rows
        a.step(dense)
        b.step_sparse(ids, g_rows)
        np.testing.assert_array_equal(a.params, b.params)

    def test_stats_charge_all_rows(self):
        p = np.zeros((10, 59))
        opt = DenseAdam(p)
        stats = opt.step(np.zeros_like(p))
        assert stats.rows_updated == 10
        assert stats.float_bytes == 7 * 10 * 59 * 8  # float64 here
        assert stats.counter_bytes == 0

    def test_updates_in_place_view(self):
        """Optimizer mutates the array it was given (selective offloading
        relies on updating the geometric block through a view)."""
        store = np.zeros((4, 10))
        opt = DenseAdam(store)
        opt.step(np.ones_like(store))
        assert np.all(store != 0.0)

    def test_peek_matches_commit(self):
        rng = np.random.default_rng(2)
        opt = DenseAdam(rng.normal(size=(5, 3)), AdamConfig(lr=0.05))
        for _ in range(3):
            opt.step(rng.normal(size=(5, 3)))
        ids = np.array([0, 2])
        g_rows = rng.normal(size=(2, 3))
        peeked = opt.peek_updated(ids, g_rows)
        opt.step_sparse(ids, g_rows)
        np.testing.assert_allclose(opt.params[ids], peeked, rtol=1e-14)

    def test_bad_shapes_raise(self):
        opt = DenseAdam(np.zeros((3, 2)))
        with pytest.raises(ValueError):
            opt.step(np.zeros((2, 2)))
        # a (1, D) block must not broadcast into every listed row
        with pytest.raises(ValueError):
            opt.step_sparse(np.array([0, 2]), np.ones((1, 2)))
        with pytest.raises(ValueError):
            opt.step_sparse(np.array([0]), np.ones((1, 3)))
        with pytest.raises(ValueError):
            DenseAdam(np.zeros(5))
        with pytest.raises(ValueError):
            AdamConfig(lr=np.zeros(3)).lr_vector(2)


class TestLrSchedule:
    def test_rate_table_lives_beside_the_optimizers(self):
        import repro.optim
        from repro.optim import base

        assert repro.optim.DEFAULT_LRS is base.DEFAULT_LRS
        assert repro.optim.packed_lr_vector is base.packed_lr_vector
        assert base.DEFAULT_LRS == {
            "mean": 1.6e-4,
            "scale": 5e-3,
            "quat": 1e-3,
            "opacity": 5e-2,
            "sh": 2.5e-3,
        }
        assert base.SH_REST_DIVISOR == 20.0

    def test_packed_lr_vector_layout(self):
        from repro.gaussians import layout
        from repro.optim import packed_lr_vector

        lr = packed_lr_vector(scene_extent=2.0)
        assert lr.shape == (59,)
        np.testing.assert_allclose(lr[layout.MEAN_SLICE], 1.6e-4 * 2.0)
        np.testing.assert_allclose(lr[layout.OPACITY_SLICE], 5e-2)
        # DC SH at full rate, higher bands divided by 20
        sh = lr[layout.SH_SLICE]
        np.testing.assert_allclose(sh[:3], 2.5e-3)
        np.testing.assert_allclose(sh[3:], 2.5e-3 / 20)
