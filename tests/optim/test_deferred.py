"""Equivalence tests: deferred optimizer update vs dense reference.

These verify the paper's central algorithmic claim (Section 4.3): deferring
updates of zero-gradient Gaussians and lazily reconstructing their state is
equivalent to dense Adam, up to the epsilon-factoring approximation in the
weight restoration (exact for the moments; Table 3 shows the approximation
does not affect training quality).
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.optim import AdamConfig, DeferredAdam, DenseAdam

LR = 0.01


def run_pair(sparsity_pattern, grads, config=None, max_defer=15, p0=None):
    """Run DenseAdam and DeferredAdam on the same sparse-gradient sequence.

    Args:
        sparsity_pattern: iterable of boolean arrays ``(N,)``, one per step.
        grads: array ``(T, N, D)`` of gradient values (masked by pattern).
    """
    config = config or AdamConfig(lr=LR)
    steps, n, d = grads.shape
    if p0 is None:
        rng = np.random.default_rng(1234)
        p0 = rng.normal(size=(n, d))
    dense = DenseAdam(p0.copy(), config)
    deferred = DeferredAdam(p0.copy(), config, max_defer=max_defer)
    for t in range(steps):
        mask = np.asarray(sparsity_pattern[t], dtype=bool)
        full = np.where(mask[:, None], grads[t], 0.0)
        dense.step(full)
        ids = np.nonzero(mask)[0]
        deferred.step(ids, grads[t][ids])
    return dense, deferred


def eps_factoring_bound(sparsity_pattern, grads, config=None):
    """Per-coordinate bound on ``|deferred - dense|`` from where Equation
    3 puts ``eps``: the sum, over the steps a row is deferred, of dense
    Adam's step times ``eps / sqrt(v)`` (``inf`` where ``v`` underflowed
    under a moving coordinate). Replays :func:`run_pair`'s dense run."""
    config = config or AdamConfig(lr=LR)
    steps, n, d = grads.shape
    dense = DenseAdam(np.random.default_rng(1234).normal(size=(n, d)), config)
    bound = np.zeros((n, d))
    for t in range(steps):
        mask = np.asarray(sparsity_pattern[t], dtype=bool)
        before = dense.params.copy()
        dense.step(np.where(mask[:, None], grads[t], 0.0))
        moved = np.abs(dense.params - before)[~mask]
        root = np.sqrt(dense.v[~mask])
        with np.errstate(divide="ignore", invalid="ignore"):
            bound[~mask] += np.where(moved > 0, moved * config.eps / root, 0.0)
    return bound


class TestAllActiveEquivalence:
    def test_matches_dense_when_nothing_deferred(self):
        rng = np.random.default_rng(0)
        grads = rng.normal(size=(10, 6, 4))
        pattern = [np.ones(6, dtype=bool)] * 10
        dense, deferred = run_pair(pattern, grads)
        np.testing.assert_allclose(deferred.params, dense.params, rtol=1e-12)
        np.testing.assert_allclose(deferred.m, dense.m, rtol=1e-12)
        np.testing.assert_allclose(deferred.v, dense.v, rtol=1e-12)
        assert np.all(deferred.counter == 0)


class TestDeferredEquivalence:
    def test_single_deferral_roundtrip(self):
        """One row skips d steps, then gets a gradient: states must agree."""
        rng = np.random.default_rng(1)
        steps, n, d = 12, 3, 2
        grads = rng.normal(size=(steps, n, d))
        pattern = []
        for t in range(steps):
            mask = np.ones(n, dtype=bool)
            if 2 <= t <= 8:
                mask[0] = False  # row 0 deferred for 7 steps
            pattern.append(mask)
        dense, deferred = run_pair(pattern, grads)
        np.testing.assert_allclose(deferred.m, dense.m, rtol=1e-10)
        np.testing.assert_allclose(deferred.v, dense.v, rtol=1e-10)
        np.testing.assert_allclose(deferred.params, dense.params, rtol=1e-8)

    def test_deferred_moments_are_stored_stale(self):
        """Stored moments of a deferred row lag dense by beta^d — the
        materialized accessors bridge the gap (Equation 2)."""
        rng = np.random.default_rng(12)
        grads = rng.normal(size=(4, 2, 2))
        pattern = [
            np.array([True, True]),
            np.array([False, True]),
            np.array([False, True]),
            np.array([False, True]),
        ]
        dense, deferred = run_pair(pattern, grads)
        assert deferred.counter[0] == 3
        # stored m lags by beta1^3
        np.testing.assert_allclose(
            deferred.m[0] * 0.9**3, dense.m[0], rtol=1e-12
        )
        m_mat, v_mat = deferred.materialized_moments()
        np.testing.assert_allclose(m_mat, dense.m, rtol=1e-12)
        np.testing.assert_allclose(v_mat, dense.v, rtol=1e-12)

    def test_never_active_row_stays_put(self):
        rng = np.random.default_rng(2)
        grads = rng.normal(size=(5, 4, 3))
        pattern = []
        for _ in range(5):
            mask = np.ones(4, dtype=bool)
            mask[3] = False
            pattern.append(mask)
        p0 = np.random.default_rng(1234).normal(size=(4, 3))
        dense, deferred = run_pair(pattern, grads)
        # a row with zero moments has no drift: stored == dense == initial
        np.testing.assert_allclose(deferred.params[3], dense.params[3], rtol=1e-12)
        np.testing.assert_allclose(deferred.params[3], p0[3], rtol=1e-12)

    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        steps=st.integers(2, 30),
        n=st.integers(1, 8),
        density=st.floats(0.1, 0.9),
    )
    # a gradient of -1.6e-10 leaves sqrt(v) = 5e-12 on one coordinate,
    # so eps moves its one deferred step by 1.1e-6 (a fixed rtol failed)
    @example(seed=1056, steps=5, n=8, density=0.5)
    def test_property_random_sparsity(self, seed, steps, n, density):
        """Property: any sparsity pattern yields dense-equivalent training."""
        rng = np.random.default_rng(seed)
        d = 3
        grads = rng.normal(size=(steps, n, d))
        pattern = [rng.random(n) < density for _ in range(steps)]
        dense, deferred = run_pair(pattern, grads)
        m_mat, v_mat = deferred.materialized_moments()
        np.testing.assert_allclose(m_mat, dense.m, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(v_mat, dense.v, rtol=1e-9, atol=1e-12)
        # Equation 3 restores a deferred row in closed form: exact in real
        # arithmetic, not in floating point (numerics contract fact 3),
        # and with eps moved to where the closed form can factor it out.
        # A deferred step's drift is c m / (sqrt(v) + e1) where dense
        # Adam steps by c m / (sqrt(v) + e2), sqrt(v) the root of dense
        # Adam's second moment and e1, e2 eps times factors in [0, 1], so
        # the two differ by at most |dense step| * eps / sqrt(v): ~1e-6
        # on a coordinate with a tiny second moment (the example above).
        # Rows with a gradient step identically, so the differences add
        # up (eps_factoring_bound). Rounding of the reordered arithmetic
        # adds a few ulp per step (< 2e-15 over 4000 random cases), which
        # 1e-12 covers. No fixed rtol holds: eps = 1e-15 amplifies the
        # last bit on such coordinates.
        final_deferred = deferred.materialized_params()
        bound = eps_factoring_bound(pattern, grads) + 1e-12
        assert np.all(np.abs(final_deferred - dense.params) <= bound)

    def test_epsilon_approximation_bounded(self):
        """With a large eps the approximation error appears but stays tiny
        relative to the parameter scale (Section 5.5 / Table 3)."""
        rng = np.random.default_rng(3)
        steps, n, d = 20, 4, 2
        grads = rng.normal(size=(steps, n, d))
        pattern = [rng.random(n) < 0.4 for _ in range(steps)]
        cfg = AdamConfig(lr=LR, eps=1e-8)
        dense, deferred = run_pair(pattern, grads, config=cfg)
        drift = np.abs(deferred.materialized_params() - dense.params)
        assert drift.max() < 1e-6  # bounded, nonzero is acceptable


class TestCounterMechanics:
    def test_counter_never_exceeds_max(self):
        rng = np.random.default_rng(4)
        opt = DeferredAdam(rng.normal(size=(5, 2)), AdamConfig(lr=LR), max_defer=3)
        for _ in range(20):
            opt.step(np.array([0]), rng.normal(size=(1, 2)))
            assert opt.counter.max() <= 3

    def test_saturation_forces_update(self):
        """A row deferred max_defer times is updated even with zero grad."""
        rng = np.random.default_rng(5)
        opt = DeferredAdam(rng.normal(size=(2, 2)), AdamConfig(lr=LR), max_defer=3)
        # give row 1 momentum, then starve it
        opt.step(np.array([1]), rng.normal(size=(1, 2)))
        before = opt.params[1].copy()
        for _ in range(3):
            opt.step(np.array([0]), rng.normal(size=(1, 2)))
        np.testing.assert_array_equal(opt.params[1], before)  # still deferred
        stats = opt.step(np.array([0]), rng.normal(size=(1, 2)))
        assert stats.rows_updated == 2  # row 1 dragged in by saturation
        assert opt.counter[1] == 0
        assert np.any(opt.params[1] != before)  # drift committed

    def test_update_ids_union(self):
        opt = DeferredAdam(np.zeros((6, 2)), max_defer=2)
        opt.counter[:] = np.array([0, 2, 1, 2, 0, 0])
        ids = opt.update_ids_for(np.array([4, 0]))
        np.testing.assert_array_equal(ids, [0, 1, 3, 4])

    def test_max_defer_validation(self):
        with pytest.raises(ValueError):
            DeferredAdam(np.zeros((2, 2)), max_defer=0)
        with pytest.raises(ValueError):
            DeferredAdam(np.zeros((2, 2)), max_defer=300)


class TestForwardingContract:
    def test_peek_equals_commit(self):
        """peek_updated (parameter forwarding) must predict the committed
        state exactly — Section 4.3.3's consistency requirement."""
        rng = np.random.default_rng(6)
        opt = DeferredAdam(rng.normal(size=(8, 3)), AdamConfig(lr=LR))
        # warm up with mixed sparsity
        for _ in range(7):
            ids = np.sort(rng.choice(8, size=3, replace=False))
            opt.step(ids, rng.normal(size=(3, 3)))
        ids = np.array([1, 5])
        g = rng.normal(size=(2, 3))
        peeked = opt.peek_updated(ids, g)
        counters_before = opt.counter.copy()
        params_before = opt.params.copy()
        opt.step(ids, g)
        np.testing.assert_allclose(opt.params[ids], peeked, rtol=1e-13)
        # peek must not have mutated anything before the step
        np.testing.assert_array_equal(opt.counter[ids], 0)
        del counters_before, params_before

    def test_peek_is_pure(self):
        rng = np.random.default_rng(7)
        opt = DeferredAdam(rng.normal(size=(4, 2)), AdamConfig(lr=LR))
        opt.step(np.array([0, 1]), rng.normal(size=(2, 2)))
        snap = (opt.params.copy(), opt.m.copy(), opt.v.copy(), opt.counter.copy())
        opt.peek_updated(np.array([0, 2]), rng.normal(size=(2, 2)))
        np.testing.assert_array_equal(opt.params, snap[0])
        np.testing.assert_array_equal(opt.m, snap[1])
        np.testing.assert_array_equal(opt.v, snap[2])
        np.testing.assert_array_equal(opt.counter, snap[3])

    def test_peek_zero_grad_row_includes_drift(self):
        """Forwarded rows with zero pending gradient still need their
        zero-grad drift applied (they are in the next frustum)."""
        rng = np.random.default_rng(8)
        opt = DeferredAdam(rng.normal(size=(2, 2)), AdamConfig(lr=LR))
        opt.step(np.array([0]), rng.normal(size=(1, 2)))  # row 0 gets momentum
        opt.step(np.array([1]), rng.normal(size=(1, 2)))  # row 0 deferred once
        peeked = opt.peek_updated(np.array([0]), np.zeros((1, 2)))
        assert np.all(peeked != opt.params[0])  # drift applied


class TestMaterializeAndFlush:
    def test_materialize_matches_dense_midtraining(self):
        rng = np.random.default_rng(9)
        steps, n, d = 15, 5, 3
        grads = rng.normal(size=(steps, n, d))
        pattern = [rng.random(n) < 0.5 for _ in range(steps)]
        dense, deferred = run_pair(pattern, grads)
        np.testing.assert_allclose(
            deferred.materialized_params(), dense.params, rtol=1e-7, atol=1e-10
        )

    def test_flush_commits_and_training_continues(self):
        rng = np.random.default_rng(10)
        cfg = AdamConfig(lr=LR)
        p0 = rng.normal(size=(5, 3))
        dense = DenseAdam(p0.copy(), cfg)
        deferred = DeferredAdam(p0.copy(), cfg)
        for _ in range(6):
            ids = np.sort(rng.choice(5, size=2, replace=False))
            g = rng.normal(size=(2, 3))
            full = np.zeros((5, 3))
            full[ids] = g
            dense.step(full)
            deferred.step(ids, g)
        deferred.flush()
        assert np.all(deferred.counter == 0)
        np.testing.assert_allclose(deferred.params, dense.params, rtol=1e-7)
        np.testing.assert_allclose(deferred.m, dense.m, rtol=1e-9)
        np.testing.assert_allclose(deferred.v, dense.v, rtol=1e-9)
        # keep training after the flush; must stay equivalent
        for _ in range(6):
            ids = np.sort(rng.choice(5, size=2, replace=False))
            g = rng.normal(size=(2, 3))
            full = np.zeros((5, 3))
            full[ids] = g
            dense.step(full)
            deferred.step(ids, g)
        np.testing.assert_allclose(
            deferred.materialized_params(), dense.params, rtol=1e-7
        )


class TestTrafficAccounting:
    def test_deferred_traffic_scales_with_active_rows(self):
        n, d = 100, 59
        opt = DeferredAdam(np.zeros((n, d), dtype=np.float32))
        ids = np.arange(10)
        stats = opt.step(ids, np.zeros((10, d), dtype=np.float32))
        assert stats.rows_updated == 10
        assert stats.float_bytes == 7 * 10 * d * 4
        assert stats.counter_bytes == 2 * n

    def test_traffic_ratio_matches_paper_model(self):
        """Deferred vs dense float traffic ~ active ratio (Section 4.3.2)."""
        n, d = 1000, 59
        dense = DenseAdam(np.zeros((n, d), dtype=np.float32))
        deferred = DeferredAdam(np.zeros((n, d), dtype=np.float32))
        active = np.arange(83)  # ~8.3% like Figure 4's average
        s_dense = dense.step(np.zeros((n, d), dtype=np.float32))
        s_def = deferred.step(active, np.zeros((83, d), dtype=np.float32))
        ratio = s_def.float_bytes / s_dense.float_bytes
        assert ratio == pytest.approx(0.083, abs=1e-3)
        # counters add ~2 bytes per Gaussian vs 7*59*4 bytes per update
        assert s_def.counter_bytes / s_dense.float_bytes < 0.002


class TestAdamWExtension:
    def test_deferred_adamw_matches_dense(self):
        rng = np.random.default_rng(11)
        cfg = AdamConfig(lr=LR, weight_decay=0.01)
        steps, n, d = 18, 5, 3
        grads = rng.normal(size=(steps, n, d))
        pattern = [rng.random(n) < 0.5 for _ in range(steps)]
        dense, deferred = run_pair(pattern, grads, config=cfg)
        m_mat, _ = deferred.materialized_moments()
        np.testing.assert_allclose(m_mat, dense.m, rtol=1e-9, atol=1e-12)
        np.testing.assert_allclose(
            deferred.materialized_params(), dense.params, rtol=1e-6, atol=1e-9
        )
