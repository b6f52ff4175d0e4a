"""Bit-parity of the blocked row kernel with the formulas it replaced.

:mod:`repro.optim.kernel` evaluates Equations 1-3 block by block and in
place. Its contract is not a tolerance: every stored array and every
read-only result must have the *bytes* the out-of-place whole-array
formulas produced, because Adam's ``eps = 1e-15`` amplifies a last-bit
difference into an ``O(lr)`` one and every trajectory check in the repo
(``perfbench``'s bit-identical repeats, the sharded/out-of-core
bit-identity suites) hangs off that. The oracles below are those formulas,
verbatim from before the kernel, kept here as test-only code.

The second half is the allocation gate: the kernel's reason to exist is
that no ``(N, D)`` temporary is ever built, and ``tracemalloc`` (numpy
reports its buffers to it) makes that an exact byte count instead of a
timing — it means the same on a 1-CPU runner.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bench import traced_peak_bytes
from repro.core.stores import DiskStore
from repro.core.systems import TransferLedger
from repro.gaussians import layout
from repro.optim import AdamConfig, DeferredAdam, DenseAdam, adam_update
from repro.optim.base import StepStats, float_traffic_bytes
from repro.optim.kernel import block_rows
from repro.sim.memory import MemoryTracker


# -- the oracles: the out-of-place formulas, as they were ---------------------


class OracleDeferredAdam(DeferredAdam):
    """:class:`DeferredAdam` with the whole-array formulas it used before
    the row kernel: one zero-padded gradient matrix over ``valid ∪
    saturated``, five fancy-index gathers, a fresh temporary per operator,
    and three separate copies of the Equation-3 restore."""

    def _compute_update(self, ids, grads_rows, step):
        cfg = self.config
        b1, b2 = cfg.beta1, cfg.beta2
        param_lut, decay_lut, mom_lut, var_lut = self._luts(step)
        d = self.counter[ids]

        w = self.params[ids]
        m = self.m[ids]
        v = self.v[ids]
        g = grads_rows

        m_new = mom_lut[d][:, None] * m + (1.0 - b1) * g
        v_new = var_lut[d][:, None] * v + (1.0 - b2) * g * g

        w_restored = decay_lut[d] * w - param_lut[d] * m / (np.sqrt(v) + cfg.eps)

        bias_correction = np.sqrt(1.0 - b2**step)
        step_size = self._lr_vec / (1.0 - b1**step)
        denom = np.sqrt(v_new) / bias_correction + cfg.eps
        w_next = w_restored - step_size * m_new / denom
        if cfg.weight_decay > 0.0:
            w_next = w_next - self._lr_vec * cfg.weight_decay * w_restored
        return w_next, m_new, v_new

    def step(self, valid_ids, grads_rows):
        valid_ids = np.asarray(valid_ids, dtype=np.int64)
        self.step_count += 1
        update_ids = self.update_ids_for(valid_ids)

        g = np.zeros((update_ids.size, self.params.shape[1]), self.params.dtype)
        pos = np.searchsorted(update_ids, valid_ids)
        g[pos] = grads_rows

        w, m, v = self._compute_update(update_ids, g, self.step_count)
        self.params[update_ids] = w
        self.m[update_ids] = m
        self.v[update_ids] = v

        self.counter += 1
        self.counter[update_ids] = 0
        return StepStats(
            rows_updated=int(update_ids.size),
            rows_total=self.num_rows,
            float_bytes=float_traffic_bytes(
                int(update_ids.size), self.params.shape[1], self.params.itemsize
            ),
            counter_bytes=2 * self.num_rows,
        )

    def peek_updated(self, ids, grads_rows):
        # the values the step writes: gradients cast to the model's dtype
        # as the step casts them, the promoted result rounded once on store
        ids = np.asarray(ids, dtype=np.int64)
        dtype = self.params.dtype
        w = self._compute_update(ids, grads_rows.astype(dtype), self.step_count + 1)[0]
        return w.astype(dtype)

    def materialized_params(self, ids=None):
        if ids is None:
            ids = np.arange(self.num_rows)
        else:
            ids = np.asarray(ids, dtype=np.int64)
        param_lut, decay_lut, _, _ = self._luts(self.step_count + 1)
        d = self.counter[ids]
        w = self.params[ids]
        m = self.m[ids]
        v = self.v[ids]
        return decay_lut[d] * w - param_lut[d] * m / (np.sqrt(v) + self.config.eps)

    def flush(self):
        _, _, mom_lut, var_lut = self._luts(self.step_count + 1)
        d = self.counter
        self.params[...] = self.materialized_params()
        self.m *= mom_lut[d][:, None] / self.config.beta1
        self.v *= var_lut[d][:, None] / self.config.beta2
        self.counter[...] = 0


class OracleDenseAdam(DenseAdam):
    """:class:`DenseAdam` as ``adam_update`` + copy, with the sparse step
    scattered into a dense zero gradient matrix first."""

    def step(self, grads):
        self.step_count += 1
        new_p, new_m, new_v = adam_update(
            self.params, grads, self.m, self.v, self.step_count, self.config,
            lr_vec=self._lr_vec,
        )
        self.params[...] = new_p
        self.m[...] = new_m
        self.v[...] = new_v

    def step_sparse(self, valid_ids, grads_rows):
        dense = np.zeros_like(self.params)
        dense[valid_ids] = grads_rows
        self.step(dense)

    def peek_updated(self, ids, grads_rows):
        dtype = self.params.dtype  # cast and rounded as step_sparse does
        return adam_update(
            self.params[ids], grads_rows.astype(dtype), self.m[ids],
            self.v[ids], self.step_count + 1, self.config, lr_vec=self._lr_vec,
        )[0].astype(dtype)


# -- helpers -------------------------------------------------------------------

DIM = 3


def _assert_same_bytes(got, want, what):
    got, want = np.asarray(got), np.asarray(want)
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    assert got.tobytes() == want.tobytes(), f"{what}: bytes differ"


def _assert_same_state(opt, ref, when):
    assert opt.step_count == ref.step_count
    for name in ("params", "m", "v", "counter"):
        if hasattr(ref, name):
            _assert_same_bytes(getattr(opt, name), getattr(ref, name), f"{name} {when}")


def _num_rows(kind, dtype):
    b = block_rows(DIM, np.dtype(dtype).itemsize)
    return {"0": 0, "1": 1, "B-1": b - 1, "B": b, "B+1": b + 1, "3B+7": 3 * b + 7}[kind]


def _config(rng, dtype, per_column_lr, weight_decay):
    lr = rng.uniform(1e-4, 5e-2, size=DIM).astype(dtype) if per_column_lr else 1e-2
    return AdamConfig(lr=lr, weight_decay=weight_decay)


def _subset(rng, n, most):
    """A random row subset, ascending or not."""
    size = int(rng.integers(0, min(n, most) + 1))
    ids = rng.choice(n, size=size, replace=False) if n else np.empty(0, np.int64)
    return np.sort(ids) if rng.random() < 0.5 else ids


SHAPES = dict(
    rows=st.sampled_from(["0", "1", "B-1", "B", "B+1", "3B+7"]),
    dtype=st.sampled_from([np.float32, np.float64]),
    per_column_lr=st.booleans(),
    weight_decay=st.sampled_from([0.0, 0.01]),
    seed=st.integers(0, 2**32 - 1),
)


# -- deferred Adam --------------------------------------------------------------


class TestDeferredParity:
    @settings(max_examples=60, deadline=None)
    @given(
        max_defer=st.sampled_from([1, 15]),
        start=st.sampled_from(["fresh", "mid-run", "all-saturated"]),
        **SHAPES,
    )
    def test_steps_peeks_flush_and_on(
        self, rows, dtype, per_column_lr, weight_decay, seed, max_defer, start
    ):
        rng = np.random.default_rng(seed)
        n = _num_rows(rows, dtype)
        p0 = rng.normal(size=(n, DIM)).astype(dtype)
        config = _config(rng, dtype, per_column_lr, weight_decay)
        opt = DeferredAdam(p0.copy(), config, max_defer=max_defer)
        ref = OracleDeferredAdam(p0.copy(), config, max_defer=max_defer)
        if start != "fresh":
            # a state some steps into training: live moments, counters
            # anywhere in 0..max_defer (or every row about to saturate)
            m0 = rng.normal(size=(n, DIM)).astype(dtype)
            m0[rng.random(n) < 0.2] = -0.0  # "+ 0.0" must still clear the sign
            v0 = (rng.normal(size=(n, DIM)) ** 2).astype(dtype)
            counter = (
                np.full(n, max_defer) if start == "all-saturated"
                else rng.integers(0, max_defer + 1, size=n)
            )
            for o in (opt, ref):
                o.m[...], o.v[...], o.counter[...] = m0, v0, counter
                o.step_count = max_defer + 3

        steps = max_defer + 5  # long enough for untouched rows to saturate
        poison_step = int(rng.integers(0, steps))
        for t in range(steps):
            self._one_step(rng, opt, ref, t, t == poison_step, dtype)
            if t == steps // 2:
                with np.errstate(invalid="ignore"):
                    stats = opt.flush()
                    ref.flush()
                assert stats.rows_updated == n
                _assert_same_state(opt, ref, "after the flush")
                assert not opt.counter.any()

    @staticmethod
    def _one_step(rng, opt, ref, t, poison, dtype):
        n = opt.num_rows
        with np.errstate(invalid="ignore"):  # poisoned rows stay poisoned
            # read-only surface first: it must also leave no trace
            peek_ids = _subset(rng, n, 9)
            peek_g = rng.normal(size=(peek_ids.size, DIM)).astype(dtype)
            _assert_same_bytes(
                opt.peek_updated(peek_ids, peek_g),
                ref.peek_updated(peek_ids, peek_g), f"peek before step {t}",
            )
            for ids in (peek_ids, None):
                _assert_same_bytes(
                    opt.materialized_params(ids), ref.materialized_params(ids),
                    f"materialized_params before step {t}",
                )
                for got, want in zip(
                    opt.materialized_moments(ids), ref.materialized_moments(ids)
                ):
                    _assert_same_bytes(got, want, f"moments before step {t}")
            _assert_same_state(opt, ref, f"after the reads before step {t}")

            ids = _subset(rng, n, max(n // 4, 2))
            g = rng.normal(size=(ids.size, DIM)).astype(dtype)
            if poison and ids.size:
                g[0, 0], g[-1, -1] = np.nan, np.inf
            assert opt.step(ids, g) == ref.step(ids, g)
            _assert_same_state(opt, ref, f"after step {t}")

    def test_nan_and_inf_gradients_stay_in_their_rows(self):
        n = 2 * block_rows(DIM, 8) + 5
        rng = np.random.default_rng(3)
        opt = DeferredAdam(rng.normal(size=(n, DIM)), AdamConfig(lr=1e-2))
        ids = np.array([n - 2, 4, block_rows(DIM, 8)])  # unsorted, three blocks
        g = rng.normal(size=(3, DIM))
        g[0], g[1, 1] = np.nan, np.inf
        with np.errstate(invalid="ignore"):
            opt.step(ids, g)
            opt.flush()
        bad = ~np.isfinite(opt.params).all(axis=1)
        assert sorted(np.flatnonzero(bad)) == [4, n - 2]
        assert np.isfinite(opt.m[block_rows(DIM, 8)]).all()

    def test_mixed_dtype_peek_is_what_the_step_writes(self):
        """A float32 model peeked with float64 gradients returns float32
        rows, byte-equal to what the step with those gradients writes:
        both cast the gradients to the model's dtype, and the float64
        bias correction is rounded away once, on store or on return."""
        rng = np.random.default_rng(4)
        p0 = rng.normal(size=(40, DIM)).astype(np.float32)
        opt, ref = DeferredAdam(p0.copy()), OracleDeferredAdam(p0.copy())
        ids = np.arange(0, 40, 3)
        g = rng.normal(size=(ids.size, DIM))
        for o in (opt, ref):
            o.step(ids, g)  # a commit casts the gradients to the model's dtype
        _assert_same_state(opt, ref, "after a float64-gradient step")
        g = rng.normal(size=(ids.size, DIM))
        peeked = opt.peek_updated(ids, g)
        _assert_same_bytes(peeked, ref.peek_updated(ids, g), "mixed peek")
        opt.step(ids, g)
        _assert_same_bytes(opt.params[ids], peeked, "the step's rows")

    def test_out_of_range_ids_raise(self):
        """Block gathers clip instead of checking, so ids are checked once
        on entry — negative ones included: nothing here wraps."""
        opt = DeferredAdam(np.zeros((5, DIM)))
        one = np.zeros((1, DIM))
        for bad in (5, -1):
            with pytest.raises(IndexError):
                opt.step(np.array([bad]), one)
            with pytest.raises(IndexError):
                opt.peek_updated(np.array([bad]), one)
            with pytest.raises(IndexError):
                opt.materialized_params(np.array([bad]))
            with pytest.raises(IndexError):
                DenseAdam(np.zeros((5, DIM))).peek_updated(np.array([bad]), one)
            with pytest.raises(IndexError):
                DenseAdam(np.zeros((5, DIM))).step_sparse(np.array([bad]), one)
        assert not opt.params.any() and opt.step_count == 0

    def test_spill_and_page_in_between_steps(self, tmp_path):
        """A DiskStore drops the optimizer's arrays on spill and installs
        new ones on page-in; the kernel is built per call, so the next
        step runs on the new arrays (raw pages round-trip bit-exactly)."""
        rng = np.random.default_rng(6)
        n = 2 * block_rows(layout.PARAM_DIM, 8) + 11
        p0 = rng.normal(size=(n, layout.PARAM_DIM))
        config = AdamConfig(lr=1e-2)
        store = DiskStore(
            p0, layout.ALL_BLOCK, config, MemoryTracker(), TransferLedger(),
            spill_path=str(tmp_path / "parity"),
            max_defer=2,
        )
        ref = OracleDeferredAdam(p0.copy(), config, max_defer=2)
        for t in range(6):
            ids = np.sort(rng.choice(n, size=n // 5, replace=False))
            g = rng.normal(size=(ids.size, layout.PARAM_DIM))
            store.return_grads(ids, g)
            before = store.optimizer.params
            store.spill()
            assert store.optimizer.params is None
            _assert_same_bytes(
                store.stage(ids), ref.peek_updated(ids, g), f"staged rows {t}"
            )
            store.unstage(ids)
            assert store.optimizer.params is not before
            store.commit()
            ref.step(ids, g)
            _assert_same_state(store.optimizer, ref, f"after commit {t}")
        store.spill()
        store.flush()
        ref.flush()
        _assert_same_state(store.optimizer, ref, "after the final flush")


# -- dense Adam -----------------------------------------------------------------


class TestDenseParity:
    @settings(max_examples=40, deadline=None)
    @given(column_view=st.booleans(), **SHAPES)
    def test_sparse_and_full_steps_and_peeks(
        self, rows, dtype, per_column_lr, weight_decay, seed, column_view
    ):
        rng = np.random.default_rng(seed)
        n = _num_rows(rows, dtype)
        config = _config(rng, dtype, per_column_lr, weight_decay)
        base = rng.normal(size=(n, DIM + 4)).astype(dtype)

        def params():
            # selective offloading hands DenseAdam a column block of the
            # packed matrix: a non-contiguous view, updated through it
            block = base.copy()
            return block[:, 2:2 + DIM] if column_view else block[:, :DIM].copy()

        opt, ref = DenseAdam(params(), config), OracleDenseAdam(params(), config)
        assert opt.params.flags.c_contiguous != column_view or n <= 1
        m0 = rng.normal(size=(n, DIM)).astype(dtype)
        m0[rng.random(n) < 0.2] = -0.0  # "+ 0.0" must still clear the sign
        for o in (opt, ref):
            o.m[...] = m0
        poison_step = int(rng.integers(0, 8))
        for t in range(8):
            with np.errstate(invalid="ignore"):  # poisoned rows stay poisoned
                peek_ids = _subset(rng, n, 9)
                peek_g = rng.normal(size=(peek_ids.size, DIM)).astype(dtype)
                _assert_same_bytes(
                    opt.peek_updated(peek_ids, peek_g),
                    ref.peek_updated(peek_ids, peek_g), f"peek before step {t}",
                )
                _assert_same_state(opt, ref, f"after the peek before step {t}")
                if t % 3 == 2:
                    g = rng.normal(size=(n, DIM)).astype(dtype)
                    opt.step(g)
                    ref.step(g)
                else:
                    ids = _subset(rng, n, max(n // 4, 2))
                    g = rng.normal(size=(ids.size, DIM)).astype(dtype)
                    if t == poison_step and ids.size:
                        g[0, 0], g[-1, -1] = np.nan, np.inf
                    opt.step_sparse(ids, g)
                    ref.step_sparse(ids, g)
                _assert_same_state(opt, ref, f"after step {t}")

    def test_wider_gradients_keep_promoted_arithmetic(self):
        """float64 gradients on a float32 model: the step is computed in
        float64 as ``adam_update`` computes it and rounded once on store
        (the state keeps its dtype — the optimizer updates in place)."""
        rng = np.random.default_rng(8)
        p0 = rng.normal(size=(50, DIM)).astype(np.float32)
        opt, ref = DenseAdam(p0.copy()), OracleDenseAdam(p0.copy())
        for t in range(4):
            g = rng.normal(size=(50, DIM))
            opt.step(g)
            ref.step(g)
            assert opt.m.dtype == np.float32
            _assert_same_state(opt, ref, f"after step {t}")

    def test_mixed_dtype_peek_is_what_the_sparse_step_writes(self):
        """The store steps dense Adam through ``step_sparse``, which
        scatters float64 gradients into float32 scratch: a peek with the
        same gradients returns float32 rows with the bytes it writes."""
        rng = np.random.default_rng(9)
        opt = DenseAdam(rng.normal(size=(50, DIM)).astype(np.float32))
        ids = np.arange(1, 50, 4)
        for t in range(3):
            g = rng.normal(size=(ids.size, DIM))
            peeked = opt.peek_updated(ids, g)
            opt.step_sparse(ids, g)
            _assert_same_bytes(opt.params[ids], peeked, f"step {t}'s rows")


# -- the allocation gate ----------------------------------------------------------

GATE_ROWS = 20_000


def _deferred_gate_optimizer():
    rng = np.random.default_rng(0)
    dim = layout.NON_GEOMETRIC_DIM
    opt = DeferredAdam(rng.normal(size=(GATE_ROWS, dim)), AdamConfig(lr=1e-3))
    ids = np.arange(0, GATE_ROWS, 40)
    opt.step(ids, rng.normal(size=(ids.size, dim)))
    return opt, ids, rng.normal(size=(ids.size, dim))


class TestAllocationGate:
    """Each whole-model optimizer pass peaks below one ``N * D * itemsize``
    of traced allocation (the out-of-place code measured 10.0x, 6.0x and
    7.0x)."""

    def test_saturation_step(self):
        opt, ids, g = _deferred_gate_optimizer()
        opt.counter[...] = opt.max_defer  # every row is restored this step
        peak = traced_peak_bytes(lambda: opt.step(ids, g))
        assert not opt.counter.any()
        assert peak < opt.params.nbytes, f"{peak / opt.params.nbytes:.2f}x"

    def test_flush(self):
        opt, _, _ = _deferred_gate_optimizer()
        opt.counter[...] = np.arange(GATE_ROWS) % (opt.max_defer + 1)
        peak = traced_peak_bytes(opt.flush)
        assert peak < opt.params.nbytes, f"{peak / opt.params.nbytes:.2f}x"

    def test_dense_sparse_step(self):
        rng = np.random.default_rng(1)
        dim = layout.GEOMETRIC_DIM
        opt = DenseAdam(rng.normal(size=(GATE_ROWS, dim)), AdamConfig(lr=1e-3))
        ids = np.arange(0, GATE_ROWS, 40)
        g = rng.normal(size=(ids.size, dim))
        opt.step_sparse(ids, g)
        peak = traced_peak_bytes(lambda: opt.step_sparse(ids, g))
        assert peak < opt.params.nbytes, f"{peak / opt.params.nbytes:.2f}x"
