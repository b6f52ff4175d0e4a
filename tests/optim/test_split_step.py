"""An optimizer step split across row subsets is the whole step.

Numerics contract fact 9 (``docs/architecture.md``): a deferred-Adam step
is per row — every row's new ``(w, m, v)`` depends on that row and the
step's lookup tables only — so it may be split across row subsets in any
order, bit-identically, as long as the counters and ``step_count`` tick
once. A forwarding host store rests on this: ``stage`` commits the rows
it forwards (``DeferredAdam.forward_rows``) and the lazy commit walks the
rest (``step_rows(..., written=)``). These tests run every early subset
``E`` of the rows a step writes (its gradient rows ``P`` and the
saturated counters) against one ``step_rows(P, G)`` and compare
``tobytes()``.
"""

import itertools

import numpy as np
import pytest

from repro.optim.adam import DenseAdam
from repro.optim.base import AdamConfig
from repro.optim.deferred import DeferredAdam

N, D = 14, 5
PENDING = np.array([1, 4, 6, 9])  # the step's gradient rows
SATURATED = np.array([4, 11, 12])  # row 4 is both
WRITES = np.union1d(PENDING, SATURATED)
NEGATIVE_ZERO_ROWS = (6, 12, 2)  # written with, written without, peeked


def _optimizer(dtype, weight_decay):
    """A deferred optimizer a few steps in: counters spread over
    ``0..max_defer`` (saturated on :data:`SATURATED`), and moments of
    ``-0.0`` on some rows, which the ``+ 0.0`` of a zero gradient turns
    into ``+0.0``."""
    rng = np.random.default_rng(3)
    params = rng.normal(size=(N, D)).astype(dtype)
    lr = np.linspace(1e-3, 5e-2, D)
    opt = DeferredAdam(params, AdamConfig(lr=lr, weight_decay=weight_decay))
    for _ in range(4):
        ids = np.sort(rng.choice(N, size=6, replace=False))
        opt.step_rows(ids, rng.normal(size=(ids.size, D)).astype(dtype))
    opt.counter[...] = rng.integers(0, opt.max_defer, size=N)
    opt.counter[SATURATED] = opt.max_defer
    opt.step_count = 20
    for row in NEGATIVE_ZERO_ROWS:
        opt.m[row, 1] = -0.0
        opt.v[row, 2] = -0.0
    return opt


def _state(opt):
    return [
        np.ascontiguousarray(a).tobytes()
        for a in (opt.params, opt.m, opt.v, opt.counter)
    ] + [opt.step_count]


def _subsets(rows):
    for k in range(rows.size + 1):
        for combo in itertools.combinations(rows, k):
            yield np.array(combo, dtype=np.int64)


CASES = pytest.mark.parametrize(
    "dtype, weight_decay",
    [
        (np.float64, 0.0),
        (np.float64, 0.01),
        (np.float32, 0.0),
        (np.float32, 0.01),
    ],
)


@CASES
def test_every_early_subset_gives_the_whole_step(dtype, weight_decay):
    grads = np.random.default_rng(8).normal(size=(PENDING.size, D)).astype(dtype)
    whole = _optimizer(dtype, weight_decay)
    stats = whole.step_rows(PENDING, grads)
    want = _state(whole)
    # the saturated row's -0.0 moment came out +0.0
    assert whole.m[12, 1] == 0.0 and not np.signbit(whole.m[12, 1])
    for early in _subsets(WRITES):
        opt = _optimizer(dtype, weight_decay)
        written = np.zeros(N, dtype=bool)
        values = opt.forward_rows(early, PENDING, grads, written)
        np.testing.assert_array_equal(written, np.isin(np.arange(N), early))
        assert values.dtype == opt.params.dtype
        assert values.tobytes() == whole.params[early].tobytes()
        got = opt.step_rows(PENDING, grads, written=written)
        assert got == stats
        assert _state(opt) == want, early


@CASES
def test_order_and_repeats_do_not_matter(dtype, weight_decay):
    """Two stages in either order, with rows staged twice and rows the
    step does not write, commit each written row once."""
    grads = np.random.default_rng(8).normal(size=(PENDING.size, D)).astype(dtype)
    whole = _optimizer(dtype, weight_decay)
    peeked = whole.peek_updated(np.arange(N), None)
    whole.step_rows(PENDING, grads)
    first = np.array([12, 2, 4, 6, 4])  # unsorted, with a repeat
    second = np.array([0, 4, 6, 9, 13])
    for stages in ((first, second), (second, first)):
        opt = _optimizer(dtype, weight_decay)
        written = np.zeros(N, dtype=bool)
        for ids in stages:
            values = opt.forward_rows(ids, PENDING, grads, written)
            writes = np.isin(ids, WRITES)
            assert values[writes].tobytes() == whole.params[ids[writes]].tobytes()
            # a row the step does not write is the zero-gradient peek
            assert (
                values[~writes].tobytes()
                == peeked[ids[~writes]].astype(dtype).tobytes()
            )
        opt.step_rows(PENDING, grads, written=written)
        assert _state(opt) == _state(whole)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("flavor", ["deferred", "dense"])
def test_zero_gradient_peek_is_the_none_peek(dtype, flavor):
    """``peek(ids, zeros)`` == ``peek(ids, None)``: the kernel's
    zero-gradient path skips ``(1 - b) * 0`` but keeps the ``+ 0.0``."""
    if flavor == "deferred":
        opt = _optimizer(dtype, 0.01)
    else:
        rng = np.random.default_rng(5)
        opt = DenseAdam(rng.normal(size=(N, D)).astype(dtype), AdamConfig(lr=1e-2))
        for _ in range(3):
            opt.step_rows(np.arange(N), rng.normal(size=(N, D)).astype(dtype))
        opt.m[3, 1] = opt.v[5, 0] = -0.0
    ids = np.array([13, 0, 3, 5, 12, 6, 2])
    zeros = np.zeros((ids.size, D), dtype=dtype)
    a = opt.peek_updated(ids, zeros)
    b = opt.peek_updated(ids, None)
    assert a.dtype == b.dtype and a.tobytes() == b.tobytes()
