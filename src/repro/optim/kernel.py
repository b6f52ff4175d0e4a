"""The blocked, in-place row kernel behind every optimizer path.

Equations 1-3 are elementwise: a row's new ``(w, m, v)`` depends on that
row alone. Written as whole-array numpy expressions they cost one fresh
``(n, D)`` temporary and one trip through memory per operator — about
twenty of each for a deferred update — and at the sizes the host
optimizer runs at (a saturation step or a flush touches every row) the
allocator and the memory bus, not the arithmetic, set the time. This
module evaluates the same expressions over a fixed-size block of rows at
a time: a block is gathered once into scratch that stays in L2, every
operator runs in place on it (``out=``), and a commit writes the block
straight back. Nothing of size ``(n, D)`` is ever allocated except a
result the caller asked for, and the scratch lives for one call only —
a :class:`~repro.core.stores.DiskStore` rebinds (and drops) the arrays
between steps, so the kernel may hold no reference to them.

**The operation order is frozen.** Floating-point addition and
multiplication do not associate, and Adam's ``eps = 1e-15`` turns a
last-bit difference in ``sqrt(v)`` into an ``O(lr)`` difference in ``w``
on coordinates with a vanishing second moment. Every expression below is
therefore the out-of-place formula it replaced, operator for operator
and in the same association — ``(lut * m) / (sqrt(v) + eps)``,
``((1 - b2) * g) * g``, ``(lr * m_hat) / denom`` — so trajectories are
bit-identical to the whole-array code (``tests/optim/
test_kernel_parity.py`` keeps that code as its oracle). Two things are
skipped, both exactly: without weight decay ``decay_lut`` is all ones and
``1.0 * w`` is ``w``; and a row without a gradient skips ``(1 - b1) * 0``
and its square — but **not** the ``+ 0.0`` that followed, because
``-0.0 + 0.0`` is ``+0.0`` and a moment that underflowed to ``-0.0``
would otherwise keep its sign.

The two optimizers write Equation 1's bias correction differently —
:func:`~repro.optim.base.adam_update` divides the moments (``m_hat``,
``v_hat``), Figure 10 folds it into the step size and divides the root —
and both roundings are frozen, so :class:`RowKernel` takes the three
divisors as operands instead of choosing one form. Mixed dtypes keep
numpy's promotion: each scratch array has the dtype the out-of-place
operator would have returned (a ``float32`` model still divides by the
``float64`` bias-correction scalar in ``float64``), and what a step
writes — or a peek returns — is rounded once to the parameters' dtype.
"""

from __future__ import annotations

import numpy as np

from .base import AdamConfig

#: Byte target of one block-sized scratch array. A block keeps about six
#: of them live (gathered ``w``/``m``/``v``, two work arrays, the decay
#: term), which together should sit in a core's L2 with room to spare;
#: below ~64 KiB the per-block interpreter overhead shows instead.
BLOCK_BYTES = 128 * 1024


def block_rows(dim: int, itemsize: int) -> int:
    """Rows per block for ``dim`` columns of ``itemsize`` bytes."""
    return max(1, BLOCK_BYTES // max(1, dim * itemsize))


class _Scratch:
    """Block-sized work arrays of one kernel call, one per (slot, dtype)
    actually used; ``scratch(slot, dtype, k)`` is its first ``k`` rows."""

    def __init__(self, rows: int, dim: int):
        self._shape = (rows, dim)
        self._arrays: dict[tuple[str, np.dtype], np.ndarray] = {}

    def __call__(self, slot: str, dtype: np.dtype, rows: int) -> np.ndarray:
        key = (slot, dtype)
        array = self._arrays.get(key)
        if array is None:
            array = self._arrays[key] = np.empty(self._shape, dtype)
        return array[:rows]


def _gather(src: np.ndarray, idx: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``src[idx]`` into ``out``. ``np.take`` would first copy a
    non-contiguous ``src`` whole, so a column view goes the indexed way."""
    if src.flags.c_contiguous:
        # ids were range-checked on entry; "raise" would buffer ``out``
        return np.take(src, idx, axis=0, out=out, mode="clip")
    out[...] = src[idx]
    return out


class RowKernel:
    """Equations 1-3 over the rows of one optimizer's ``(params, m, v)``.

    Args:
        params, m, v: the optimizer's ``(N, D)`` arrays, updated in place
            by :meth:`step` and :meth:`flush`.
        config: Adam hyperparameters.
        lr_vec: per-column learning rates, ``(D,)``.
        lr_eff: what multiplies the first moment — ``lr_vec`` itself, or
            with the bias correction folded in.
        m_div, v_div: bias-correction divisors of the moments
            (``adam_update``'s ``m_hat``/``v_hat``), or ``None``.
        root_div: divisor of ``sqrt(v)`` (Figure 10's form), or ``None``.
        counter: per-row defer counters; with ``luts`` it makes every
            update restore the rows first (Equation 3) and decay the
            moments by the per-delay factors instead of ``beta``.
        luts: ``DeferredAdam._luts`` of the step being computed.
    """

    def __init__(
        self,
        params: np.ndarray,
        m: np.ndarray,
        v: np.ndarray,
        config: AdamConfig,
        lr_vec: np.ndarray,
        lr_eff: np.ndarray,
        m_div: float | None = None,
        v_div: float | None = None,
        root_div: float | None = None,
        counter: np.ndarray | None = None,
        luts: tuple[np.ndarray, ...] | None = None,
    ):
        self.params, self.m, self.v = params, m, v
        self.config = config
        self.lr_eff = lr_eff
        self.m_div, self.v_div, self.root_div = m_div, v_div, root_div
        self.counter = counter
        self.lr_decay = (
            lr_vec * config.weight_decay if config.weight_decay > 0.0 else None
        )
        if luts is not None:
            self.param_lut, self.decay_lut, self.mom_lut, self.var_lut = luts
            # all ones without weight decay: 1.0 * w is w, skip the pass
            self.decays = bool((self.decay_lut != 1.0).any())
        self.rows_per_block = block_rows(params.shape[1], params.itemsize)

    # ------------------------------------------------------------------
    # block walk
    # ------------------------------------------------------------------
    def _blocks(self, rows: np.ndarray | None):
        """``(scratch, spans)`` for a walk over ``rows`` (``None``: all)."""
        total = self.params.shape[0]
        if rows is None:
            n = total
        else:
            n = rows.size
            if n and (rows.min() < 0 or rows.max() >= total):
                raise IndexError(f"row ids out of range for {total} rows")
        size = self.rows_per_block
        scratch = _Scratch(min(n, size), self.params.shape[1])
        return scratch, ((s, min(s + size, n)) for s in range(0, n, size))

    def _load(self, rows, s, e, scratch):
        """Block ``[s, e)`` of the walk: ``(idx, delays, w, m, v)`` —
        views of the arrays for a walk over all rows, gathered copies
        (and their ids) otherwise."""
        if rows is None:
            idx = None
            w, m, v = self.params[s:e], self.m[s:e], self.v[s:e]
            delays = None if self.counter is None else self.counter[s:e]
        else:
            idx, k = rows[s:e], e - s
            w = _gather(self.params, idx, scratch("w", self.params.dtype, k))
            m = _gather(self.m, idx, scratch("m", self.m.dtype, k))
            v = _gather(self.v, idx, scratch("v", self.v.dtype, k))
            delays = None if self.counter is None else self.counter[idx]
        return idx, delays, w, m, v

    # ------------------------------------------------------------------
    # Equation 3
    # ------------------------------------------------------------------
    def _restore(self, w, m, v, delays, out, scratch):
        """``decay_lut[d] * w - param_lut[d] * m / (sqrt(v) + eps)`` into
        ``out`` (which may be ``w``); ``m`` and ``v`` are only read."""
        k = w.shape[0]
        if delays.size and delays.max() >= self.param_lut.shape[0]:
            raise IndexError("defer counter beyond max_defer")
        drift = np.take(
            self.param_lut, delays, axis=0, mode="clip",
            out=scratch("a", self.param_lut.dtype, k),
        )
        np.multiply(drift, m, out=drift)
        root = np.sqrt(v, out=scratch("b", v.dtype, k))
        np.add(root, self.config.eps, out=root)
        np.divide(drift, root, out=drift)
        if self.decays:
            decayed = np.take(
                self.decay_lut, delays, axis=0, mode="clip",
                out=scratch("c", self.decay_lut.dtype, k),
            )
            w = np.multiply(decayed, w, out=decayed)
        return np.subtract(w, drift, out=out)

    def restore(self, rows: np.ndarray | None) -> np.ndarray:
        """Restored parameter rows as a new array; nothing is modified."""
        n = self.params.shape[0] if rows is None else rows.size
        out = np.empty((n, self.params.shape[1]), self.params.dtype)
        scratch, spans = self._blocks(rows)
        for s, e in spans:
            _, delays, w, m, v = self._load(rows, s, e, scratch)
            self._restore(w, m, v, delays, out[s:e], scratch)
        return out

    def flush(self) -> None:
        """Restore every row in place and bring its moments up to date
        (``beta ** d``: the table holds ``beta ** (d + 1)``)."""
        mom = self.mom_lut / self.config.beta1
        var = self.var_lut / self.config.beta2
        scratch, spans = self._blocks(None)
        for s, e in spans:
            _, delays, w, m, v = self._load(None, s, e, scratch)
            self._restore(w, m, v, delays, w, scratch)
            np.multiply(m, mom[delays][:, None], out=m)
            np.multiply(v, var[delays][:, None], out=v)

    # ------------------------------------------------------------------
    # Equations 1-2 (after Equation 3 for deferred rows)
    # ------------------------------------------------------------------
    def step(
        self,
        rows: np.ndarray | None,
        grads: np.ndarray | None,
        grad_rows: np.ndarray | None = None,
    ) -> None:
        """Commit one Adam step to ``rows`` (``None``: every row).

        ``grads`` are the gradient rows of the walk, or ``None`` for a
        zero gradient. With ``grad_rows`` (ascending, a walk over every
        row) ``grads`` holds those rows only and all others are zero;
        they are cast to the parameters' dtype, as scattering them into
        ``zeros_like(params)`` did.
        """
        self._update(rows, grads, grad_rows, commit=True)

    def peek(self, rows: np.ndarray, grads: np.ndarray) -> np.ndarray:
        """Parameter rows :meth:`step` would write, in the parameters'
        dtype (an operator that promoted is rounded once, as the write
        rounds it); nothing is modified."""
        return self._update(rows, grads, None, commit=False)

    def _update(self, rows, grads, grad_rows, commit):
        cfg = self.config
        beta1, beta2, eps = cfg.beta1, cfg.beta2, cfg.eps
        params = self.params
        total, dim = params.shape

        # result dtypes of the operators that can promote: (1 - b) * g,
        # the new moments, the denominator, the numerator, their
        # quotient, the updated parameters
        dt_w, dt_mom = params.dtype, self.m.dtype
        if grads is not None:
            dt_g = np.result_type(
                grads.dtype if grad_rows is None else dt_w, 1.0
            )
            dt_mom = np.result_type(dt_mom, dt_g)
        dt_den = dt_mom
        if self.root_div is not None:
            dt_den = np.result_type(dt_mom, self.root_div)
        dt_num = np.result_type(self.lr_eff.dtype, dt_mom)
        dt_quot = np.result_type(dt_num, dt_den)
        dt_w = np.result_type(dt_w, dt_quot)

        if grad_rows is not None:
            if grad_rows.size and (grad_rows[0] < 0 or grad_rows[-1] >= total):
                raise IndexError(f"row ids out of range for {total} rows")
            # block b's gradient rows are grads[cuts[b]:cuts[b + 1]]
            size = self.rows_per_block
            cuts = np.searchsorted(grad_rows, np.arange(0, total + size, size))
        out = None if commit else np.empty((rows.size, dim), params.dtype)
        scratch, spans = self._blocks(rows)

        for block, (s, e) in enumerate(spans):
            k = e - s
            idx, delays, w, m, v = self._load(rows, s, e, scratch)

            g = None
            if grad_rows is None:
                if grads is not None:
                    g = grads[s:e]
            elif cuts[block] < cuts[block + 1]:
                lo, hi = cuts[block], cuts[block + 1]
                g = scratch("g", params.dtype, k)
                g.fill(0.0)
                g[grad_rows[lo:hi] - s] = grads[lo:hi]

            if delays is None:
                decay_m, decay_v = beta1, beta2
            else:
                w = self._restore(w, m, v, delays, w, scratch)
                decay_m = self.mom_lut[delays][:, None]
                decay_v = self.var_lut[delays][:, None]

            # Equations 1-2: decay * m + (1 - b1) * g and
            # decay * v + ((1 - b2) * g) * g
            np.multiply(m, decay_m, out=m)
            np.multiply(v, decay_v, out=v)
            if g is None:
                m_new = np.add(m, 0.0, out=m)
                v_new = np.add(v, 0.0, out=v)
            else:
                fresh = np.multiply(1.0 - beta1, g, out=scratch("a", dt_g, k))
                m_new = np.add(
                    m, fresh,
                    out=m if dt_mom == m.dtype else scratch("m", dt_mom, k),
                )
                np.multiply(1.0 - beta2, g, out=fresh)
                np.multiply(fresh, g, out=fresh)
                v_new = np.add(
                    v, fresh,
                    out=v if dt_mom == v.dtype else scratch("v", dt_mom, k),
                )

            # the step: (lr_eff * m_hat) / (sqrt(v_hat) / root_div + eps)
            num = m_new
            if self.m_div is not None:
                num = np.divide(m_new, self.m_div, out=scratch("a", dt_mom, k))
            den = v_new
            if self.v_div is not None:
                den = np.divide(v_new, self.v_div, out=scratch("b", dt_mom, k))
            den = np.sqrt(den, out=scratch("b", dt_mom, k))
            if self.root_div is not None:
                den = np.divide(den, self.root_div, out=scratch("b", dt_den, k))
            np.add(den, eps, out=den)
            num = np.multiply(self.lr_eff, num, out=scratch("a", dt_num, k))
            quot = np.divide(num, den, out=scratch("a", dt_quot, k))

            if self.lr_decay is not None:
                shrink = np.multiply(
                    self.lr_decay, w, out=scratch("c", w.dtype, k)
                )
            if not commit and dt_w == out.dtype:
                w_new = out[s:e]
            elif commit and dt_w == w.dtype:
                w_new = w
            else:
                w_new = scratch("w", dt_w, k)
            np.subtract(w, quot, out=w_new)
            if self.lr_decay is not None:
                np.subtract(w_new, shrink, out=w_new)

            if not commit:
                if w_new.dtype != out.dtype:
                    out[s:e] = w_new  # rounded once, as the write rounds
                continue
            if idx is not None:
                params[idx] = w_new
                self.m[idx] = m_new
                self.v[idx] = v_new
                continue
            # views: already written, unless an operator promoted
            if w_new is not w:
                w[...] = w_new
            if m_new is not m:
                m[...] = m_new
                v[...] = v_new
        return out
