"""Deferred optimizer update — the paper's core algorithm (Section 4.3).

Momentum-based optimizers behave deterministically while a parameter's
gradient stays zero: Adam's moments decay by fixed factors (Equation 2) and
the weight moves by a precomputable multiple of ``m / sqrt(v)``
(Equation 3, after factoring out the tiny ``eps``). GS-Scale therefore
skips the update of any Gaussian outside the view frustum, counts how many
steps it has been deferred (a 4-bit counter, at most 15), and reconstructs
its state lazily — either when a gradient finally arrives or when the
counter saturates. Memory traffic per step drops from ``O(N)`` rows to
``O(active)`` rows plus one byte-sized counter access per Gaussian.

This module is a faithful vectorized port of the paper's Figure 10
pseudocode, generalized to per-column learning rates and optional decoupled
weight decay (the paper notes the scheme "can be extended to most
momentum-based optimizers, such as SGD with momentum and AdamW").

The arithmetic itself lives in :mod:`repro.optim.kernel`: the commit, the
forwarding peek, the read-only restore and the flush are four walks of one
blocked, in-place row kernel, which holds the only implementation of
Equation 3. A step is two walks — the rows that received a gradient, then
the rows whose counter saturated, which skip every gradient pass — so no
zero gradient matrix over ``valid ∪ saturated`` is ever built, and a
saturation step or a flush allocates a few block-sized scratch arrays
instead of twenty ``(N, D)`` temporaries. The kernel's operation order is
frozen to the out-of-place formulas of Figure 10 (Adam's ``eps = 1e-15``
amplifies a last-bit difference into an ``O(lr)`` one), down to the
``+ 0.0`` a zero gradient contributes: it turns a moment that underflowed
to ``-0.0`` into ``+0.0``, and dropping it would change stored bytes.

Because the kernel is per row, a step may also be split across row
subsets (numerics contract fact 9): :meth:`DeferredAdam.forward_rows`
commits the rows a forwarding store stages ahead of the step, and
``step(..., written=)`` walks the rest, so a forwarded row is computed
once instead of peeked at ``stage`` and stepped again at ``commit``.
"""

from __future__ import annotations

import numpy as np

from .base import AdamConfig, StepStats, ascending, float_traffic_bytes, member
from .kernel import RowKernel

#: Default maximum defer count: 4-bit counter (paper Section 4.3.2), giving
#: at most 1/15 ~ 6.7% unnecessary updates from saturation.
MAX_DEFER = 15


class DeferredAdam:
    """Adam with deferred updates for zero-gradient rows.

    Produces results identical to :class:`repro.optim.adam.DenseAdam` up to
    the epsilon-factoring approximation of Equation 3 (exactly identical
    when ``eps`` is negligible against ``sqrt(v)``; Table 3 shows the
    rendering-quality impact is nil).

    A forwarding store stages the next step's rows through
    :meth:`forward_rows`, which commits the staged rows that step writes
    ahead of it (early commit) and peeks the rest; the step itself then
    runs as ``step_rows(ids, grads, written=mask)`` and walks only the
    rows not yet written.

    Args:
        params: packed ``(N, D)`` parameter array, updated in place.
        config: Adam hyperparameters.
        max_defer: counter saturation value (15 for the paper's 4-bit field).
    """

    def __init__(
        self,
        params: np.ndarray,
        config: AdamConfig | None = None,
        max_defer: int = MAX_DEFER,
    ):
        if params.ndim != 2:
            raise ValueError(f"params must be (N, D), got {params.shape}")
        if not 1 <= max_defer <= 255:
            raise ValueError("max_defer must fit the uint8 counter")
        self.params = params
        self.config = config or AdamConfig()
        self.max_defer = max_defer
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.counter = np.zeros(params.shape[0], dtype=np.uint8)
        self.step_count = 0
        self._lr_vec = self.config.lr_vector(params.shape[1], params.dtype)
        self._decay = 1.0 - self._lr_vec * self.config.weight_decay

    # ------------------------------------------------------------------
    # lookup tables (Figure 10, lines 13-23)
    # ------------------------------------------------------------------
    def _luts(self, step: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Per-delay scaling factors for restoration at Adam step ``step``.

        Returns ``(param_lut, decay_lut, mom_lut, var_lut)`` with shapes
        ``(max_defer + 1, D)``, ``(max_defer + 1, D)``, ``(max_defer + 1,)``,
        ``(max_defer + 1,)``. Entries at delays ``>= step`` are never used
        (a row cannot have been deferred longer than the training has run).
        """
        b1, b2 = self.config.beta1, self.config.beta2
        dim = self.params.shape[1]
        dtype = self.params.dtype
        n_lut = self.max_defer + 1

        param_lut = np.zeros((n_lut, dim), dtype=dtype)
        decay_lut = np.ones((n_lut, dim), dtype=dtype)
        scale = b1 / np.sqrt(b2)
        for i in range(1, n_lut):
            # bias-correction exponent of the oldest zero-grad step; clamp
            # to 1 for (unused) entries beyond the training length
            e = max(step - i, 1)
            term = (self._lr_vec * b1) * np.sqrt(1.0 - b2**e) / (
                np.sqrt(b2) * (1.0 - b1**e)
            )
            param_lut[i] = scale * param_lut[i - 1] + self._decay ** (i - 1) * term
            decay_lut[i] = decay_lut[i - 1] * self._decay

        delays = np.arange(n_lut, dtype=dtype)
        mom_lut = b1 ** (delays + 1)
        var_lut = b2 ** (delays + 1)
        return param_lut, decay_lut, mom_lut, var_lut

    # ------------------------------------------------------------------
    # core update math (Figure 10, lines 25-42)
    # ------------------------------------------------------------------
    def _kernel(self, step: int) -> RowKernel:
        """The row kernel set up for Adam step ``step``: restore by the
        step's lookup tables (Equation 3), then the update with the bias
        correction folded into the step size and the root (Figure 10
        lines 41-42)."""
        b1, b2 = self.config.beta1, self.config.beta2
        return RowKernel(
            self.params, self.m, self.v, self.config, self._lr_vec,
            lr_eff=self._lr_vec / (1.0 - b1**step),
            root_div=np.sqrt(1.0 - b2**step),
            counter=self.counter,
            luts=self._luts(step),
        )

    # ------------------------------------------------------------------
    # public API
    # ------------------------------------------------------------------
    @property
    def num_rows(self) -> int:
        """Number of parameter rows (Gaussians)."""
        return self.params.shape[0]

    def update_ids_for(self, valid_ids: np.ndarray) -> np.ndarray:
        """Rows that the next step must touch (Figure 10, line 11).

        The union of rows with nonzero gradients and rows whose defer
        counter has saturated.
        """
        saturated = np.nonzero(self.counter >= self.max_defer)[0]
        return np.union1d(np.asarray(valid_ids, dtype=np.int64), saturated)

    def step(
        self,
        valid_ids: np.ndarray,
        grads_rows: np.ndarray,
        written: np.ndarray | None = None,
    ) -> StepStats:
        """Commit one deferred-Adam step.

        Args:
            valid_ids: rows with nonzero gradient (sorted or not).
            grads_rows: their gradients, ``(len(valid_ids), D)``.
            written: optional ``(N,)`` bool mask of the rows
                :meth:`forward_rows` already committed for this step. The
                walks skip them; counters, ``step_count`` and the returned
                stats are those of the whole step.
        """
        valid_ids = np.asarray(valid_ids, dtype=np.int64)
        if grads_rows.shape != (valid_ids.size, self.params.shape[1]):
            raise ValueError(
                f"grads_rows shape {grads_rows.shape} inconsistent with "
                f"{valid_ids.size} valid ids"
            )
        valid_ids, grads_rows = ascending(valid_ids, grads_rows)

        # Figure 10 line 11, as two walks: rows with a gradient, then the
        # saturated rest, which skips every gradient pass
        saturated = self.counter >= self.max_defer
        saturated[valid_ids] = False
        restore_ids = np.flatnonzero(saturated)
        walk_ids, walk_grads, walk_restore = valid_ids, grads_rows, restore_ids
        if written is not None:
            todo = ~written[valid_ids]
            walk_ids, walk_grads = valid_ids[todo], grads_rows[todo]
            walk_restore = restore_ids[~written[restore_ids]]
        kernel = self._kernel(self.step_count + 1)
        kernel.step(walk_ids, walk_grads.astype(self.params.dtype, copy=False))
        kernel.step(walk_restore, None)
        self.step_count += 1

        # Figure 10 lines 44-48: increment all, reset updated
        self.counter += 1
        self.counter[valid_ids] = 0
        self.counter[restore_ids] = 0

        rows_updated = valid_ids.size + restore_ids.size
        return StepStats(
            rows_updated=rows_updated,
            rows_total=self.num_rows,
            float_bytes=float_traffic_bytes(
                rows_updated, self.params.shape[1], self.params.itemsize
            ),
            counter_bytes=2 * self.num_rows,  # one read + one write each
        )

    # store-facing sparse-step surface (repro.optim.base.SparseOptimizer)
    step_rows = step

    def peek_updated(self, ids: np.ndarray, grads_rows: np.ndarray) -> np.ndarray:
        """Values rows ``ids`` will hold after the next :meth:`step`.

        This is parameter forwarding's pre-update (Section 4.3.3):
        restoration plus the pending-gradient update are computed for the
        forwarded rows only, and *nothing* — parameters, moments, counters —
        is modified. The gradients are cast to the parameters' dtype and
        the rows returned in it, as :meth:`step` casts and writes them.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if grads_rows is not None:
            grads_rows = grads_rows.astype(self.params.dtype, copy=False)
        return self._kernel(self.step_count + 1).peek(ids, grads_rows)

    def forward_rows(
        self,
        ids: np.ndarray,
        valid_ids: np.ndarray,
        grads_rows: np.ndarray,
        written: np.ndarray,
    ) -> np.ndarray:
        """Rows ``ids`` as the next :meth:`step` with ``(valid_ids,
        grads_rows)`` will leave them, each row computed once.

        Parameter forwarding (Section 4.3.3) where one CPU both stages
        and commits: a row of ``ids`` the pending step writes — it has a
        gradient, or its counter saturated — and ``written`` does not yet
        mark is committed now, in place, by the step's own kernel walk,
        and marked in ``written``; the pending ``step(..., written=)``
        then skips it. The other rows are peeked with a zero gradient,
        nothing modified. The kernel is per row and the step's lookup
        tables are fixed, so a row committed here holds the bytes the
        whole step would give it, and a row staged again reads them back.
        Counters and ``step_count`` tick at :meth:`step` only.

        Args:
            ids: the staged rows.
            valid_ids: the pending step's gradient rows, ascending.
            grads_rows: their gradients.
            written: the ``(N,)`` bool mask of rows already committed for
                the pending step, updated in place.

        Returns:
            ``(len(ids), D)`` values in the parameters' dtype.
        """
        ids = np.asarray(ids, dtype=np.int64)
        kernel = self._kernel(self.step_count + 1)
        graded, _ = member(valid_ids, ids)
        due = ~written[ids] & (graded | (self.counter[ids] >= self.max_defer))
        if due.any():
            rows = np.unique(ids[due])
            graded, pos = member(valid_ids, rows)
            kernel.step(
                rows[graded],
                grads_rows[pos[graded]].astype(self.params.dtype, copy=False),
            )
            kernel.step(rows[~graded], None)
            written[rows] = True
        out = np.empty((ids.size, self.params.shape[1]), self.params.dtype)
        done = written[ids]
        out[done] = self.params[ids[done]]
        rest = ~done
        if rest.any():
            out[rest] = kernel.peek(ids[rest], None)
        return out

    def materialized_params(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Mathematically current parameter values (read-only restoration).

        Deferred rows are stored at their last-commit value; this applies
        the zero-gradient drift they have accumulated since, without
        mutating state. Used whenever an outside consumer (rendering a test
        view, densification) needs true values.
        """
        if ids is not None:
            ids = np.asarray(ids, dtype=np.int64)
        return self._kernel(self.step_count + 1).restore(ids)

    def materialized_moments(
        self, ids: np.ndarray | None = None
    ) -> tuple[np.ndarray, np.ndarray]:
        """Mathematically current ``(m, v)`` (Equation 2, read-only).

        A row deferred ``d`` steps stores its moments from the last commit;
        the current values are those scaled by ``beta1**d`` and ``beta2**d``.
        """
        if ids is None:
            ids = np.arange(self.num_rows)
        else:
            ids = np.asarray(ids, dtype=np.int64)
        d = self.counter[ids].astype(self.params.dtype)
        m = self.m[ids] * (self.config.beta1**d)[:, None]
        v = self.v[ids] * (self.config.beta2**d)[:, None]
        return m, v

    def flush(self) -> StepStats:
        """Commit the deferred drift of every row and reset all counters.

        Called at the end of training (and before structural edits like
        densification) so that the stored arrays equal the mathematically
        current values.
        """
        self._kernel(self.step_count + 1).flush()
        self.counter[...] = 0
        return StepStats(
            rows_updated=self.num_rows,
            rows_total=self.num_rows,
            float_bytes=float_traffic_bytes(
                self.num_rows, self.params.shape[1], self.params.itemsize
            ),
            counter_bytes=2 * self.num_rows,
        )
