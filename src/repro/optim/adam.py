"""Dense Adam: the reference optimizer ("Original" in Table 3).

Dense Adam updates *every* row every step, because momentum keeps moving
parameters even when their gradient is zero (paper Challenge 2). This is
exactly the memory-bound behaviour GS-Scale's deferred update eliminates.

Selective offloading keeps one such optimizer on the critical path — the
geometric block, all ``N`` rows every step — so the step runs through the
blocked, in-place row kernel of :mod:`repro.optim.kernel`: ``params``,
``m`` and ``v`` are updated through block-sized views, a sparse gradient
joins block by block through a block-sized scratch (a block without a
gradient row skips the gradient passes but keeps the ``+ 0.0`` that clears
the sign of a ``-0.0`` moment), and nothing of size ``(N, D)`` is
allocated. The operators and their association are those of
:func:`~repro.optim.base.adam_update`, which stays as the functional
oracle: results are bit-identical to it, and must stay so — Adam's
``eps = 1e-15`` turns a last-bit difference into an ``O(lr)`` one.
"""

from __future__ import annotations

import numpy as np

from .base import AdamConfig, StepStats, ascending, float_traffic_bytes
from .kernel import RowKernel


class DenseAdam:
    """Adam over a packed ``(N, D)`` parameter array, updating all rows.

    The parameter array is updated in place (it may be a view into a larger
    store, e.g. the geometric block pinned on the GPU by selective
    offloading).
    """

    def __init__(self, params: np.ndarray, config: AdamConfig | None = None):
        if params.ndim != 2:
            raise ValueError(f"params must be (N, D), got {params.shape}")
        self.params = params
        self.config = config or AdamConfig()
        self.m = np.zeros_like(params)
        self.v = np.zeros_like(params)
        self.step_count = 0
        self._lr_vec = self.config.lr_vector(params.shape[1], params.dtype)

    @property
    def num_rows(self) -> int:
        """Number of parameter rows (Gaussians)."""
        return self.params.shape[0]

    def _kernel(self, step: int) -> RowKernel:
        """The row kernel set up for Adam step ``step``, with the bias
        correction on the moments as :func:`adam_update` writes it."""
        b1, b2 = self.config.beta1, self.config.beta2
        return RowKernel(
            self.params, self.m, self.v, self.config, self._lr_vec,
            lr_eff=self._lr_vec,
            m_div=1.0 - b1**step,
            v_div=1.0 - b2**step,
        )

    def _stats(self) -> StepStats:
        n, d = self.params.shape
        return StepStats(
            rows_updated=n,
            rows_total=n,
            float_bytes=float_traffic_bytes(n, d, self.params.itemsize),
        )

    def step(self, grads: np.ndarray) -> StepStats:
        """Apply one Adam step with a full ``(N, D)`` gradient array.

        Gradients of a wider dtype than the state are folded in with
        numpy's promoted arithmetic and rounded once on store; ``m`` and
        ``v`` keep their dtype (and identity — every update is in place).
        """
        if grads.shape != self.params.shape:
            raise ValueError(
                f"grads shape {grads.shape} != params shape {self.params.shape}"
            )
        self._kernel(self.step_count + 1).step(None, grads)
        self.step_count += 1
        return self._stats()

    def step_sparse(self, valid_ids: np.ndarray, grads_rows: np.ndarray) -> StepStats:
        """One step given only the nonzero gradient rows.

        Every row is updated — the semantics dense Adam requires: ``m``
        and ``v`` decay in place, and the few gradient rows join block by
        block through a block-sized scratch, never a dense ``(N, D)``
        gradient. The traffic accounting still charges all rows, which is
        the point of comparison with
        :class:`repro.optim.deferred.DeferredAdam`.
        """
        valid_ids = np.asarray(valid_ids, dtype=np.int64)
        if grads_rows.shape != (valid_ids.size, self.params.shape[1]):
            raise ValueError(
                f"grads_rows shape {grads_rows.shape} inconsistent with "
                f"{valid_ids.size} valid ids"
            )
        valid_ids, grads_rows = ascending(valid_ids, grads_rows)
        self._kernel(self.step_count + 1).step(
            None, grads_rows, grad_rows=valid_ids
        )
        self.step_count += 1
        return self._stats()

    # store-facing sparse-step surface (repro.optim.base.SparseOptimizer)
    step_rows = step_sparse

    def peek_updated(
        self, ids: np.ndarray, grads_rows: np.ndarray
    ) -> np.ndarray:
        """Parameter values rows ``ids`` will have after the *next* step.

        Used by parameter forwarding (Section 4.2.2): the next iteration's
        visible rows are pre-updated and shipped to the GPU before the lazy
        CPU update commits. No state is modified. The gradients are cast
        to the parameters' dtype and the rows returned in it, as
        :meth:`step_sparse` scatters and writes them.
        """
        ids = np.asarray(ids, dtype=np.int64)
        if grads_rows is not None:
            grads_rows = grads_rows.astype(self.params.dtype, copy=False)
        return self._kernel(self.step_count + 1).peek(ids, grads_rows)

    def materialized_params(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Current parameter values (dense Adam stores them directly)."""
        if ids is None:
            return self.params
        return self.params[ids]
