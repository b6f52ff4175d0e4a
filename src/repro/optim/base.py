"""Optimizer configuration and the functional Adam kernel.

All optimizers in this package operate on a packed ``(N, D)`` parameter
array (rows are Gaussians, columns are the 59-parameter layout). Learning
rates may be scalar or per-column — 3DGS uses different rates per attribute
(position/scale/rotation/opacity/SH), which maps to a ``(D,)`` vector here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from ..gaussians import layout


@dataclass
class AdamConfig:
    """Hyperparameters of (decoupled-weight-decay) Adam.

    Attributes:
        lr: learning rate — scalar or per-column ``(D,)`` array.
        beta1: first-moment decay (paper Equation 1).
        beta2: second-moment decay.
        eps: denominator stabilizer. 3DGS/gsplat use 1e-15; the deferred
            update's only approximation is factoring this out (Section 4.3.1).
        weight_decay: decoupled (AdamW-style) decay; 0 gives plain Adam.
    """

    lr: float | np.ndarray = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-15
    weight_decay: float = 0.0

    def lr_vector(self, dim: int, dtype=np.float64) -> np.ndarray:
        """Learning rate broadcast to a ``(dim,)`` vector."""
        lr = np.asarray(self.lr, dtype=dtype)
        if lr.ndim == 0:
            return np.full(dim, float(lr), dtype=dtype)
        if lr.shape != (dim,):
            raise ValueError(f"lr must be scalar or ({dim},), got {lr.shape}")
        return lr


#: 3DGS default learning rates per attribute (position is additionally
#: scaled by the scene extent). Fixed for a training run.
DEFAULT_LRS = {
    "mean": 1.6e-4,
    "scale": 5e-3,
    "quat": 1e-3,
    "opacity": 5e-2,
    "sh": 2.5e-3,
}

#: 3DGS divides the learning rate of the non-DC SH bands by 20.
SH_REST_DIVISOR = 20.0


def packed_lr_vector(
    scene_extent: float = 1.0,
    dtype=np.float64,
) -> np.ndarray:
    """Per-column learning-rate vector for the packed 59-param layout.

    Args:
        scene_extent: world-space scene radius; the position lr scales with
            it (3DGS convention).
    """
    lr = np.empty(layout.PARAM_DIM, dtype=dtype)
    lr[layout.MEAN_SLICE] = DEFAULT_LRS["mean"] * scene_extent
    lr[layout.SCALE_SLICE] = DEFAULT_LRS["scale"]
    lr[layout.QUAT_SLICE] = DEFAULT_LRS["quat"]
    lr[layout.OPACITY_SLICE] = DEFAULT_LRS["opacity"]
    sh_lr = np.full(layout.SH_DIM, DEFAULT_LRS["sh"], dtype=dtype)
    sh_lr[3:] /= SH_REST_DIVISOR  # bands 1..3 learn slower than DC
    lr[layout.SH_SLICE] = sh_lr
    return lr


@dataclass
class StepStats:
    """Work accounting for one optimizer step (feeds the cost model).

    Attributes:
        rows_updated: Gaussians whose parameters/moments were written.
        rows_total: Gaussians in the parameter store.
        float_bytes: bytes of float traffic (4 reads + 3 writes per updated
            element, matching the paper's 7D words-per-Gaussian accounting).
        counter_bytes: bytes of defer-counter traffic (1 read + 1 write per
            Gaussian for deferred optimizers, 0 otherwise).
    """

    rows_updated: int
    rows_total: int
    float_bytes: int
    counter_bytes: int = 0

    @property
    def total_bytes(self) -> int:
        """All memory traffic of the step."""
        return self.float_bytes + self.counter_bytes


@runtime_checkable
class SparseOptimizer(Protocol):
    """The store-facing optimizer surface.

    A :class:`repro.core.stores.ParameterStore` drives its optimizer
    exclusively through this protocol, so dense Adam (which scatters sparse
    gradients and updates every row) and deferred Adam (which restores and
    updates only the touched rows) are interchangeable behind a store.
    """

    params: np.ndarray
    m: np.ndarray
    v: np.ndarray
    step_count: int

    def step_rows(self, valid_ids: np.ndarray, grads_rows: np.ndarray) -> StepStats:
        """Commit one step given only the nonzero gradient rows."""
        ...

    def peek_updated(
        self, ids: np.ndarray, grads_rows: np.ndarray
    ) -> np.ndarray:
        """Values rows ``ids`` will hold after the next step, in the
        parameters' dtype (no mutation)."""
        ...

    def materialized_params(self, ids: np.ndarray | None = None) -> np.ndarray:
        """Mathematically current parameter values."""
        ...


#: Words of float traffic per updated element: read param/grad/m/v, write
#: param/m/v (paper Section 4.3.2: "7D 32-bit accesses per Gaussian").
FLOAT_ACCESSES_PER_ELEMENT = 7


def float_traffic_bytes(rows: int, dim: int, itemsize: int = 4) -> int:
    """Float bytes touched when updating ``rows`` Gaussians of width ``dim``."""
    return FLOAT_ACCESSES_PER_ELEMENT * rows * dim * itemsize


def ascending(
    ids: np.ndarray, rows: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``ids`` as ascending ``int64`` with ``rows`` reordered to match.

    Both come back as given when ``ids`` already ascend — what every
    training caller passes (``np.unique`` / cull output) — so the check is
    all they pay.
    """
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size > 1 and not (ids[1:] >= ids[:-1]).all():
        order = np.argsort(ids, kind="stable")
        ids, rows = ids[order], rows[order]
    return ids, rows


def member(
    sorted_ids: np.ndarray, ids: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(hit, pos)``: which of ``ids`` occur in the ascending
    ``sorted_ids``, and where (``sorted_ids[pos[hit]] == ids[hit]``)."""
    if sorted_ids.size == 0:
        return np.zeros(ids.size, dtype=bool), np.zeros(ids.size, dtype=np.int64)
    pos = np.minimum(np.searchsorted(sorted_ids, ids), sorted_ids.size - 1)
    return sorted_ids[pos] == ids, pos


def adam_update(
    params: np.ndarray,
    grads: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    step: int,
    config: AdamConfig,
    lr_vec: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One functional Adam step (Equation 1); returns new ``(params, m, v)``.

    Does not mutate its inputs. ``step`` is 1-based. This is the
    out-of-place statement of the update — the oracle
    :class:`~repro.optim.kernel.RowKernel` (which :class:`~repro.optim.adam.
    DenseAdam` runs, blocked and in place) reproduces bit for bit, operator
    for operator; change the association here and the two diverge.
    """
    if step < 1:
        raise ValueError("Adam step numbers are 1-based")
    b1, b2 = config.beta1, config.beta2
    if lr_vec is None:
        lr_vec = config.lr_vector(params.shape[-1], dtype=params.dtype)
    m_new = b1 * m + (1.0 - b1) * grads
    v_new = b2 * v + (1.0 - b2) * grads * grads
    m_hat = m_new / (1.0 - b1**step)
    v_hat = v_new / (1.0 - b2**step)
    update = lr_vec * m_hat / (np.sqrt(v_hat) + config.eps)
    params_new = params - update
    if config.weight_decay > 0.0:
        params_new = params_new - lr_vec * config.weight_decay * params
    return params_new, m_new, v_new
