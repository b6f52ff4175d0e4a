"""Optimizers: the dense Adam reference and the deferred variant."""

from .adam import DenseAdam
from .base import (
    AdamConfig,
    SparseOptimizer,
    StepStats,
    adam_update,
    float_traffic_bytes,
)
from .deferred import MAX_DEFER, DeferredAdam
from .lr_schedule import DEFAULT_LRS, packed_lr_vector

__all__ = [
    "AdamConfig",
    "DEFAULT_LRS",
    "DeferredAdam",
    "DenseAdam",
    "MAX_DEFER",
    "SparseOptimizer",
    "StepStats",
    "adam_update",
    "float_traffic_bytes",
    "packed_lr_vector",
]
