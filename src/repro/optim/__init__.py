"""Optimizers: the dense Adam reference and the deferred variant."""

from .adam import DenseAdam
from .base import (
    DEFAULT_LRS,
    AdamConfig,
    SparseOptimizer,
    StepStats,
    adam_update,
    float_traffic_bytes,
    packed_lr_vector,
)
from .deferred import MAX_DEFER, DeferredAdam

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
