"""GS-Scale core: parameter stores, offload systems, splitting, trainer."""

from .config import SYSTEM_NAMES, GSScaleConfig
from .integrity import (
    CorruptCheckpointError,
    CorruptPageError,
    IntegrityError,
)
from .splitting import (
    ImageSplit,
    SpatialPatch,
    buffered_spatial_partition,
    find_balanced_split,
    find_balanced_split_by,
    spatial_partition,
    spatial_partition_bounds,
)
from .pager import PreloadedShard, ResidentSet
from .stores import (
    DeviceStore,
    DiskStore,
    HostStore,
    HybridStore,
    ParameterStore,
    ShardedStore,
)
from .systems import (
    BaselineOffloadSystem,
    GPUOnlySystem,
    GSScaleSystem,
    OutOfCoreGSScaleSystem,
    ShardedGSScaleSystem,
    ShardReport,
    StepReport,
    TrainingSystem,
    TransferLedger,
    create_system,
    locality_view_order,
)
from .trainer import EvalResult, Trainer, TrainingHistory

__all__ = [
    "BaselineOffloadSystem",
    "CorruptCheckpointError",
    "CorruptPageError",
    "DeviceStore",
    "IntegrityError",
    "DiskStore",
    "EvalResult",
    "GPUOnlySystem",
    "GSScaleConfig",
    "GSScaleSystem",
    "HostStore",
    "HybridStore",
    "ImageSplit",
    "OutOfCoreGSScaleSystem",
    "ParameterStore",
    "PreloadedShard",
    "ResidentSet",
    "SYSTEM_NAMES",
    "ShardReport",
    "ShardedGSScaleSystem",
    "ShardedStore",
    "SpatialPatch",
    "StepReport",
    "Trainer",
    "TrainingHistory",
    "TrainingSystem",
    "TransferLedger",
    "buffered_spatial_partition",
    "create_system",
    "find_balanced_split",
    "find_balanced_split_by",
    "locality_view_order",
    "spatial_partition",
    "spatial_partition_bounds",
]
