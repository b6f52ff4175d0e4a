"""Render-serving subsystem: batched multi-client inference.

Turns a trained (possibly larger-than-host) model into a request-serving
endpoint: read-only serving stores with out-of-core paging
(:mod:`~repro.serve.store`), nested level-of-detail subsets
(:mod:`~repro.serve.lod`), a pose-keyed frame cache
(:mod:`~repro.serve.cache`), the batch render path every served frame
takes (:mod:`~repro.serve.farm`), and the :class:`~repro.serve.service.\
RenderService` that batches client requests across all of them. See
the serving section of ``docs/architecture.md``.
"""

from .cache import FrameCache, frame_key
from .farm import FrameTask, render_frame, render_frames
from .lod import (
    DEFAULT_LOD_LEVELS,
    LODLevel,
    LODSet,
    lod_quality_report,
    splat_importance,
)
from .service import (
    RenderRequest,
    RenderResponse,
    RenderService,
    ServeConfig,
    ServeStats,
    default_serve_raster_config,
    requests_from_cameras,
)
from .store import (
    InMemoryServingStore,
    PagedServingStore,
    PageQuarantinedError,
    ServingStore,
)

__all__ = [
    "DEFAULT_LOD_LEVELS",
    "FrameCache",
    "FrameTask",
    "InMemoryServingStore",
    "LODLevel",
    "LODSet",
    "PageQuarantinedError",
    "PagedServingStore",
    "RenderRequest",
    "RenderResponse",
    "RenderService",
    "ServeConfig",
    "ServeStats",
    "ServingStore",
    "default_serve_raster_config",
    "frame_key",
    "lod_quality_report",
    "render_frame",
    "render_frames",
    "requests_from_cameras",
    "splat_importance",
]
