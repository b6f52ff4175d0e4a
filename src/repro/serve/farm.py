"""Multi-worker render farm: whole frames fanned out over the shared pool.

The flat raster engines split *one* frame across the cores of their
process; a serving tick has the opposite shape — many independent
frames — so the farm ships each frame to its own worker process and keeps
the per-frame pipeline single-core: a pool worker runs the ``vectorized``
forward's tile-row blocks and the ``fragment`` engine's shards inline
(:func:`repro.pool.map_blocks`), where the service's own process would
spread a large frame over its CPUs. Farms draw from the
:func:`~repro.pool.get_raster_pool` registry of persistent pools, so a
process that serves and benchmarks never holds two worker fleets for
the same core count.

The model reaches the workers through shared memory:
:meth:`RenderFarm.publish` packs the packed parameter matrix and
the LOD drop-level array into one shared-memory segment, and each task
pickles only a camera plus a few scalars. Workers attach read-only, run
:func:`render_frame` — the one-frame case of :func:`render_frames`, the
*same* function the service runs inline over a whole tick (cull every
frame, gather once for the union of their visible rows, composite each
from its slice), so a farm frame is bit-identical to a single-process
frame — and ship the composited image back.

The farm takes an in-memory store only. A model over the host budget
(:class:`~repro.serve.store.PagedServingStore`) serves inline through the
same :func:`render_frames`, whose union gather is cut to what the page
budget holds — :class:`~repro.serve.service.RenderService` rejects the
combination, since a paged store's point is that no process holds the
whole model.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ..cameras.camera import Camera
from ..gaussians.model import GaussianModel
from ..render import cull_candidates, frustum_cull, render
from ..pool import attach_shm, get_raster_pool, pack_shm, shm_views
from ..render.rasterize import RasterConfig
from ..telemetry import metrics as _metrics
from ..telemetry import trace as _trace
from ..telemetry.trace import span as _span
from .store import InMemoryServingStore, ServingStore

__all__ = [
    "FrameTask",
    "RenderFarm",
    "render_frame",
    "render_frames",
    "visible_ids",
]


@dataclass(frozen=True)
class FrameTask:
    """One frame to render: pose + level + raster knobs."""

    camera: Camera
    lod: int
    sh_degree: int
    config: RasterConfig | None = None
    background: np.ndarray | None = None


def _cull_frame(
    store,
    drop_level: np.ndarray | None,
    task: FrameTask,
) -> tuple[np.ndarray, int, int]:
    """``(ids, rows, candidates)`` of one frame's cull: the sorted ids of
    the rows it composites (frustum cull ∩ LOD subset), how many rows its
    level keeps, and how many of those reached the exact test.

    A reduced level (``lod > 0`` with a ``drop_level`` array) chooses
    among the rows it keeps, ``flatnonzero(drop_level > lod)``; ``lod ==
    0`` or a missing array keeps everything. Of those,
    :func:`~repro.render.culling.cull_candidates` names the rows the view
    could see — depth test plus a conservative bounding-radius reject, no
    projection — and the exact :func:`~repro.render.frustum_cull` runs on
    these candidates only. The candidates are a superset of what the
    exact test keeps and a row's verdict does not depend on the rows it
    is asked about with, so the ids are those of a whole-model cull
    filtered by :meth:`~repro.serve.lod.LODSet.filter_ids`.
    ``candidates`` is added to the store's ``rows_projected`` counter.
    """
    means, log_scales, quats = store.geometry()
    keep = (
        None
        if drop_level is None or task.lod <= 0
        else np.flatnonzero(drop_level > task.lod)
    )
    cand = cull_candidates(means, log_scales, task.camera, rows=keep)
    store.rows_projected += cand.size
    # every candidate passed near/far on the whole arrays; decided again
    # on the gathered subset, BLAS may round a grazing depth to the other
    # side, so the exact test is asked for its image stage only
    image_stage = replace(task.camera, near=1e-30, far=np.inf)
    exact = frustum_cull(
        means[cand], log_scales[cand], quats[cand], image_stage
    )
    rows = means.shape[0] if keep is None else keep.size
    return cand[exact.valid_ids], rows, cand.size


def visible_ids(
    store,
    drop_level: np.ndarray | None,
    task: FrameTask,
) -> np.ndarray:
    """Sorted ids of the rows a frame composites: frustum cull ∩ LOD
    subset — the one cull behind every serving path (see
    :func:`_cull_frame`)."""
    return _cull_frame(store, drop_level, task)[0]


def _sorted_union(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Union of two sorted duplicate-free id arrays, sorted (a stable
    sort merges the two runs; ``np.union1d`` hashes and is ~20x slower
    at a frame's few thousand ids)."""
    merged = np.concatenate((a, b))
    merged.sort(kind="stable")
    first = np.ones(merged.size, dtype=bool)
    np.not_equal(merged[1:], merged[:-1], out=first[1:])
    return merged[first]


def _gather_groups(
    ids: list[np.ndarray], max_rows: int | None
) -> list[tuple[list[int], np.ndarray]]:
    """Cut frames, in order, into ``(frame indices, sorted union of their
    ids)`` runs whose union stays within ``max_rows`` (a frame that alone
    exceeds it is a run of its own; ``None`` = one run)."""
    groups: list[tuple[list[int], np.ndarray]] = []
    for i, frame_ids in enumerate(ids):
        if groups:
            members, union = groups[-1]
            merged = _sorted_union(union, frame_ids)
            if max_rows is None or merged.size <= max_rows:
                members.append(i)
                groups[-1] = (members, merged)
                continue
        groups.append(([i], frame_ids))
    return groups


def render_frames(
    store: ServingStore,
    drop_level: np.ndarray | None,
    tasks: list[FrameTask],
) -> list[np.ndarray]:
    """Render a batch of frames from a serving store (the single serving
    path), in three phases over the whole batch:

    1. cull every frame (:func:`visible_ids`: a conservative
       bounding-radius reject names each frame's candidate rows, the
       exact projection runs on those only);
    2. gather **once** for the sorted union of their visible rows — a
       paged store then pages each shard at most once for the batch,
       resident pages first (:meth:`~repro.serve.store.PagedServingStore.\
gather`), instead of once per frame;
    3. composite each frame from its slice of that result,
       ``rows[searchsorted(union, ids)]``, at the task's SH degree.

    The rows a frame composites are the rows a gather of its own ids
    returns, so batching never changes pixels. A batch whose union
    exceeds the store's :attr:`~repro.serve.store.ServingStore.\
max_gather_rows` — for a paged store the rows its page budget holds,
    derived from the host byte budget — is cut into consecutive groups
    that fit, each gathered once: no process assembles more of the model
    than the budget already admits. Inline service ticks, farm workers
    and :func:`render_frame` all run exactly this function. Any failure
    raises; the service contains it by retrying frame by frame.
    """
    with _span("serve/cull", "serve", frames=len(tasks)) as cull_span:
        culls = [_cull_frame(store, drop_level, task) for task in tasks]
        ids = [frame_ids for frame_ids, _, _ in culls]
        cull_span.set(
            rows=sum(rows for _, rows, _ in culls),
            candidates=sum(cand for _, _, cand in culls),
            visible=sum(frame_ids.size for frame_ids in ids),
        )
    images: list[np.ndarray] = []
    for members, union in _gather_groups(ids, store.max_gather_rows):
        with _span(
            "serve/gather", "serve", frames=len(members), rows=union.size
        ):
            rows = store.gather(union)
        for i in members:
            task = tasks[i]
            with _span("serve/frame", "serve", lod=task.lod) as frame:
                compact = GaussianModel(
                    rows
                    if len(members) == 1
                    else rows[np.searchsorted(union, ids[i])]
                )
                res = render(
                    compact,
                    task.camera,
                    sh_degree=task.sh_degree,
                    background=task.background,
                    valid_ids=np.arange(ids[i].size),
                    config=task.config,
                )
                if _trace.enabled():
                    _metrics.record_isects(frame, res.raster)
                images.append(res.image)
    return images


def render_frame(
    store: ServingStore,
    drop_level: np.ndarray | None,
    task: FrameTask,
) -> np.ndarray:
    """Render one frame: :func:`render_frames` of one task."""
    return render_frames(store, drop_level, [task])[0]


def _frame_task(args):
    """Pool task: attach the published model, render one frame, detach."""
    shm_name, metas, task = args
    shm = attach_shm(shm_name)
    views = store = None
    try:
        views = shm_views(shm, metas)
        store = InMemoryServingStore(views["params"], copy=False)
        image = render_frame(store, views.get("drop_level"), task)
    finally:
        del views, store  # drop buffer views so close() cannot see exports
        shm.close()
    return image


class RenderFarm:
    """Fan independent frames out over the shared persistent pool.

    Args:
        workers: worker-process count; ``<= 1`` renders every batch
            inline (useful as a parity oracle for the pooled path). The
            pooled map runs under the shared pool's own deadline and
            retry budget.
    """

    def __init__(self, workers: int):
        if workers < 0:
            raise ValueError("workers must be >= 0")
        self.workers = workers
        self._shm = None
        self._metas = None
        self._store: ServingStore | None = None
        self._drop_level: np.ndarray | None = None

    @property
    def published(self) -> bool:
        """Whether a model is currently published to the workers."""
        return self._store is not None

    def publish(
        self, store: InMemoryServingStore, drop_level: np.ndarray | None
    ) -> None:
        """Make ``store`` the served model (replacing any previous one).

        Packs the parameter matrix + LOD ranks into a fresh shared-memory
        segment; the old segment is unlinked, so a hot swap leaks
        nothing. ``drop_level=None`` serves every task at full detail
        (no LOD filtering, whatever the task's ``lod``).
        """
        self.unpublish()
        self._store = store
        self._drop_level = (
            None if drop_level is None
            else np.asarray(drop_level, dtype=np.int16)
        )
        if self.workers >= 2:
            arrays = {"params": store.params}
            if self._drop_level is not None:
                arrays["drop_level"] = self._drop_level
            self._shm, self._metas = pack_shm(arrays)

    def unpublish(self) -> None:
        """Release the published model's shared segment (idempotent)."""
        if self._shm is not None:
            self._shm.close()
            self._shm.unlink()
            self._shm = None
            self._metas = None
        self._store = None
        self._drop_level = None

    def render_batch(self, tasks: list[FrameTask]) -> list[np.ndarray]:
        """Render every task, one worker per frame (inline below 2)."""
        if self._store is None:
            raise RuntimeError("no model published to the farm")
        if self.workers <= 1 or len(tasks) <= 1:
            return render_frames(self._store, self._drop_level, tasks)
        return get_raster_pool(self.workers).map(
            _frame_task,
            [(self._shm.name, self._metas, task) for task in tasks],
        )

    def close(self) -> None:
        """Release the shared segment (the pooled workers are shared
        process-level state, reaped by
        :func:`~repro.pool.shutdown_raster_pools`)."""
        self.unpublish()

    def __enter__(self) -> "RenderFarm":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __del__(self):
        try:
            self.close()
        except Exception:
            pass
