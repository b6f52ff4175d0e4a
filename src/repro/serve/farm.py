"""The serving render path: one batch of frames, culled, gathered once,
composited.

:func:`render_frames` is the one function every served frame goes
through — :class:`~repro.serve.service.RenderService` runs it inline
over each tick's unique frames, and :func:`render_frame` is its
one-frame case. It culls every frame (:func:`visible_ids`), gathers once
for the union of their visible rows — cut to what a
:class:`~repro.serve.store.PagedServingStore`'s page budget holds — and
composites each frame from its slice, so a served frame is bit-identical
to a direct :func:`repro.render.pipeline.render` of the same rows. A
large frame's forward spreads over the process's CPUs on the block
threads (:func:`repro.pool.map_blocks`); no serving path starts a
process.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import faults
from ..cameras.camera import Camera
from ..render import cull_candidates, frustum_cull, image_stage, render
from ..render.projection import ScreenRows
from ..render.rasterize import RasterConfig
from ..telemetry import trace as _trace
from ..telemetry.trace import span as _span
from .store import ServingStore

__all__ = [
    "FrameTask",
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
) -> tuple[np.ndarray, ScreenRows | None, int, int]:
    """``(ids, screen, rows, candidates)`` of one frame's cull: the sorted
    ids of the rows it composites (frustum cull ∩ LOD subset), the exact
    test's projection of those rows (``CullResult.screen``, handed on to
    the render; no backward follows, so no backward context), how many
    rows its level keeps, and how many of those reached the exact test.

    A reduced level (``lod > 0`` with a ``drop_level`` array) chooses
    among the rows it keeps, ``flatnonzero(drop_level > lod)``; ``lod ==
    0`` or a missing array keeps everything. Of those,
    :func:`~repro.render.culling.cull_candidates` names the rows the view
    could see — depth test plus a conservative bounding-radius reject, no
    projection — and the exact :func:`~repro.render.frustum_cull` runs on
    these candidates only, for its image stage
    (:func:`~repro.render.culling.image_stage`). The candidates are a
    superset of what the exact test keeps and a row's verdict does not
    depend on the rows it is asked about with, so the ids are those of a
    whole-model cull filtered by
    :meth:`~repro.serve.lod.LODSet.filter_ids`.
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
    exact = frustum_cull(
        means[cand], log_scales[cand], quats[cand], image_stage(task.camera),
        keep="screen",
    )
    rows = means.shape[0] if keep is None else keep.size
    return cand[exact.valid_ids], exact.screen, rows, cand.size


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
       exact projection runs on those only and keeps its screen geometry
       for the rows it keeps);
    2. gather **once** for the sorted union of their visible rows — a
       paged store then pages each shard at most once for the batch,
       resident pages first (:meth:`~repro.serve.store.PagedServingStore.\
gather`), instead of once per frame;
    3. composite each frame from its slice of that result,
       ``rows[searchsorted(union, ids)]``, at the task's SH degree, from
       the projection its cull handed on (the gather returns the
       geometric columns the cull read, so nothing is projected twice).
       The render is forward only, so it shades just the splats its
       pruned pair table composites; the tick's gather
       (:meth:`~repro.serve.store.ServingStore.gather_tick`) decodes the
       geometry and opacity of the whole union and the SH of those rows
       only, each exactly as :meth:`~repro.serve.store.ServingStore.\
gather` decodes it.

    The rows a frame composites are the rows a gather of its own ids
    returns, so batching never changes pixels. A batch whose union
    exceeds the store's :attr:`~repro.serve.store.ServingStore.\
max_gather_rows` — for a paged store the rows its page budget holds,
    derived from the host byte budget — is cut into consecutive groups
    that fit, each gathered once: no process assembles more of the model
    than the budget already admits. Service ticks and
    :func:`render_frame` both run exactly this function. Any failure
    raises; the service contains it by retrying frame by frame. Each
    composited frame visits the ``serve:frame`` fault point with its
    index in ``tasks``; traced, its ``serve/frame`` span carries the
    table counts (:func:`~repro.telemetry.trace.record_isects`), the
    rows it could composite (``visible``) and the rows whose SH it read
    (``shaded``).
    """
    with _span("serve/cull", "serve", frames=len(tasks)) as cull_span:
        culls = [_cull_frame(store, drop_level, task) for task in tasks]
        ids = [frame_ids for frame_ids, _, _, _ in culls]
        cull_span.set(
            rows=sum(rows for _, _, rows, _ in culls),
            candidates=sum(cand for _, _, _, cand in culls),
            visible=sum(frame_ids.size for frame_ids in ids),
        )
    images: list[np.ndarray] = []
    for members, union in _gather_groups(ids, store.max_gather_rows):
        with _span(
            "serve/gather", "serve", frames=len(members), rows=union.size
        ):
            rows = store.gather_tick(union)
        for i in members:
            task = tasks[i]
            faults.fault_point("serve:frame", index=i)
            with _span("serve/frame", "serve", lod=task.lod) as frame:
                shaded = rows.shaded
                res = render(
                    rows,
                    task.camera,
                    sh_degree=task.sh_degree,
                    background=task.background,
                    valid_ids=np.searchsorted(union, ids[i]),
                    config=task.config,
                    screen=culls[i][1],
                )
                if _trace.enabled():
                    _trace.record_isects(frame, res.raster)
                    frame.set(
                        visible=int(ids[i].size),
                        shaded=rows.shaded - shaded,
                    )
                images.append(res.image)
    return images


def render_frame(
    store: ServingStore,
    drop_level: np.ndarray | None,
    task: FrameTask,
) -> np.ndarray:
    """Render one frame: :func:`render_frames` of one task."""
    return render_frames(store, drop_level, [task])[0]
