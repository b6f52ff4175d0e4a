"""Frustum culling (Section 2.4, step 1): depth, conservative bound, exact.

Only the *geometric* attributes (mean, scale, quaternion) are consumed —
this is the property that lets GS-Scale keep just those 10/59 parameters on
the GPU (selective offloading, Section 4.2.1).

:func:`frustum_cull` is the exact test, in two stages: stage 1 drops
Gaussians outside the near/far planes; stage 2 runs the full EWA
projection (:func:`~repro.render.projection.project_rows`: rotation
from the quaternion, 3D covariance, perspective Jacobian, 2D eigenvalue)
on the survivors and drops those whose 3-sigma splat misses the image
rectangle. The projection is most of its cost, and it is spent on every
row in depth range however far outside the image the row lies, so it
costs that arithmetic and one trip through memory: only the camera-space
centres are one product over all rows in range (a block of one row
would be a gemv, numerics contract facts 2 and 8); the rest runs in blocks
of :data:`BLOCK_ROWS` rows through
:func:`~repro.render.projection.project_rows`, the per-row function
the render's ``project`` runs over all rows at once, and reads the centre,
radius and validity of each row. Every op there is per row, so the
walk's verdict is bit-identical to one whole-array projection wherever
the blocks are cut (fact 6), and each product in it takes numpy's fastest
route to the same bits (fact 10). A view of the ``train_sparse``
benchmark model — 120k float64 rows held as column views of one packed
``(N, 10)`` matrix, 0.4% of them visible — takes 55-66 ms and an 11 MB
allocation peak on a 2-vCPU Xeon VM with one BLAS thread; the same day,
with the stacked products of before fact 10, it took 76-92 ms. One
whole-array projection peaked at 77 MB.

**The projection is handed on.** Asked to (``keep``), the cull keeps
what it computed for the rows it keeps — camera-space centre, pixel
centre, 2D covariance and radius, plus the Jacobian and 3D covariance
where a backward follows — as ``CullResult.screen``, and ``render()``
uses it in place of projecting those rows again. That is bit-identical
by construction: everything after the centres is per row (fact 6), and
the centres' product over two rows or more is a gemm whose row does not
depend on the others (fact 8; a one-row product is a gemv, and is not
handed on). Keeping costs in proportion to the rows kept: a block with
none kept copies nothing, and the others copy their kept rows by index.

:func:`cull_candidates` is the cheap stage that goes in front of it where
a view sees a small part of the model (the serving paths, the patch
farm's view assignment): the same depth test, then a reject of every row
whose projected centre lies further outside the image than an **upper
bound** on its splat radius. What it returns is a superset of what
:func:`frustum_cull` keeps, so running the exact test on those rows only
gives the same visible set for a fraction of the projections — asked of
:func:`image_stage`'s camera, as both callers do, so that depth is
decided once, on the whole arrays. It reads no quaternion, builds no
covariance and stores nothing per row.

Its third user is the sharded training cull
(:meth:`~repro.core.stores.ShardedStore.visible`), through
:func:`gated_cull`: there it is a **gate**, not a filter. A shard with no
candidate skips the exact test; a shard with any runs it over all of its
rows, never over the gathered candidates, because a product over another
row set may round a grazing depth differently (numerics contract fact 2)
and training must keep its bits. The exact stage sees the same rows as
without the gate or none, so the gate is bit-identical by construction.

The bound. With ``t = (tx, ty, tz)`` the camera-space centre, ``J`` the
perspective Jacobian at ``t``, ``W`` the camera rotation, ``M = J W``,
``Sigma = R S^2 R^T`` and the 2D covariance ``M Sigma M^T + EPS_2D I``
(notation of :mod:`~repro.render.projection`)::

    lambda_max(M Sigma M^T) <= |M|_2^2 lambda_max(Sigma)
                            <= |J|_F^2 |R|_2^2 exp(2 max log_scale)
    |J|_F^2 = (fx^2 (1 + a^2) + fy^2 (1 + b^2)) / tz^2,  a = tx/tz, b = ty/tz

``|W|_2 = 1``; ``R`` comes from a quaternion that is normalised — or, below
``1e-12``, divided by that floor, which leaves a norm ``s <= 1``, and
``R(q) = I + 2 w [v]_x + 2 [v]_x^2`` is normal with eigenvalues ``1`` and
``|.|^2 = 1 - 4 |v|^2 (1 - s^2)``, so ``|R|_2 <= 1`` either way. The
radius the exact test uses is ``ceil(3 sqrt(mid + sqrt(max(mid^2 - det,
floor))))``, and ``sqrt(max(x, floor)) <= sqrt(x) + sqrt(floor)``, so::

    radius <= 3 sqrt(|J|_F^2 exp(2 max log_scale) + EPS_2D + sqrt(floor)) + 1

in exact arithmetic. :data:`_REL_SLACK` and :data:`_ABS_SLACK` cover the
rounding of the model dtype.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from ..cameras.camera import Camera
from . import projection

#: Relative head-room on the radius bound for the rounding of the exact
#: test, which runs in the model dtype. Its eigenvalue discriminant
#: ``mid^2 - det`` cancels, so an absolute error of ``k u mid^2`` there
#: (``u`` the unit roundoff, ``k ~ 6``) can add ``sqrt(k u) mid`` to the
#: eigenvalue: a relative ``6e-4`` in float32 (``u = 6e-8``), ``3e-8`` in
#: float64, i.e. at most ``3e-4`` / ``1.3e-8`` of the radius. Everything
#: else — the rotation built from a quaternion normalised to ``1 +- 4u``,
#: ``exp``, the two 3x3 products — is a few hundred ``u`` (``< 2e-5`` in
#: float32). The same factor covers the centre, which the two tests
#: compute from the same camera-space point and which differs by ``4u``
#: of its distance from the principal point.
_REL_SLACK = 2e-3

#: Absolute head-room in pixels: 1 for the ``ceil`` of the exact radius,
#: the rest for the centre's rounding against the image size,
#: ``4u (|cx| + width)`` — under half a pixel in float32 for any image
#: below two million pixels across, nothing in float64.
_ABS_SLACK = 1.5

#: Rows :func:`frustum_cull` projects at a time. A block's temporaries
#: (a few dozen per-row arrays, the 3x3 covariances among them) stay in
#: a core's 2 MiB L2 where a 120k-row pass streams each of them through
#: memory. On a 120k-row float64 view (2-vCPU Xeon VM), 2048-8192 rows
#: took 49-52 ms, 16384 52-57, 32768 59-66 and one block 67-69.
BLOCK_ROWS = 8192


#: What :func:`frustum_cull` keeps of the rows it keeps, besides their
#: ids: nothing (a verdict), their screen geometry (a forward render
#: follows), or that plus the backward context (a training render).
KEEP = (None, "screen", "backward")


@dataclass(frozen=True)
class CullResult:
    """Outcome of frustum culling one view.

    Attributes:
        valid_ids: indices (into the full model) of visible Gaussians,
            sorted ascending.
        num_total: number of Gaussians tested.
        num_in_depth: survivors of the near/far stage.
        num_visible: survivors of both stages (``len(valid_ids)``).
        screen: the projection of the ``valid_ids`` rows the exact test
            computed, in their order, when the cull was asked to keep it
            (``keep``); ``None`` otherwise, when nothing is visible, and
            when the camera-space product ran over one row (a gemv,
            numerics contract fact 8).
    """

    valid_ids: np.ndarray
    num_total: int
    num_in_depth: int
    num_visible: int
    screen: projection.ScreenRows | None = field(
        default=None, kw_only=True, repr=False, compare=False
    )

    @property
    def active_ratio(self) -> float:
        """Fraction of all Gaussians used by this view (cf. Figure 4)."""
        if self.num_total == 0:
            return 0.0
        return self.num_visible / self.num_total


def frustum_cull(
    means: np.ndarray,
    log_scales: np.ndarray,
    quats: np.ndarray,
    camera: Camera,
    keep: str | None = None,
) -> CullResult:
    """Identify Gaussians visible from ``camera``.

    Args:
        means: world positions, ``(N, 3)``.
        log_scales: log extents, ``(N, 3)``.
        quats: raw quaternions, ``(N, 4)``.
        camera: viewing camera (its ``near``/``far`` bound stage 1, its
            image rectangle bounds stage 2).
        keep: one of :data:`KEEP`. With ``"screen"`` or ``"backward"`` the
            result's ``screen`` holds what the exact stage computed for
            the rows it keeps, so the render that follows need not
            project them again (``render(..., screen=result.screen)``);
            ``"backward"`` also keeps the Jacobians and 3D covariances a
            backward pass reads. Keeping costs in proportion to the rows
            kept, and the verdict does not depend on it.

    Returns:
        :class:`CullResult` with the visible indices.
    """
    if keep not in KEEP:
        raise ValueError(f"keep must be one of {KEEP}, got {keep!r}")
    num_total = means.shape[0]
    depth_ids = np.nonzero(_in_depth(means, camera))[0]
    num_in_depth = depth_ids.size
    if num_in_depth == 0:
        return CullResult(
            valid_ids=depth_ids,
            num_total=num_total,
            num_in_depth=0,
            num_visible=0,
        )

    # with every row in range the caller's arrays are read as they are;
    # otherwise the centres are gathered whole, for the one camera-space
    # product over the rows in range (a last block of one row would be a
    # gemv, fact 2), and scales and quaternions one block at a time. A
    # product over two rows or more is a gemm, whose row does not depend
    # on the others (fact 8): only then are the kept rows handed on
    gathered = num_in_depth < num_total
    cam_points = projection.camera_points(
        means[depth_ids] if gathered else means, camera
    )
    hand_on = keep is not None and num_in_depth >= 2
    kept: list[projection.ScreenRows] = []
    inside = np.empty(num_in_depth, dtype=bool)
    for lo in range(0, num_in_depth, BLOCK_ROWS):
        block = slice(lo, lo + BLOCK_ROWS)
        rows = depth_ids[block] if gathered else block
        screen = projection.project_rows(
            cam_points[block], log_scales[rows], quats[rows], camera
        )
        x, y, r = screen.x, screen.y, screen.radii
        shown = (
            screen.valid
            & (x + r > 0)
            & (x - r < camera.width)
            & (y + r > 0)
            & (y - r < camera.height)
        )
        inside[block] = shown
        if hand_on:
            sel = np.flatnonzero(shown)
            if sel.size:
                kept.append(screen.take(sel, context=keep == "backward"))
    valid_ids = depth_ids[inside]
    return CullResult(
        valid_ids=valid_ids,
        num_total=num_total,
        num_in_depth=num_in_depth,
        num_visible=int(valid_ids.size),
        screen=projection.ScreenRows.concat(kept) if kept else None,
    )


def cull_candidates(
    means: np.ndarray,
    log_scales: np.ndarray,
    camera: Camera,
    rows: np.ndarray | None = None,
) -> np.ndarray:
    """Rows that :func:`frustum_cull` could keep: a superset of its
    ``valid_ids``, sorted ascending, from a fraction of its work.

    The near/far test is the expression :func:`frustum_cull` evaluates, on
    the same arrays, so the same rows pass it. A survivor is then dropped
    only when its projected centre lies outside the image rectangle by
    more than the upper bound on its splat radius derived in the module
    docstring. Camera-space centres are computed as
    :func:`~repro.render.projection.camera_points` computes them (model
    dtype); the bound itself is evaluated in float64. A row the bound
    cannot decide — a NaN or infinite centre or scale — stays a
    candidate: the exact test has the last word on every row returned,
    and none it would keep is missing. (The exact test is assumed to stay
    finite in the model dtype: float32 radii below ~1e9 px.)

    Args:
        means: world positions, ``(N, 3)``.
        log_scales: log extents, ``(N, 3)``.
        camera: viewing camera.
        rows: sorted row ids to choose among (a level-of-detail subset);
            ``None`` considers every row. Depth is still tested on the
            whole arrays: BLAS rounds a matrix-vector product differently
            on a gathered subset, and a row grazing a plane must not
            change sides with the subset it is asked about in.

    Returns:
        Candidate row indices, ``(C,)`` with ``visible <= C <= N``. The
        exact test over the gathered candidates,
        ``ids[frustum_cull(means[ids], ...).valid_ids]``, keeps what it
        keeps over all rows (up to that rounding of a grazing depth; a
        caller that must match to the row hands it
        :func:`image_stage`'s camera — every candidate is in range
        already).
    """
    in_range = _in_depth(means, camera)
    ids = np.nonzero(in_range)[0] if rows is None else rows[in_range[rows]]
    return _within_reach(means, log_scales, camera, ids)


def image_stage(camera: Camera) -> Camera:
    """``camera`` without depth limits: the camera to run the exact test
    with over the rows :func:`cull_candidates` returned.

    Every candidate passed near/far on the whole arrays. Decided again on
    the gathered candidates, the depth product over another row set may
    round a grazing depth to the other side (numerics contract fact 2),
    so the exact test is asked for its image stage only. With ``ids =
    cull_candidates(means, log_scales, camera, rows)``, the rows
    ``ids[frustum_cull(means[ids], log_scales[ids], quats[ids],
    image_stage(camera)).valid_ids]`` are those a whole-array cull keeps
    (of ``rows``), each row's depth decided once.
    """
    return replace(camera, near=1e-30, far=np.inf)


def gated_cull(
    means: np.ndarray,
    log_scales: np.ndarray,
    quats: np.ndarray,
    camera: Camera,
    keep: str | None = None,
) -> tuple[CullResult, bool]:
    """:func:`frustum_cull`, skipped when :func:`cull_candidates` leaves
    no row for it.

    A gate, not a filter: with one candidate or more the exact test runs
    over all of the rows, as it would without the gate, never over the
    gathered candidates (a product over another row set may round a
    grazing depth differently, numerics contract fact 2). With none, the
    verdict is known without a projection: nothing visible, and
    ``num_in_depth`` read off the near/far mask the exact test draws.
    Either way the result is bit-identical to ``frustum_cull``'s, and
    ``keep`` is passed on to it (a shard with no candidate keeps nothing,
    as it has nothing visible).

    Returns:
        ``(result, exact)``: the cull, and whether the exact test ran.
    """
    depth_ids = np.nonzero(_in_depth(means, camera))[0]
    if _within_reach(means, log_scales, camera, depth_ids).size:
        return frustum_cull(means, log_scales, quats, camera, keep=keep), True
    return CullResult(
        valid_ids=np.empty(0, dtype=np.int64),
        num_total=means.shape[0],
        num_in_depth=depth_ids.size,
        num_visible=0,
    ), False


def _in_depth(means: np.ndarray, camera: Camera) -> np.ndarray:
    """The near/far mask of both stages: one expression, so a row grazing
    a plane lands on the same side in each."""
    dtype = means.dtype
    rot = camera.world_to_cam_rot.astype(dtype)
    trans = camera.world_to_cam_trans.astype(dtype)
    depths = means @ rot.T[:, 2] + trans[2]
    return (depths > camera.near) & (depths < camera.far)


def _within_reach(
    means: np.ndarray, log_scales: np.ndarray, camera: Camera, ids: np.ndarray
) -> np.ndarray:
    """The rows among ``ids`` (in depth range) the radius bound keeps."""
    if ids.size == 0:
        return ids
    dtype = means.dtype
    rot = camera.world_to_cam_rot.astype(dtype)
    trans = camera.world_to_cam_trans.astype(dtype)

    # column by column: a 1-D take from a strided view is several times
    # faster than fancy-indexing (or reducing over) its short rows
    in_depth = np.stack([means[:, k][ids] for k in range(3)], axis=-1)
    cam_points = (in_depth @ rot.T + trans).astype(np.float64)
    max_log_scale = np.maximum.reduce(
        [log_scales[:, k][ids] for k in range(3)]
    ).astype(np.float64)
    with np.errstate(all="ignore"):  # undecidable rows become NaN/inf
        inv_z = 1.0 / cam_points[:, 2]
        a = cam_points[:, 0] * inv_z
        b = cam_points[:, 1] * inv_z
        jac_sq = (
            camera.fx**2 * (1.0 + a * a) + camera.fy**2 * (1.0 + b * b)
        ) * (inv_z * inv_z)
        radius = 3.0 * np.sqrt(
            jac_sq * np.exp(2.0 * max_log_scale)
            + projection.EPS_2D
            + np.sqrt(projection._RADIUS_DISCRIMINANT_FLOOR)
        )
        reach = radius * (1.0 + _REL_SLACK) + _ABS_SLACK
        x = camera.fx * a + camera.cx
        y = camera.fy * b + camera.cy
        # written as "provably outside" so that a NaN compares False and
        # the row is kept
        outside = (
            (x + reach < 0)
            | (x - reach > camera.width)
            | (y + reach < 0)
            | (y - reach > camera.height)
        )
    return ids[~outside]
