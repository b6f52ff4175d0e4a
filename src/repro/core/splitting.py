"""Balance-aware splitting: image regions (Section 4.4) and Gaussian shards.

Two partitioning problems share the same balance philosophy:

* **Image splitting** — when the most demanding training view would stage
  more than ``mem_limit`` of all Gaussians, the image is partitioned into
  two vertical sub-regions processed back-to-back, halving peak staging
  memory. A naive midpoint split leaves the halves unbalanced (Gaussian
  density varies across the image), so the split column is found once per
  view by a 5-step binary search that equalizes per-side visible counts.
  :func:`find_balanced_split_by` accepts an arbitrary visible-count
  callback so the search also runs over a sharded scene whose geometry is
  spread across devices.

* **Spatial sharding** — :func:`spatial_partition` splits the Gaussian set
  itself into K spatially coherent, population-balanced shards (recursive
  median cuts along the widest axis, the Grendel/TideGS recipe), which the
  sharded multi-device system assigns one store each.
  :class:`ShardMap` is the one owner map over such a partition, for the
  sharded training stores and paged serving alike.
  :func:`buffered_spatial_partition` is the reconstruction-farm variant:
  the same cuts, but each shard additionally reports its half-open cell
  box and an overlap-buffered member set, so independently trained
  patches share boundary context and can be fused with exact dedup
  afterwards (:mod:`repro.recon`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..cameras.camera import Camera
from ..render import CullResult, frustum_cull

#: Binary-search iterations for the split point (the paper uses 5 and
#: reports an average balance of 0.551 : 0.449).
SPLIT_SEARCH_STEPS = 5


@dataclass(frozen=True)
class ImageSplit:
    """A vertical two-way partition of a training view.

    Attributes:
        split_x: first column of the right region.
        left: camera rendering columns ``[0, split_x)``.
        right: camera rendering columns ``[split_x, width)``.
        balance: fraction of visible Gaussians in the left region.
        culls: the regions' ``(left, right)`` culls, kept for their
            renders, when the search was given a ``cull_fn``.
    """

    split_x: int
    left: Camera
    right: Camera
    balance: float
    culls: tuple[CullResult, CullResult] | None = None

    @property
    def regions(self) -> tuple[tuple[Camera, int], tuple[Camera, int]]:
        """``(camera, x_offset)`` pairs for both regions."""
        return ((self.left, 0), (self.right, self.split_x))


def count_visible(
    means: np.ndarray, log_scales: np.ndarray, quats: np.ndarray, camera: Camera
) -> int:
    """Visible-Gaussian count for a (possibly cropped) camera."""
    return frustum_cull(means, log_scales, quats, camera).num_visible


def find_balanced_split_by(
    count_fn: Callable[[Camera], int],
    camera: Camera,
    steps: int = SPLIT_SEARCH_STEPS,
    cull_fn: Callable[..., CullResult] | None = None,
) -> ImageSplit:
    """Find a near-balanced vertical split using a visible-count callback.

    ``count_fn`` maps a (cropped) camera to its visible-Gaussian count.
    The single-device systems pass a closure over the resident geometric
    block; the sharded system passes one summing per-shard frustum culls,
    which yields an identical search trajectory (counts are additive over
    a partition of the scene).

    The search ends by counting the two regions it settled on. With
    ``cull_fn`` (``cull_fn(camera, keep=...) -> CullResult``) those last
    two counts are culls with ``keep="backward"``, handed on as
    :attr:`ImageSplit.culls`: the training step renders each region from
    its cull instead of culling the same camera again. A cull with
    ``keep=`` returns the verdict it returns without it, so the split and
    the balance are those of ``count_fn`` either way.
    """
    width = camera.width
    lo, hi = 0, width
    split = width // 2
    for _ in range(steps):
        n_left = count_fn(camera.crop(0, max(split, 1)))
        n_right = count_fn(camera.crop(min(split, width - 1), width))
        if n_left > n_right:
            hi = split
        else:
            lo = split
        split = (lo + hi) // 2
    split = int(np.clip(split, 1, width - 1))
    left_cam = camera.crop(0, split)
    right_cam = camera.crop(split, width)
    culls = None
    if cull_fn is None:
        n_left = count_fn(left_cam)
        n_right = count_fn(right_cam)
    else:
        culls = (
            cull_fn(left_cam, keep="backward"),
            cull_fn(right_cam, keep="backward"),
        )
        n_left, n_right = (cull.num_visible for cull in culls)
    total = max(n_left + n_right, 1)
    return ImageSplit(
        split_x=split, left=left_cam, right=right_cam, balance=n_left / total,
        culls=culls,
    )


def find_balanced_split(
    means: np.ndarray,
    log_scales: np.ndarray,
    quats: np.ndarray,
    camera: Camera,
    steps: int = SPLIT_SEARCH_STEPS,
) -> ImageSplit:
    """Find a near-balanced vertical split of ``camera``'s image.

    Starts at the midpoint and moves toward the less populated side by
    halving intervals, ``steps`` times (Section 4.4). Only geometric
    attributes are consulted, so this runs on the GPU-resident block under
    selective offloading.
    """
    return find_balanced_split_by(
        lambda cam: count_visible(means, log_scales, quats, cam),
        camera,
        steps=steps,
    )


def spatial_partition(means: np.ndarray, num_shards: int) -> list[np.ndarray]:
    """Partition Gaussians into ``num_shards`` spatially coherent shards.

    Repeatedly splits the most populated shard at the median of its widest
    world-space axis (recursive balanced k-d cuts — the spatial sharding
    used by Grendel's Gaussian distribution and TideGS's out-of-core
    blocks). Returns sorted, disjoint global index arrays covering every
    Gaussian; deterministic for a given input.
    """
    return [ids for ids, _, _ in spatial_partition_bounds(means, num_shards)]


class ShardMap:
    """Which shard owns each of N rows, and the row's index inside it.

    Built once from each shard's global row ids (``rows``, e.g. a
    :func:`spatial_partition`), which must tile ``0..N-1`` exactly once
    (:class:`ValueError` otherwise). :meth:`split` routes any id batch to
    the shards with one gather, one stable sort and one ``bincount``.
    """

    def __init__(self, shard_rows: list[np.ndarray]):
        self.rows = [np.asarray(r, dtype=np.int64) for r in shard_rows]
        self.num_rows = n = int(sum(r.size for r in self.rows))
        every = np.concatenate(self.rows)
        if (every < 0).any() or not np.array_equal(
            np.bincount(every, minlength=n), np.ones(n, dtype=np.int64)
        ):
            raise ValueError("shard rows must tile 0..N-1 exactly once")
        # row -> (its shard, its index inside that shard)
        self.owner = np.empty(n, dtype=np.min_scalar_type(len(self.rows) - 1))
        self.local = np.empty(n, dtype=np.int64)
        for k, rows in enumerate(self.rows):
            self.owner[rows] = k
            self.local[rows] = np.arange(rows.size)

    def split(self, ids: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
        """``(sel, local)`` of every shard, by shard index: the positions
        within ``ids`` of the shard's members (ascending) and their
        shard-local row indices."""
        if ids.size == 0:
            empty = np.empty(0, dtype=np.int64)
            return [(empty, empty)] * len(self.rows)
        owner = self.owner[ids]
        order = np.argsort(owner, kind="stable")
        local = self.local[ids[order]]
        ends = np.cumsum(np.bincount(owner, minlength=len(self.rows)))
        starts = np.concatenate(([0], ends[:-1]))
        return [
            (order[lo:hi], local[lo:hi]) for lo, hi in zip(starts, ends)
        ]


def spatial_partition_bounds(
    means: np.ndarray, num_shards: int
) -> list[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """:func:`spatial_partition` plus each shard's half-open cell box.

    Runs the same recursive median cuts but also tracks the box each cut
    carves out of world space: every shard is returned as
    ``(ids, lo, hi)`` where ``ids`` are its sorted global indices and
    ``[lo, hi)`` its axis-aligned cell (``±inf`` on axes no cut touched).
    The boxes of one partition tile space exactly — each world point lies
    in exactly one cell — which is what lets the patch pipeline's merge
    step assign ownership of a splat by position alone. A point exactly
    on a cut plane lands in the right-hand cell's box; a member whose
    coordinate ties the cut may therefore sit in its neighbor's box, so
    ownership by ``ids`` and ownership by box agree everywhere except on
    those measure-zero ties.
    """
    if num_shards < 1:
        raise ValueError("num_shards must be >= 1")
    n = means.shape[0]
    inf = np.full(means.shape[1], np.inf)
    parts: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = [
        (np.arange(n, dtype=np.int64), -inf, inf)
    ]
    while len(parts) < num_shards:
        widest = int(np.argmax([p[0].size for p in parts]))
        ids, lo, hi = parts[widest]
        if ids.size < 2:
            break  # more shards than Gaussians: leave the rest empty
        pts = means[ids]
        axis = int(np.argmax(np.ptp(pts, axis=0)))
        order = np.argsort(pts[:, axis], kind="stable")
        half = ids.size // 2
        cut = 0.5 * float(pts[order[half - 1], axis] + pts[order[half], axis])
        left_hi, right_lo = hi.copy(), lo.copy()
        left_hi[axis] = cut
        right_lo[axis] = cut
        parts[widest : widest + 1] = [
            (np.sort(ids[order[:half]]), lo, left_hi),
            (np.sort(ids[order[half:]]), right_lo, hi),
        ]
    while len(parts) < num_shards:
        # padded empty shards get an empty box (lo > hi everywhere) so a
        # containment test never claims a point for them
        parts.append((np.empty(0, dtype=np.int64), inf.copy(), -inf))
    return parts


@dataclass(frozen=True)
class SpatialPatch:
    """One cell of an overlap-buffered spatial partition.

    Attributes:
        core_ids: sorted global ids this patch *owns*; cores are disjoint
            across patches and cover every Gaussian.
        buffered_ids: sorted global ids the patch trains on — the core
            plus every Gaussian within ``buffer`` of the cell box, so the
            patch sees the boundary context its splats blend against.
        lo, hi: the half-open core cell ``[lo, hi)`` per axis (``±inf``
            on uncut axes; empty patches carry an empty box).
    """

    core_ids: np.ndarray
    buffered_ids: np.ndarray
    lo: np.ndarray
    hi: np.ndarray

    @property
    def num_core(self) -> int:
        """Gaussians owned by this patch."""
        return int(self.core_ids.size)

    @property
    def num_buffered(self) -> int:
        """Gaussians the patch trains on (core + buffer)."""
        return int(self.buffered_ids.size)

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Boolean mask of ``points`` inside the half-open core box."""
        return np.all((points >= self.lo) & (points < self.hi), axis=1)


def buffered_spatial_partition(
    means: np.ndarray, num_patches: int, buffer: float
) -> list[SpatialPatch]:
    """Spatially partition with an overlap buffer around every cell.

    Each patch owns its :func:`spatial_partition` core and additionally
    trains the Gaussians within ``buffer`` world units of its cell box
    (the 3D-Reefs-style overlap that keeps boundary splats supervised
    from both sides). Buffered sets overlap; cores stay disjoint and
    exhaustive, so a later merge that keeps only core members emits each
    Gaussian exactly once. Empty patches (``num_patches > n``) carry
    empty core and buffered sets and are tolerated downstream.
    """
    if buffer < 0:
        raise ValueError("buffer must be >= 0")
    patches = []
    for ids, lo, hi in spatial_partition_bounds(means, num_patches):
        if ids.size == 0:
            buffered = ids
        else:
            inside = np.all(
                (means >= lo - buffer) & (means < hi + buffer), axis=1
            )
            # union with the core: a member whose coordinate ties a cut
            # plane can sit just outside its own box
            buffered = np.union1d(ids, np.flatnonzero(inside).astype(np.int64))
        patches.append(SpatialPatch(ids, buffered, lo, hi))
    return patches
