"""Vectorized tile-batched rasterization engine (forward + backward).

The reference compositor (:mod:`repro.render.rasterize`) runs a Python loop
over splats. At the paper's scale — multi-million-Gaussian scenes with ~8%
active ratios — interpreter overhead, not arithmetic, dominates its
wall-clock, which makes the Figure-11 throughput story impossible to
demonstrate. This module brings the execution strategy of real GPU
rasterizers (3DGS/gsplat, and the intersection-sorted kernels analyzed in
BalanceGS / Faster-GS) to numpy:

1. **Vectorized binning.** Splat bounding boxes are expanded into a flat
   ``(intersection -> tile_id, splat_id)`` table with pure
   ``np.repeat``/``arange`` arithmetic (:func:`tile_intersections`) and
   sorted once by ``(tile_id, depth_rank)`` using a stable radix sort over
   16-bit key digits. There are no Python-list buckets, and binning
   statistics (``PairCounts.isects``) are counted on the table the engine
   composites from.

2. **Occlusion prune.** Before any pair exists, each tile's depth-sorted
   list is cut where everything behind is provably invisible
   (:func:`prune_occluded`): intersections whose bbox contains the whole
   tile put a pair on every pixel of it, the weakest of which sits at a
   corner pixel (a Gaussian's superlevel sets are convex), so a prefix
   sum of ``log2(1 - corner alpha)`` bounds the transmittance of the
   whole tile from above, and rows behind ``2**T_MIN_LOG2`` are dropped.
   The dropped weights of a pixel sum to at most ``2**-40`` — far inside
   the 1e-9 parity tolerance, so the ``reference`` loop remains the
   untruncated oracle — and where no tile saturates (overhead training
   views) the table comes back untouched, the same array objects. Always
   on, no knob: it is what takes a walkthrough frame from ~600k pairs to
   ~19k.
   :func:`visible_intersections` (sort, then prune) is the one call the
   pair table is built from.

3. **Batched forward.** Every (splat, pixel) pair inside a bbox-within-tile
   rectangle becomes one row of flat arrays. Per-splat constants are folded
   to per-row constants (the Gaussian exponent restricted to one pixel row
   is a quadratic in x alone), so evaluating alphas for *all* pairs costs a
   handful of ``np.repeat`` broadcasts and four arithmetic passes plus one
   ``exp2``. Pairs below ``alpha_min`` are compacted away and the survivors
   ordered per pixel (stable radix again, so depth order is preserved
   inside every pixel's segment). Per-pixel transmittance then falls out of
   a single segment-wise ``cumsum(log2(1 - alpha))`` scan — safe because
   ``alpha <= alpha_max < 1`` keeps the logarithm finite — and the image is
   composited with one weighted ``np.bincount`` per channel instead of K
   Python iterations. The forward runs in **blocks of whole tile rows**
   (:func:`_build_pairs`, about :data:`BLOCK_CELLS` cells each) on every
   CPU the process may use (:func:`repro.pool.map_blocks`; one block,
   inline, in a pool worker or when the cut would give a thread fewer
   than two blocks): tile row ``ty`` holds exactly the pixels ``[ty, ty +
   1) * 16 * W``, so the view's pixel-sorted table is its blocks' tables
   in order. A block builds its table and its ``log2(1 - alpha)``; one
   ``cumsum`` over the whole table runs serially; then a block scans its
   slice of that sum and composites its own pixels. Bit-identical to one
   pass over the whole table.

4. **Vectorized backward.** The gradient pass starts from the forward's
   own pair table and transmittance scan: :func:`rasterize_vectorized`
   attaches them to the :class:`~repro.render.rasterize.RasterResult` it
   returns (``result.saved``), the way a GPU rasterizer keeps its sorted
   tile lists and per-pixel blend state between the two passes, so the
   expand / ``exp2`` / compact / sort work is done once per view. The
   saved state carries the key it was built under (splat count, image
   size, compute dtype, ``tile_size``, ``alpha_min``, ``alpha_max``,
   ``full_image_splats``), is only read — a result can be backpropagated
   any number of times — and is freed with the result. A result without
   it, or whose key does not match the backward call (a ``reference``
   forward, a hand-built result, a config changed between
   the passes), takes the one fallback: rebuild the same table and scan
   from ``result.order`` / ``result.bboxes``, bit-identical to the saved
   ones. From there :func:`backward_pairs` forms the
   suffix-color accumulator ``sum_{j behind i} c_j a_j T_j + bg * T_final``
   with a segment-wise suffix scan of the scalar ``weight * (dL/dC . c)``
   (the image gradient is constant within a pixel's segment, so the
   three-channel suffix contracts to one scalar scan), which gives
   ``dL/dpower`` per pair, and reduces nine *raw sums* per splat with
   ``np.bincount``: the colour gradient, ``sum dL/dpower``, its three
   second moments and its two first moments in ``(dx, dy)``. It does
   per-pixel work per pixel (the image gradient and the pixel centre are
   formed per segment and repeated) and no per-splat work at all: the
   conic, the ``-0.5 / -1 / -0.5`` of its gradient and ``1 / opacity``
   are constant over a splat's pairs, so :func:`set_grads` applies them
   to the sums — the one place sums become the exact
   :class:`~repro.render.backward.RasterGrads` contract of the loop
   implementation. The kernel walks its table in blocks of whole segments
   of about :data:`BLOCK_PAIRS` pairs, so its pair-sized temporaries are
   cache-sized, and adds the blocks' sums in block order.

**One kernel, one scheduler.** Steps 3 and 4 are the only copy of the
pair arithmetic: :func:`pairs_for_isects` (the table),
:func:`_transmittance_scan`, :func:`composite_pairs` and
:func:`backward_pairs`. The ``vectorized`` engine below runs them over
the whole table — its forward a block of tile rows at a time on threads of
the calling process, the scan's running sum shared by all blocks, its
backward in one call.

Numerical notes: alphas use base-2 exponentials
(``exp2(log2(e) * power + log2(opacity))``) and the transmittance scan runs
in log2 space, because numpy vectorizes ``exp2``/``log2`` far better than
``exp``/``log``. Both agree with the sequential reference arithmetic to
~1 ulp per operation, so images, transmittances, and all five gradient
arrays match the ``reference`` loop to ``atol=1e-9`` in float64 (asserted by
``tests/render/test_engine_equivalence.py``). The scan requires
``alpha_max < 1``; the engine raises otherwise.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import import_module

import numpy as np

from .. import faults, pool
from .backward import RasterGrads, alloc_grads
from .rasterize import (
    ENGINE_TABLE,
    ENGINES,
    PairCounts,
    RasterConfig,
    RasterResult,
    config_bboxes,
)

#: Tile edge in pixels (3DGS/gsplat use 16x16 tiles).
TILE_SIZE = 16

#: Pairs per block of the backward kernel (:func:`backward_pairs`): its
#: ~15 pair-sized float64 temporaries then take ~2 MB instead of 25x the
#: table. Swept on ``train_raster``'s ~790k-pair tables, backward per
#: call: 2k / 4k / 8k / 16k / 32k / 64k / 128k pairs = 34.3 / 33.0 / 32.9 /
#: 31.0 / 32.3 / 34.1 / 35.6 ms, 44.7 ms unblocked (67.7 ms before PR 24).
BLOCK_PAIRS = 16384

#: Cells per block of the vectorized forward (:func:`_build_pairs`), cut
#: at tile-row boundaries. Swept on captured tables, forward per call on
#: 2 threads, two readings each: 32k / 64k / 128k / 256k cells =
#: 50.4, 47.6 / 49.0, 49.1 / 51.4, 44.7 / 55.7, 50.3 ms on ``train_raster``
#: (the first three cut alike: its tile rows are 150-250k cells) and
#: 36.2, 39.4 / 36.9, 39.0 / 36.5, 41.6 / 35.2, 44.1 ms on ``train_split``;
#: one block on one thread 77.3, 73.8 and 45.1, 51.6 ms.
BLOCK_CELLS = 65536

#: ``log2`` of the transmittance below which a tile counts as opaque: the
#: occlusion prune (:func:`prune_occluded`) drops every intersection that
#: provably blends against less than ``2**-40`` at every pixel of its tile.
T_MIN_LOG2 = -40.0

#: Relative slack taken off the prune's corner alphas, so rounding in the
#: pair kernel's own alpha (float32 fast path included) can never make a
#: counted pair weaker than the bound assumes, or compact it away.
_PRUNE_SLACK = 1e-3

_LOG2E = float(np.log2(np.e))


# ---------------------------------------------------------------------------
# engine dispatch
# ---------------------------------------------------------------------------

def _engine_fn(engine: str, which: int):
    try:
        module, name = ENGINE_TABLE[engine][which].split(".")
    except KeyError:
        raise ValueError(
            f"unknown raster engine {engine!r}; choose from {ENGINES}"
        ) from None
    # by name: the table lives in rasterize, which this module imports
    return getattr(import_module(f".{module}", __package__), name)


def get_forward(engine: str):
    """Forward rasterizer callable for an engine name (one of
    :data:`~repro.render.rasterize.ENGINES`).

    All share the signature of :func:`repro.render.rasterize.rasterize`.
    """
    return _engine_fn(engine, 0)


def get_backward(engine: str):
    """Backward rasterizer callable for an engine name; all share the
    signature of :func:`repro.render.backward.rasterize_backward`."""
    return _engine_fn(engine, 1)


# ---------------------------------------------------------------------------
# flat expansion / sorting primitives
# ---------------------------------------------------------------------------

def _argsort_by_key(keys: np.ndarray, key_max: int) -> np.ndarray:
    """Stable argsort of non-negative integer ``keys``.

    numpy's stable sort is a fast radix sort for 16-bit integers but falls
    back to a much slower mergesort for wider types, so keys are sorted in
    16-bit digit passes (LSD radix): one pass when ``key_max`` fits 16 bits,
    two passes below 32 bits.
    """
    if keys.size == 0:
        return np.empty(0, dtype=np.int64)
    if key_max < (1 << 16):
        return np.argsort(keys.astype(np.uint16), kind="stable")
    perm = np.argsort((keys & 0xFFFF).astype(np.uint16), kind="stable")
    high = keys >> 16
    if key_max < (1 << 32):
        return perm[np.argsort(high[perm].astype(np.uint16), kind="stable")]
    return perm[np.argsort(high[perm], kind="stable")]


def _expand_rects(x0, x1, y0, y1):
    """Row-major expansion of integer rects into their cells.

    Given half-open rects ``[x0, x1) x [y0, y1)``, returns ``(owner, px,
    py)`` where ``owner[c]`` is the rect index cell ``c`` came from. Pure
    ``np.repeat``/``arange`` arithmetic — no Python loops. Empty rects
    (non-positive extent on either axis) produce no cells.
    """
    heights = np.maximum(y1 - y0, 0)
    widths = np.maximum(x1 - x0, 0)
    heights = np.where(widths > 0, heights, 0)
    n_rows = int(heights.sum())
    owner_of_row = np.repeat(np.arange(heights.size), heights)
    row_start = np.cumsum(heights) - heights
    # local row offset folded into the repeated base: py = arange + (y0 - start)
    py_row = np.arange(n_rows, dtype=np.int64) + np.repeat(y0 - row_start, heights)
    w_row = np.repeat(widths, heights)
    n_cells = int(w_row.sum())
    owner = np.repeat(owner_of_row, w_row)
    cell_start = np.cumsum(w_row) - w_row
    x0_row = np.repeat(x0, heights)
    px = np.arange(n_cells, dtype=np.int64) + np.repeat(x0_row - cell_start, w_row)
    py = np.repeat(py_row, w_row)
    return owner, px, py


def tile_intersections(
    bboxes: np.ndarray,
    width: int,
    height: int,
    tile_size: int = TILE_SIZE,
    order: np.ndarray | None = None,
):
    """Flat splat-tile intersection table.

    Expands every splat bbox into the range of tiles it overlaps and sorts
    the resulting ``(tile_id, splat_id)`` pairs once by ``(tile_id,
    position-in-order)`` with a stable radix sort. With the default input
    order this yields, per tile, splat ids ascending; the rasterizer passes
    its depth order instead so each tile's span is depth-sorted.

    Args:
        bboxes: clipped integer bounds ``(M, 4)`` as ``(x0, x1, y0, y1)``.
        width, height: image size in pixels.
        tile_size: tile edge in pixels.
        order: optional permutation of splat indices; intersections are
            generated following it and tie-broken by it within a tile.

    Returns:
        ``(tile_ids, splat_ids, tiles_x, tiles_y)`` with ``tile_ids`` sorted
        ascending (row-major tiles) and ``splat_ids`` original indices.
    """
    tiles_x = -(-width // tile_size)
    tiles_y = -(-height // tile_size)
    m_count = bboxes.shape[0]
    if order is None:
        order = np.arange(m_count)
    bb = bboxes[order]
    x0, x1, y0, y1 = bb[:, 0], bb[:, 1], bb[:, 2], bb[:, 3]
    valid = (x0 < x1) & (y0 < y1)
    tx0 = np.where(valid, x0 // tile_size, 0)
    tx1 = np.where(valid, (x1 - 1) // tile_size + 1, 0)
    ty0 = np.where(valid, y0 // tile_size, 0)
    ty1 = np.where(valid, (y1 - 1) // tile_size + 1, 0)
    pos, tx, ty = _expand_rects(tx0, tx1, ty0, ty1)
    tile_ids = ty * tiles_x + tx
    perm = _argsort_by_key(tile_ids, tiles_x * tiles_y - 1)
    return tile_ids[perm], order[pos[perm]], tiles_x, tiles_y


# ---------------------------------------------------------------------------
# pair table: one row per surviving (splat, pixel) pair
# ---------------------------------------------------------------------------

@dataclass
class _PairTable:
    """Flat (splat, pixel) pairs sorted by ``(pixel, depth)``.

    ``alpha`` is already capped at ``alpha_max`` and compacted: pairs below
    ``alpha_min`` (or non-contributing when ``alpha_min == 0``) are gone.
    ``starts``/``counts`` delimit the per-pixel segments; ``nz`` lists the
    pixel id of each segment (``pixel == np.repeat(nz, counts)``).
    ``cells``/``isects``/``pruned_isects`` are bookkeeping for telemetry
    (:attr:`pair_counts`): rows expanded before compaction, rows of the
    intersection table they were expanded from — both set where the table
    is built, :func:`pairs_for_isects` — and rows the occlusion prune
    removed before that and the distinct splats it left, set by whoever
    called the prune.
    """

    pixel: np.ndarray  # (A,) int64 global pixel id, ascending
    sid: np.ndarray  # (A,) original splat index
    alpha: np.ndarray  # (A,) float
    starts: np.ndarray  # (S,) first pair index of each segment
    counts: np.ndarray  # (S,) pairs per segment
    nz: np.ndarray  # (S,) pixel id per segment
    cells: int = 0
    isects: int = 0
    pruned_isects: int = 0
    splats: int = 0

    @property
    def pair_counts(self) -> PairCounts:
        """What building this table took, for ``RasterResult.counts``."""
        return PairCounts(
            self.cells, int(self.alpha.size), self.isects, self.pruned_isects,
            self.splats,
        )


def _empty_pairs(dtype, **counts) -> _PairTable:
    return _PairTable(
        pixel=np.empty(0, dtype=np.int64),
        sid=np.empty(0, dtype=np.int64),
        alpha=np.empty(0, dtype=dtype),
        starts=np.empty(0, dtype=np.int64),
        counts=np.empty(0, dtype=np.int64),
        nz=np.empty(0, dtype=np.int64),
        **counts,
    )


def clip_isect_rects(bboxes, tile_ids, sid_isect, tiles_x, tile_size):
    """Per-intersection pixel rects: each splat bbox clipped to its tile.

    Returns ``(rx0, rx1, ry0, ry1)`` half-open bounds, one entry per row
    of the intersection table. The rect areas are the pre-compaction pair
    counts — the cell counts the vectorized forward cuts its blocks by.
    """
    bb = bboxes[sid_isect]
    tpx = (tile_ids % tiles_x) * tile_size
    tpy = (tile_ids // tiles_x) * tile_size
    rx0 = np.maximum(bb[:, 0], tpx)
    rx1 = np.minimum(bb[:, 1], tpx + tile_size)
    ry0 = np.maximum(bb[:, 2], tpy)
    ry1 = np.minimum(bb[:, 3], tpy + tile_size)
    return rx0, rx1, ry0, ry1


def prune_occluded(
    means2d, conics, opacities, bboxes, tile_ids, sid_isect, tiles_x,
    width, height, config, tile_size,
):
    """Drop the intersections hidden behind an opaque front of their tile.

    Takes the ``(tile, depth)``-sorted table of :func:`tile_intersections`
    and returns ``(tile_ids, sid_isect)`` without the rows that cannot
    change the result. An intersection whose clipped bbox contains the
    whole ``tile & image`` rectangle puts a pair on *every* pixel of the
    tile, and the weakest of those pairs sits at one of the four corner
    pixel centres: the superlevel sets of a Gaussian (positive-definite
    conic) are convex, so ``a_lo = min(alpha_max, opacity *
    exp(min corner power))`` bounds the alpha of all of them from below.
    It counts only when ``a_lo >= alpha_min`` (a weaker corner pair would
    be compacted away) — intersections that do not cover their tile, or
    whose conic is not positive definite, count 0. The exclusive prefix
    sum of ``log2(1 - a_lo)`` along a tile's depth order is therefore an
    upper bound on ``log2(t_before)`` of every pair of that intersection,
    and rows whose bound is below :data:`T_MIN_LOG2` are dropped (a
    suffix of each tile's list, the bound being monotone).

    Error bound: per pixel, the blend weights of all dropped pairs sum to
    at most ``2**-40`` — they partition what is left of a transmittance
    already below it — so with ``c`` the splat colours and ``bg`` the
    background, ``|d image| <= 2**-40 * max|c - bg|``,
    ``|d final_transmittance| <= 2**-40``, the gradient of a kept pair
    moves by at most ``2**-40 * |g . (c - bg)| / (1 - alpha_max)`` and a
    dropped splat's gradient from that tile is exactly 0: all far under
    the 1e-9 parity tolerance against the untruncated ``reference`` loop.

    The decision is a pure function of the arrays handed to the pair
    kernel, evaluated in float64 with :data:`_PRUNE_SLACK` taken off the
    corner alphas, so a backward that rebuilds the table prunes exactly
    as its forward did. When no tile's bound crosses the threshold the
    input arrays themselves are returned, and it costs next to nothing
    where it cannot fire: only splats whose bbox contains some tile's
    whole rectangle are looked at, and only at those tiles.
    """
    untouched = tile_ids, sid_isect
    tiles_y = -(-height // tile_size)
    # splat level: the tiles [ctx0, ctx1) x [cty0, cty1) whose part of the
    # image lies wholly inside the bbox (bboxes are clipped to the image,
    # so a box reaching the image edge covers the last, partial tile too)
    x0, x1, y0, y1 = bboxes[:, 0], bboxes[:, 1], bboxes[:, 2], bboxes[:, 3]
    ctx0 = -(-x0 // tile_size)
    ctx1 = np.where(x1 >= width, tiles_x, x1 // tile_size)
    cty0 = -(-y0 // tile_size)
    cty1 = np.where(y1 >= height, tiles_y, y1 // tile_size)
    covering = (ctx0 < ctx1) & (cty0 < cty1)
    if not covering.any():
        return untouched
    cand = np.flatnonzero(covering[sid_isect])
    sid_c = sid_isect[cand]
    ty, tx = np.divmod(tile_ids[cand], tiles_x)
    covers = np.flatnonzero(
        (tx >= ctx0[sid_c]) & (tx < ctx1[sid_c])
        & (ty >= cty0[sid_c]) & (ty < cty1[sid_c])
    )
    cand, sid_c, tx, ty = cand[covers], sid_c[covers], tx[covers], ty[covers]
    if cand.size == 0:
        return untouched

    # weakest corner pair of each covering intersection, in float64
    con = conics[sid_c].astype(np.float64, copy=False)
    c_a, c_b, c_c = con[:, 0], con[:, 1], con[:, 2]
    mu = means2d[sid_c].astype(np.float64, copy=False)
    dx0 = (tx * tile_size + 0.5) - mu[:, 0]
    dx1 = (np.minimum((tx + 1) * tile_size, width) - 0.5) - mu[:, 0]
    dy0 = (ty * tile_size + 0.5) - mu[:, 1]
    dy1 = (np.minimum((ty + 1) * tile_size, height) - 0.5) - mu[:, 1]
    power = np.minimum.reduce([
        -0.5 * (c_a * dx * dx + c_c * dy * dy) - c_b * dx * dy
        for dx in (dx0, dx1) for dy in (dy0, dy1)
    ])
    op = opacities[sid_c].astype(np.float64, copy=False)
    with np.errstate(invalid="ignore", over="ignore"):
        a_lo = np.minimum(op * np.exp(power), config.alpha_max)
        a_lo *= 1.0 - _PRUNE_SLACK
        counts = (
            (a_lo >= config.alpha_min) & (a_lo > 0.0)
            & (c_a > 0.0) & (c_a * c_c > c_b * c_b)
        )
        lg = np.where(counts, np.log2(1.0 - a_lo), 0.0)
    # tile level: can any tile's total reach the threshold at all?
    num_tiles = tiles_x * tiles_y
    tile_total = np.bincount(tile_ids[cand], weights=lg, minlength=num_tiles)
    if tile_total.min() >= T_MIN_LOG2:
        return untouched

    bound = np.zeros(tile_ids.size)
    bound[cand] = lg
    excl = np.cumsum(bound)
    excl -= bound
    starts = np.flatnonzero(np.diff(tile_ids, prepend=-1))
    excl -= np.repeat(excl[starts], np.diff(starts, append=tile_ids.size))
    keep = excl >= T_MIN_LOG2
    if keep.all():
        return untouched
    return tile_ids[keep], sid_isect[keep]


def visible_intersections(
    means2d, conics, opacities, bboxes, order, width, height, config,
    tile_size,
):
    """The table the pairs are built from:
    :func:`tile_intersections` in depth ``order``, then
    :func:`prune_occluded`.

    Returns ``(tile_ids, sid_isect, tiles_x, num_pruned)``.
    """
    tile_ids, sid_isect, tiles_x, _ = tile_intersections(
        bboxes, width, height, tile_size, order=order
    )
    num_isects = tile_ids.size
    tile_ids, sid_isect = prune_occluded(
        means2d, conics, opacities, bboxes, tile_ids, sid_isect, tiles_x,
        width, height, config, tile_size,
    )
    return tile_ids, sid_isect, tiles_x, num_isects - tile_ids.size


def _tile_row_blocks(bboxes, tile_ids, sid_isect, tiles_x, tile_size,
                     threads):
    """Cut a ``(tile, depth)``-sorted intersection table into blocks of
    whole tile rows of about :data:`BLOCK_CELLS` cells (:func:`_cut_runs`)
    for ``threads`` threads.

    Returns ``(isect_edges, first_cells)``: block ``i`` is rows
    ``isect_edges[i]:isect_edges[i + 1]`` of the table, and its first cell
    has index ``first_cells[i]`` in the expansion of the whole table.

    A cut that gives a thread fewer than two blocks is not made: the table
    is one block, built inline. Blocks are whole tile rows, so a short
    view cuts into a few blocks of very unequal size — ``train_split``'s
    48 px views into 2-3, e.g. 879k + 402k cells — and the threads then
    wait on the largest while the rest of the step pays for the fan-out:
    measured end to end, such views lost 6% of ``train_split``'s
    throughput (1 of 10 pairs won). ``train_raster``'s 96 px views cut
    into 5-6 blocks of 150-250k cells and gain 1.3x.
    """
    one_block = [0, tile_ids.size], [0]
    if threads <= 1 or tile_ids.size == 0:
        return one_block
    row_span = int(tile_ids[-1]) // tiles_x - int(tile_ids[0]) // tiles_x
    if row_span + 1 < 2 * threads:
        return one_block
    rx0, rx1, ry0, ry1 = clip_isect_rects(
        bboxes, tile_ids, sid_isect, tiles_x, tile_size
    )
    area = (rx1 - rx0) * (ry1 - ry0)
    first_cell = np.cumsum(area) - area
    rows = np.flatnonzero(np.diff(tile_ids // tiles_x, prepend=-1))
    edges, cell_edges = _cut_runs(
        first_cell[rows], int(area.sum()), BLOCK_CELLS
    )
    if len(edges) - 1 < 2 * threads:
        return one_block
    return [0, *rows[edges[1:-1]].tolist(), tile_ids.size], cell_edges[:-1]


def _build_pairs(
    means2d, conics, opacities, bboxes, order, width, height, config,
    tile_size, composite=None,
) -> _SavedPairs:
    """The pair table of a view and its transmittance scan, as the
    backward reads them: every splat-pixel pair expanded, evaluated,
    compacted and pixel-sorted, then scanned.

    The work runs in blocks of whole tile rows (:func:`_tile_row_blocks`)
    on the process's block threads (:func:`repro.pool.map_blocks`). The
    table is sorted ``(tile, depth)`` and tile row ``ty`` holds exactly
    the pixels ``[ty, ty + 1) * tile_size * width``, so the view's
    pixel-sorted table is its blocks' tables in order, each built at its
    own cell index by :func:`pairs_for_isects`. Per block: the table and
    its ``log2(1 - alpha)``. Serially: one running sum over the whole
    table, which the transmittance of every pair depends on (the numerics
    contract's fifth fact, ``docs/architecture.md``). Per block again: the
    block's part of the whole table, its scan on its slice of that sum,
    and — given ``composite = (colors, image, trans)`` — its pixels'
    colour sums and final transmittance, into the flat ``(H*W, 3)`` /
    ``(H*W,)`` arrays. Every value is the one a single pass over the whole
    table computes, bit for bit.

    ``colors`` may be a function of splat ids (a forward-only render,
    :func:`rasterize_vectorized`): it is called once, on the pruned
    table's sorted distinct splat ids, before any pair exists.
    """
    tile_ids, sid_isect, tiles_x, num_pruned = visible_intersections(
        means2d, conics, opacities, bboxes, order, width, height, config,
        tile_size,
    )
    in_table = np.bincount(sid_isect, minlength=means2d.shape[0])
    if composite is not None and callable(composite[0]):
        composite = (
            _shade(composite[0], np.flatnonzero(in_table), means2d),
            *composite[1:],
        )
    isect_edges, first_cells = _tile_row_blocks(
        bboxes, tile_ids, sid_isect, tiles_x, tile_size, pool.block_threads()
    )
    blocks = range(len(isect_edges) - 1)

    def build(b):
        faults.fault_point("block:forward", index=b)
        i0, i1 = isect_edges[b], isect_edges[b + 1]
        block = pairs_for_isects(
            means2d, conics, opacities, bboxes, tile_ids[i0:i1],
            sid_isect[i0:i1], tiles_x, width, height, config, tile_size,
            first_cell=first_cells[b],
        )
        return block, np.log2(1.0 - block.alpha)

    built = pool.map_blocks(build, blocks)
    tables = [block for block, _ in built]
    pair_edges = np.cumsum([0] + [block.alpha.size for block in tables])
    seg_edges = np.cumsum([0] + [block.nz.size for block in tables])
    if len(tables) == 1:
        pairs, cum = tables[0], np.cumsum(built[0][1])
    else:
        pairs = _alloc_pairs(tables, pair_edges[-1], seg_edges[-1])
        cum = np.concatenate([lg for _, lg in built])
        np.cumsum(cum, out=cum)
    pairs.pruned_isects = num_pruned
    pairs.splats = int(np.count_nonzero(in_table))

    def finish(b):
        faults.fault_point("block:forward", index=b)
        block, lg = built[b]
        p0, p1 = pair_edges[b], pair_edges[b + 1]
        if block is not pairs:
            s0, s1 = seg_edges[b], seg_edges[b + 1]
            pairs.pixel[p0:p1] = block.pixel
            pairs.sid[p0:p1] = block.sid
            pairs.alpha[p0:p1] = block.alpha
            np.add(block.starts, p0, out=pairs.starts[s0:s1])
            pairs.counts[s0:s1] = block.counts
            pairs.nz[s0:s1] = block.nz
        log_t, t_before = _transmittance_scan(block, lg=lg, cum=cum[p0:p1])
        if composite is None or block.alpha.size == 0:
            return
        colors, image, trans = composite
        trans[block.nz] = np.exp2(log_t)
        first, stop = block.nz[0], block.nz[-1] + 1
        rid = block.pixel - first if first else block.pixel
        image[first:stop] = composite_pairs(
            block, t_before, colors, rid, stop - first
        )

    pool.map_blocks(finish, blocks)
    key = _saved_key(
        means2d.shape[0], width, height, means2d.dtype, tile_size, config
    )
    return _SavedPairs(key, pairs, cum)


def _shade(colors, ids, means2d) -> np.ndarray:
    """``(M, 3)`` colours in the compute dtype with the rows ``ids``
    filled by ``colors(ids)`` and every other row 0 — no pair reads
    those: a pair's splat is a row of the table ``ids`` came from."""
    out = np.zeros((means2d.shape[0], 3), dtype=means2d.dtype)
    out[ids] = colors(ids)
    return out


def _alloc_pairs(blocks, num_pairs, num_segs) -> _PairTable:
    """An unfilled table for ``blocks`` together (``num_pairs`` pairs in
    ``num_segs`` segments), counting what building them took."""
    first = blocks[0]
    return _PairTable(
        pixel=np.empty(num_pairs, dtype=first.pixel.dtype),
        sid=np.empty(num_pairs, dtype=first.sid.dtype),
        alpha=np.empty(num_pairs, dtype=first.alpha.dtype),
        starts=np.empty(num_segs, dtype=first.starts.dtype),
        counts=np.empty(num_segs, dtype=first.counts.dtype),
        nz=np.empty(num_segs, dtype=first.nz.dtype),
        cells=sum(block.cells for block in blocks),
        isects=sum(block.isects for block in blocks),
    )


def pairs_for_isects(
    means2d, conics, opacities, bboxes, tile_ids, sid_isect, tiles_x,
    width, height, config, tile_size, first_cell=0,
) -> _PairTable:
    """Splat-pixel pairs of a (possibly sliced) intersection table.

    The Gaussian exponent over one pixel row is a quadratic in x alone, so
    everything except the final ``(m_a*dx - r_bdy)*dx + r_y`` evaluation is
    folded into per-row constants — the hot pair-level loop is a few
    ``np.repeat`` broadcasts, four arithmetic passes, and one ``exp2``.
    A pixel's segment is contained in one tile, so any contiguous run of
    whole tiles of the table yields complete, composable segments — which
    is what lets :func:`_build_pairs` build disjoint tile-row blocks on
    separate threads.

    ``first_cell`` is the index the slice's first cell has in the table it
    was cut from: the per-row ``dx`` constant folds the cell index in, so
    a slice expanded at its own index would round differently. The pixel
    sort is keyed relative to the first pixel of the slice's first tile
    row, so a slice of a few tile rows sorts and counts only those rows.
    """
    dtype = means2d.dtype
    isects = int(tile_ids.size)
    if isects == 0:
        return _empty_pairs(dtype)
    # the slice's tile rows cover pixel ids [pix0, pix0 + n_pix)
    pix0 = int(tile_ids[0]) // tiles_x * tile_size * width
    n_pix = min(
        (int(tile_ids[-1]) // tiles_x + 1) * tile_size * width,
        width * height,
    ) - pix0

    # clip each splat bbox to its tile: the pixel rect of one intersection
    rx0, rx1, ry0, ry1 = clip_isect_rects(
        bboxes, tile_ids, sid_isect, tiles_x, tile_size
    )
    heights = ry1 - ry0
    widths = rx1 - rx0
    area = widths * heights

    # intersection-level splat constants, pre-scaled so the exponent feeds
    # exp2 directly: q = log2(e)*power + log2(opacity), alpha = exp2(q)
    m_a = (-0.5 * _LOG2E) * conics[sid_isect, 0]
    m_b = _LOG2E * conics[sid_isect, 1]
    m_c = (-0.5 * _LOG2E) * conics[sid_isect, 2]
    with np.errstate(divide="ignore", invalid="ignore"):
        lop = np.log2(opacities[sid_isect])

    # --- row expansion: one entry per (intersection, pixel row) ----------
    n_rows = int(heights.sum())
    if n_rows == 0:
        return _empty_pairs(dtype, isects=isects)
    row_start = np.cumsum(heights) - heights
    y_row = np.arange(n_rows, dtype=np.int64) + np.repeat(
        ry0 - row_start, heights
    )
    w_row = np.repeat(widths, heights)
    dy = (y_row + 0.5) - np.repeat(means2d[sid_isect, 1], heights)
    # row constants: q(dx) = (m_a*dx - r_bdy)*dx + r_y
    r_bdy = np.repeat(m_b, heights) * dy
    r_y = np.repeat(m_c, heights) * dy
    r_y *= dy
    r_y += np.repeat(lop, heights)
    cell_start = np.cumsum(w_row) - w_row
    cell_start += first_cell
    x0_row = np.repeat(rx0, heights)
    base = x0_row - cell_start
    # dx = arange + (x0 - cell_start + 0.5 - mu_x), folded per row
    r_dx = base + 0.5
    r_dx -= np.repeat(means2d[sid_isect, 0], heights)
    # slice-relative pixel = arange + (y*width + x0 - cell_start - pix0)
    r_pix = y_row * width
    r_pix += base
    r_pix -= pix0

    # --- pair expansion ---------------------------------------------------
    # (the index arithmetic stays float64-exact; the float32 fast path
    # casts only the per-row constants, so the hot passes run in `dtype`)
    if dtype != np.float64:
        m_a = m_a.astype(dtype)
        r_bdy = r_bdy.astype(dtype)
        r_y = r_y.astype(dtype)
    n_cells = int(w_row.sum())
    cells = (first_cell, first_cell + n_cells)
    dx = np.arange(*cells, dtype=np.float64)
    dx += np.repeat(r_dx, w_row)
    dx = dx.astype(dtype, copy=False)
    q = np.repeat(m_a, area) * dx
    q -= np.repeat(r_bdy, w_row)
    q *= dx
    q += np.repeat(r_y, w_row)
    alpha = np.exp2(q, out=q)
    np.minimum(alpha, config.alpha_max, out=alpha)
    alpha = alpha.astype(dtype, copy=False)
    pixel = np.arange(*cells, dtype=np.int64)
    pixel += np.repeat(r_pix, w_row)
    sid = np.repeat(sid_isect, area)

    # --- compact and order by (pixel, depth) ------------------------------
    if config.alpha_min > 0:
        keep = np.flatnonzero(alpha >= config.alpha_min)
    else:
        keep = np.flatnonzero(alpha > 0.0)
    pairs = _pixel_sorted(pixel, sid, alpha, keep, n_pix, pix0)
    pairs.cells, pairs.isects = n_cells, isects
    return pairs


def _pixel_sorted(pixel, sid, alpha, keep, n_pix, pix0=0) -> _PairTable:
    """The cells ``keep`` (ascending indices into the three columns) as a
    table: ordered by pixel, stably, so each pixel's segment keeps the
    depth order the cells were expanded in.

    ``pixel`` holds ids relative to ``pix0``, in ``[0, n_pix)``; the
    table's ``pixel`` / ``nz`` are absolute. Compaction and ordering are
    composed into one permutation, so each column is gathered once — from
    the cell-sized column when cells were dropped, and by the sort
    permutation alone when all were kept — and ``pixel`` is not gathered
    at all: sorted, it is its segments' ids repeated.
    """
    if keep.size == 0:
        return _empty_pairs(alpha.dtype)
    compacted = keep.size < pixel.size
    pix_k = pixel[keep] if compacted else pixel
    perm = _argsort_by_key(pix_k, n_pix - 1)
    if compacted:
        perm = keep[perm]
    counts_pix = np.bincount(pix_k, minlength=n_pix)
    nz = np.flatnonzero(counts_pix)
    seg_counts = counts_pix[nz]
    nz += pix0
    starts = np.cumsum(seg_counts) - seg_counts
    return _PairTable(
        pixel=np.repeat(nz, seg_counts), sid=sid[perm], alpha=alpha[perm],
        starts=starts, counts=seg_counts, nz=nz,
    )


# ---------------------------------------------------------------------------
# the pair kernel: scan, composite, backward
# ---------------------------------------------------------------------------

def _transmittance_scan(pairs: _PairTable, lg=None, cum=None):
    """Per-pair pre-blend transmittance via a segment-wise log2 scan.

    Returns ``(seg_log_t, t_before)``: ``seg_log_t`` is ``log2`` of the
    total transmittance of each per-pixel segment (its pixel's final
    transmittance), and ``t_before`` the transmittance each pair blends
    against — the product of ``(1 - alpha)`` over strictly-preceding pairs
    of the same pixel, computed as ``exp2`` of an exclusive segment-wise
    cumsum of ``log2(1 - alpha)``.

    ``lg`` (``log2(1 - alpha)``) and ``cum`` (its running sum) are
    computed here unless given. The ``vectorized`` forward gives both:
    ``cum`` is then a block's slice of one running sum over the whole
    view's table, and is overwritten with ``t_before``.
    """
    starts, counts = pairs.starts, pairs.counts
    if lg is None:
        lg = np.log2(1.0 - pairs.alpha)
    if cum is None:
        cum = np.cumsum(lg)
    ends = starts + counts - 1
    seg_log_t = cum[ends] - cum[starts] + lg[starts]
    ecum = cum
    ecum -= lg  # exclusive
    ecum -= np.repeat(ecum[starts], counts)
    t_before = np.exp2(ecum, out=ecum)
    return seg_log_t, t_before


def composite_pairs(pairs, t_before, colors, rid, n):
    """Blend-weighted colour sums ``sum_p T_before_p alpha_p c_p`` of the
    pairs, reduced onto ``rid``: ``(n, 3)`` float64.

    ``rid`` is each pair's pixel id relative to a block's first pixel —
    reducing onto the block's own pixel range keeps the work O(block
    pairs), never O(image), and since pair order inside a pixel is the
    same, the sums are bit-identical to a global per-pixel bincount.
    ``t_before`` is only read: the forward keeps the scan for its
    backward.
    """
    weight = t_before * pairs.alpha
    rgb = np.empty((n, 3), dtype=np.float64)
    for k in range(3):
        col = np.ascontiguousarray(colors[:, k])
        rgb[:, k] = np.bincount(
            rid, weights=weight * col[pairs.sid], minlength=n
        )
    return rgb


def _cut_runs(starts, total, block):
    """Cut consecutive groups — group ``g`` holding items ``starts[g]``
    up to the next group's start, ``total`` items in all — into runs of
    about ``block`` items: ``(edges, item_edges)``, run ``i`` being groups
    ``edges[i]:edges[i + 1]`` and items ``item_edges[i]:item_edges[i + 1]``.

    Runs hold whole groups (a group larger than a block is one run), and
    under 1.5 blocks nothing is cut at all.
    """
    num_groups = starts.size
    if 2 * total < 3 * block:
        return [0, num_groups], [0, total]
    # cut before the first group starting at or past each multiple of the
    # block size (several multiples inside one group cut once, after it)
    cuts = np.unique(np.searchsorted(
        starts, np.arange(block, total, block, dtype=np.int64)
    ))
    edges = [0, *cuts[cuts < num_groups].tolist(), num_groups]
    return edges, [*starts[edges[:-1]].tolist(), total]


def _segment_blocks(starts, num_pairs, num_splats):
    """Cut a table's segments into runs of about ``max(BLOCK_PAIRS, 4 *
    num_splats)`` pairs (:func:`_cut_runs`): ``(edges, pair_edges)``.

    The ``4 * num_splats`` term keeps the per-block ``bincount`` a
    minority of the work when splats outnumber a block.
    """
    return _cut_runs(starts, num_pairs, max(BLOCK_PAIRS, 4 * num_splats))


def backward_pairs(
    means2d, conics, colors, opacities, g_flat, width, alpha_max, pairs, *,
    t_before, base,
):
    """Per-splat raw gradient sums of a pair table.

    The splat arrays and the flat ``(H*W, 3)`` image gradient are in the
    compute dtype. ``conics`` and ``opacities`` are not read: whatever is
    constant per splat multiplies the sums, once per splat, in
    :func:`set_grads`.

    Args:
        t_before: the transmittance each pair blends against.
        base: per pixel segment, the background term ``(dL/dC . bg) *
            T_final``; the kernel adds the colour the segment's own pairs
            accumulate.

    Returns the ``(9, M)`` float64 sums over splat ids, with ``gp =
    dL/dpower`` of a pair and ``(dx, dy)`` its pixel centre minus the
    splat mean: rows 0-2 ``dL/dC_k * weight`` (the colour gradient as it
    is), 3 ``gp``, 4-6 ``gp * (dx*dx, dx*dy, dy*dy)``, 7 ``gp * dx``,
    8 ``gp * dy``; :func:`set_grads` turns them into gradients.

    The table is walked in blocks of whole segments
    (:func:`_segment_blocks`) so that the arithmetic's ~15 pair-sized
    temporaries stay cache-sized, and the blocks' sums are added in block
    order: a pure function of the table. What is constant per pixel (the
    image gradient, the pixel centre) is formed per segment and repeated.
    """
    starts, counts = pairs.starts, pairs.counts
    m = means2d.shape[0]
    # column copies and the per-segment pixel, hoisted out of the block loop
    cols = (
        [np.ascontiguousarray(g_flat[:, k]) for k in range(3)],
        [np.ascontiguousarray(colors[:, k]) for k in range(3)],
        np.ascontiguousarray(means2d[:, 0]),
        np.ascontiguousarray(means2d[:, 1]),
    )
    edges, pair_edges = _segment_blocks(starts, pairs.alpha.size, m)
    total = np.zeros((9, m), dtype=np.float64)
    for g0, g1, p0, p1 in zip(
        edges[:-1], edges[1:], pair_edges[:-1], pair_edges[1:]
    ):
        total += _backward_block(
            *cols, width, alpha_max, pairs.nz[g0:g1], starts[g0:g1] - p0,
            counts[g0:g1], base[g0:g1], pairs.sid[p0:p1],
            pairs.alpha[p0:p1], t_before[p0:p1], m,
        )
    return total


def _backward_block(
    g_col, c_col, mean_x, mean_y, width, alpha_max,
    pix, starts, counts, base, sid, alpha, t_before, m,
):
    """The ``(9, m)`` sums of one block of :func:`backward_pairs`. ``pix``
    is per segment and ``starts`` block-relative; ``sid``, ``alpha`` and
    ``t_before`` are the block's pairs."""
    sums = np.empty((9, m), dtype=np.float64)
    weight = t_before * alpha
    g_pair = [np.repeat(g_col[k][pix], counts) for k in range(3)]

    # dL/dcolor_k = sum_p dL/dC_k * alpha * T_before
    for k in range(3):
        sums[k] = np.bincount(sid, weights=g_pair[k] * weight, minlength=m)

    # Suffix color accumulator, contracted with dL/dC per pair: because the
    # image gradient is constant within a pixel's segment,
    #   dL/dC . (sum_{j>i} c_j a_j T_j + bg T_final)
    #     = [segment total + background term] - inclusive prefix
    # which is one cumsum plus segment-level gathers.
    gdot_color = g_pair[0] * c_col[0][sid]
    gdot_color += g_pair[1] * c_col[1][sid]
    gdot_color += g_pair[2] * c_col[2][sid]
    gw = weight * gdot_color
    incl = np.cumsum(gw)
    before = incl[starts] - gw[starts]  # the scan's value entering a segment
    base = base + (incl[starts + counts - 1] - before)
    gdot_suffix = np.repeat(base + before, counts)
    gdot_suffix -= incl

    grad_alpha = gdot_color * t_before
    grad_alpha -= gdot_suffix / (1.0 - alpha)
    # the alpha cap's gradient is zero where it binds
    np.copyto(grad_alpha, 0.0, where=alpha >= alpha_max)
    # alpha = o * exp(power) below the cap, so dL/dpower = dL/dalpha * alpha
    # (and dL/do = sum_p dL/dpower / o: set_grads)
    grad_power = np.multiply(grad_alpha, alpha, out=grad_alpha)
    sums[3] = np.bincount(sid, weights=grad_power, minlength=m)

    dx = np.repeat((pix % width) + 0.5, counts)
    dx -= mean_x[sid]
    dy = np.repeat((pix // width) + 0.5, counts)
    dy -= mean_y[sid]
    gpx = grad_power * dx
    gpy = grad_power * dy
    sums[7] = np.bincount(sid, weights=gpx, minlength=m)
    sums[8] = np.bincount(sid, weights=gpy, minlength=m)
    # dx, dy, gpx, gpy are float64 under every compute dtype (the pixel
    # centre is), so the three moments reuse them
    sums[4] = np.bincount(
        sid, weights=np.multiply(gpx, dx, out=dx), minlength=m
    )
    sums[5] = np.bincount(
        sid, weights=np.multiply(gpx, dy, out=gpx), minlength=m
    )
    sums[6] = np.bincount(
        sid, weights=np.multiply(gpy, dy, out=gpy), minlength=m
    )
    return sums


def set_grads(grads: RasterGrads, conics, opacities, sums) -> RasterGrads:
    """Turn the ``(9, M)`` raw sums of :func:`backward_pairs` into the
    :class:`~repro.render.backward.RasterGrads` contract.

    The one place the per-splat factors are applied. With ``power = -0.5
    (a dx^2 + c dy^2) - b dx dy`` and ``alpha = o exp(power)``:

    * ``dL/d(a, b, c) = (-0.5, -1, -0.5) * sum gp (dx^2, dx dy, dy^2)``;
    * ``dL/dmean = (a Sx + b Sy, b Sx + c Sy)`` with ``(Sx, Sy) = sum gp
      (dx, dy)``, since ``d power / d mean = (a dx + b dy, b dx + c dy)``;
    * ``dL/do = (sum gp) / o``, exactly 0 where ``o == 0`` (such a splat
      has no pair, so its sum is 0).

    A splat without pairs has zero sums and gets zero gradients.
    """
    c_a, c_b, c_c = conics[:, 0], conics[:, 1], conics[:, 2]
    power, sx, sy = sums[3], sums[7], sums[8]
    gmx = c_a * sx + c_b * sy
    gmy = c_b * sx + c_c * sy
    grads.colors[:] = sums[:3].T
    grads.opacities[:] = np.divide(
        power, opacities, out=np.zeros_like(power), where=opacities != 0
    )
    grads.conics[:, 0] = -0.5 * sums[4]
    grads.conics[:, 1] = -sums[5]
    grads.conics[:, 2] = -0.5 * sums[6]
    grads.means2d[:, 0] = gmx
    grads.means2d[:, 1] = gmy
    grads.mean2d_abs[:] = np.hypot(gmx, gmy)
    return grads


@dataclass
class _SavedPairs:
    """What the forward hands its backward: the sorted pair table and the
    per-pair ``t_before`` of :func:`_transmittance_scan`.

    ``key`` names everything the table depends on besides the splat
    values themselves (see :func:`_saved_key`); the backward uses the
    saved state only under an equal key. Nothing here is ever written
    after construction, so one result backpropagates repeatedly. What
    building the table took is counted once, in ``RasterResult.counts``.
    """

    key: tuple
    pairs: _PairTable
    t_before: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes held between the passes (telemetry's ``saved_bytes``)."""
        p = self.pairs
        return sum(
            a.nbytes
            for a in (p.pixel, p.sid, p.alpha, p.starts, p.counts, p.nz,
                      self.t_before)
        )


def _saved_key(m_count, width, height, dtype, tile_size, config) -> tuple:
    return (
        m_count, width, height, np.dtype(dtype).str, tile_size,
        config.alpha_min, config.alpha_max, config.full_image_splats,
    )


def prepare(config, background, means2d, conics, colors, opacities):
    """The preamble of both ``vectorized`` entry points, forward and
    backward.

    Returns ``(config, background, splats)``: the config (defaulted, and
    checked for the scan's ``alpha_max < 1`` requirement), the background
    (black by default) and the four splat arrays cast to ``config.dtype``
    (as they are when unset; a ``colors`` function is passed through, and
    :func:`_shade` casts the rows it returns). Integer decisions (depth
    order, bboxes, tile assignment) are made from the original
    full-precision inputs by the callers, so the fast path changes
    arithmetic precision only — never which pairs exist.
    """
    config = config or RasterConfig()
    if config.alpha_max >= 1.0:
        raise ValueError(
            "the vectorized engine's log-transmittance scan requires "
            f"alpha_max < 1, got {config.alpha_max}"
        )
    splats = (means2d, conics, colors, opacities)
    if config.dtype is not None:
        dtype = np.dtype(config.dtype)
        splats = tuple(
            a if callable(a) or a.dtype == dtype else a.astype(dtype)
            for a in splats
        )
    dtype = splats[0].dtype
    if background is None:
        background = np.zeros(3, dtype=dtype)
    return config, np.asarray(background, dtype=dtype), splats


# ---------------------------------------------------------------------------
# the vectorized scheduler: one table, kept between the passes
# ---------------------------------------------------------------------------

def rasterize_vectorized(
    means2d: np.ndarray,
    conics: np.ndarray,
    colors: np.ndarray,
    opacities: np.ndarray,
    depths: np.ndarray,
    radii: np.ndarray,
    width: int,
    height: int,
    background: np.ndarray | None = None,
    config: RasterConfig | None = None,
    tile_size: int = TILE_SIZE,
) -> RasterResult:
    """Fully vectorized compositor; same contract as
    :func:`repro.render.rasterize.rasterize`, except that ``colors`` may
    also be a function of splat ids returning their ``(k, 3)`` colours.
    It is then called once, with the sorted distinct splat ids of the
    occlusion-pruned intersection table (:func:`_build_pairs`), and only
    those splats are shaded — the image is the same bytes as from the
    whole array. A forward-only render passes one
    (:func:`repro.render.pipeline.render`); the backward needs the
    array."""
    config, background, splats = prepare(
        config, background, means2d, conics, colors, opacities
    )
    # integer decisions (depth order, bboxes) use the full-precision inputs
    order = np.argsort(depths, kind="stable")
    bboxes = config_bboxes(means2d, radii, width, height, config)
    means2d, conics, colors, opacities = splats
    dtype = means2d.dtype

    n_pix = width * height
    image = np.zeros((n_pix, 3), dtype=dtype)
    trans = np.ones(n_pix, dtype=dtype)
    saved = _build_pairs(
        means2d, conics, opacities, bboxes, order, width, height, config,
        tile_size, composite=(colors, image, trans),
    )
    image += trans[:, None] * background
    return RasterResult(
        image=image.reshape(height, width, 3),
        final_transmittance=trans.reshape(height, width),
        order=order,
        bboxes=bboxes,
        saved=saved,
        counts=saved.pairs.pair_counts,
    )


def rasterize_backward_vectorized(
    means2d: np.ndarray,
    conics: np.ndarray,
    colors: np.ndarray,
    opacities: np.ndarray,
    result: RasterResult,
    grad_image: np.ndarray,
    background: np.ndarray | None = None,
    config: RasterConfig | None = None,
    tile_size: int = TILE_SIZE,
) -> RasterGrads:
    """Vectorized adjoint of :func:`rasterize_vectorized`; same contract as
    :func:`repro.render.backward.rasterize_backward`.

    Reads the pair table and scan from ``result.saved`` when the forward
    left them there under the same key, and rebuilds them otherwise;
    either way the gradients are bit-identical.
    """
    config, background, (means2d, conics, colors, opacities) = prepare(
        config, background, means2d, conics, colors, opacities
    )
    dtype = means2d.dtype
    height, width = grad_image.shape[:2]

    m_count = means2d.shape[0]
    grads = alloc_grads(m_count, dtype)
    saved = result.saved
    if not (isinstance(saved, _SavedPairs) and saved.key == _saved_key(
        m_count, width, height, dtype, tile_size, config
    )):
        # not this engine's forward, or not under this config: rebuild
        saved = _build_pairs(
            means2d, conics, opacities, result.bboxes, result.order, width,
            height, config, tile_size,
        )
    pairs, t_before = saved.pairs, saved.t_before
    if pairs.alpha.size == 0:
        return grads

    g_flat = np.ascontiguousarray(grad_image.reshape(-1, 3), dtype=dtype)
    t_final = np.ascontiguousarray(
        result.final_transmittance.reshape(-1), dtype=dtype
    )
    # the background term over the whole image, then gathered per segment
    base = ((g_flat @ background) * t_final)[pairs.nz]
    return set_grads(grads, conics, opacities, backward_pairs(
        means2d, conics, colors, opacities, g_flat, width, config.alpha_max,
        pairs, t_before=t_before, base=base,
    ))
