"""Shard-parallel fragment rasterization (forward + backward).

The ``vectorized`` engine builds one globally sorted intersection table
over the whole splat set in one process; in the sharded training systems
that forces a global gather of all shards before any render, and the
whole view's pair table is alive at once. This module removes both:
each shard runs the **whole per-shard pipeline** — tile binning, pair
build, transmittance scan, compositing —
over only their shard's splats, and emit compact per-pixel **fragment
buffers** that the host merges with a depth-ordered transmittance
composite (the Gaussian-parallel + pixel-parallel decomposition of
Grendel, "On Scaling Up 3D Gaussian Splatting Training").

A *fragment* is one pixel's maximal run of consecutive splats (in global
depth order) that live in the same shard. Each worker composites its
shard's pairs fragment-locally and emits, per fragment:

* ``pixel`` — the pixel id;
* ``run`` — the global depth-run index (host-computed from the global
  depth order, so runs interleave shards exactly as depth dictates);
* ``rgb`` — the fragment-internal premultiplied color
  ``sum_i T^within_i alpha_i c_i`` (transmittance *within* the fragment);
* ``logt`` — the fragment's total ``log2`` transmittance
  ``sum_i log2(1 - alpha_i)``.

Because blending is associative under pre-multiplication, the host
reconstructs the exact global composite from fragments alone: sort them
by ``(pixel, run)`` (two 16-bit-digit radix passes — no wide keys), scan
``logt`` per pixel to get each fragment's pre-blend transmittance
``T_before``, and accumulate ``T_before * rgb`` per pixel. The background
term uses the per-pixel ``logt`` totals. No process ever needs splats
outside its shard, and nothing but fragment buffers crosses the merge.

The backward pass splits the composited gradient along the same fragment
boundaries. The host needs only the *stashed forward fragments* plus the
image gradient: a fragment's total pair-level suffix weight satisfies

    sum_i w_i (dL/dC . c_i) = T_before * (dL/dC . rgb)

so the per-fragment suffix offsets ``d_f`` (segment total + background
term minus the exclusive fragment prefix) come from one fragment-level
cumsum — no pair table on the host. Workers rebuild their shard's pair
table deterministically and hand it to the pair kernel of
:mod:`repro.render.engine` with fragments as the scan groups: each pair
blends against ``T_before`` times the transmittance within its fragment,
the suffix base of a fragment is its ``d_f``, and the sparse per-splat
partials come back in the contract of
:func:`repro.render.engine.fill_grads`.

The shards of one view run on the block threads of the calling process
(:func:`repro.pool.map_blocks`, one per CPU the process may use, inline
inside a pool worker): every shard reads the same host arrays and slices
its own rows, and nothing is copied to reach it. :func:`run_slices` is
that dispatch.

Determinism: per-shard computation is a pure function of the shard's
arrays — on whichever thread it runs — and the merge order is fixed
by the (unique) ``(pixel, run)`` keys, so results are bit-identical
across repeated runs and across CPU counts; across *shard* counts
only prefix-association rounding differs (~1e-12, bounded at 1e-9 by
``tests/render/test_fragment_engine.py``). The shard count is therefore
an explicit setting (``RasterConfig.fragment_shards``), never derived
from the machine.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .. import faults
from ..pool import map_blocks
from .backward import RasterGrads, alloc_grads
from .engine import (
    TILE_SIZE,
    _argsort_by_key,
    _empty_pairs,
    _transmittance_scan,
    backward_pairs,
    composite_pairs,
    fill_grads,
    local_ids,
    pairs_for_isects,
    prepare,
    visible_intersections,
)
from .rasterize import PairCounts, RasterConfig, RasterResult, config_bboxes

__all__ = [
    "FragmentRasterResult",
    "FragmentSource",
    "rasterize_fragment",
    "rasterize_backward_fragment",
    "rasterize_fragment_sources",
    "run_slices",
]


# ---------------------------------------------------------------------------
# result type: RasterResult + the stashed fragment buffers
# ---------------------------------------------------------------------------

@dataclass
class FragmentRasterResult(RasterResult):
    """Forward output plus the merged fragment stash the backward needs.

    The stash is what makes the backward pass gather-free: the host
    derives every per-fragment suffix term from these arrays and the
    image gradient alone, then hands two scalars per fragment to the
    shard slices.

    Attributes (beyond :class:`~repro.render.rasterize.RasterResult`):
        shard_list: splat ids concatenated shard by shard, each shard's
            slice in within-shard depth order.
        offsets: ``(S+1,)`` shard boundaries into ``shard_list``.
        run_of: global depth-run index per splat (input order).
        num_runs: total depth runs.
        frag_pixel: merged fragment pixel ids, ``(pixel, run)``-sorted.
        frag_rgb: fragment-internal premultiplied color, sorted, float64.
        frag_tb: pre-blend transmittance of each sorted fragment.
        seg_starts, seg_counts, seg_nz: per-pixel segments over the
            sorted fragments (``seg_nz`` lists the touched pixel ids).
        frag_perm: sorted-position -> emission-position permutation
            (``sorted = emitted[frag_perm]``).
        emit_counts: fragments emitted per shard, in shard order.
    """

    shard_list: np.ndarray
    offsets: np.ndarray
    run_of: np.ndarray
    num_runs: int
    frag_pixel: np.ndarray
    frag_rgb: np.ndarray
    frag_tb: np.ndarray
    seg_starts: np.ndarray
    seg_counts: np.ndarray
    seg_nz: np.ndarray
    frag_perm: np.ndarray
    emit_counts: np.ndarray


@dataclass(frozen=True)
class FragmentSource:
    """One shard's projected splats, in the shard's local row order.

    The per-shard input of :func:`rasterize_fragment_sources` — exactly
    the arrays :func:`repro.render.projection.project` produces for the
    shard's visible rows. Gradients come back in the same concatenated
    row space (shard k owns rows ``[sum(sizes[:k]), sum(sizes[:k+1]))``).
    """

    means2d: np.ndarray
    conics: np.ndarray
    colors: np.ndarray
    opacities: np.ndarray
    depths: np.ndarray
    radii: np.ndarray

    @property
    def size(self) -> int:
        """Splat count of this shard."""
        return int(self.depths.shape[0])


# ---------------------------------------------------------------------------
# slice dispatch
# ---------------------------------------------------------------------------

def run_slices(fn, arrays, slices, **kwargs):
    """``fn(arrays, *slice, **kwargs)`` for every slice, in slice order,
    on the block threads (:func:`repro.pool.map_blocks`).

    ``fn`` — ``_forward`` / ``_backward`` — reads the shared ``arrays``
    and writes nothing but its result, and the results come back in slice
    order, so the merged output does not depend on which thread ran a
    slice, or on how many there are. A slice calls nothing that maps.
    """
    return map_blocks(lambda slc: fn(arrays, *slc, **kwargs), slices)


# ---------------------------------------------------------------------------
# per-shard passes (one per slice, on the block threads)
# ---------------------------------------------------------------------------

def _shard_pairs(arr, start, stop, width, height, config, tile_size):
    """Cull -> pairs -> fragments of one shard: the half both passes share
    (the backward rebuilds deterministically what the forward built).

    Returns ``(pairs, frags)`` with ``frags = (sid_isect, run_pair,
    frag_starts, frag_counts, frag_id)``, or ``None`` in its place when
    the shard contributes no pair (``pairs`` still counts what was
    built). A new fragment starts at every pixel-segment start and at
    every global-run change inside a segment. Within a pixel's segment the
    pairs follow the shard's depth order (a subsequence of the global
    order), so run ids are non-decreasing and fragments are maximal
    constant-run slices.
    """
    ids = arr["shard_list"][start:stop]
    if ids.size == 0:
        return _empty_pairs(arr["means2d"].dtype), None
    faults.fault_point("fragment:cull")
    # pruned per shard: a shard's own splats bound the tile's global
    # transmittance from above, so the shard-local cut is conservative
    tile_ids, sid_isect, tiles_x, num_pruned = visible_intersections(
        arr["means2d"], arr["conics"], arr["opacities"], arr["bboxes"], ids,
        width, height, config, tile_size,
    )
    pairs = pairs_for_isects(
        arr["means2d"], arr["conics"], arr["opacities"], arr["bboxes"],
        tile_ids, sid_isect, tiles_x, width, height, config, tile_size,
    )
    pairs.pruned_isects = num_pruned
    faults.fault_point("fragment:pairs")
    if pairs.alpha.size == 0:
        return pairs, None
    run_pair = arr["run_of"][pairs.sid]
    first = np.zeros(pairs.alpha.size, dtype=bool)
    first[pairs.starts] = True
    first[1:] |= run_pair[1:] != run_pair[:-1]
    frag_starts = np.flatnonzero(first)
    frag_counts = np.diff(np.append(frag_starts, pairs.alpha.size))
    frag_id = np.cumsum(first) - 1
    faults.fault_point("fragment:composite")
    return pairs, (sid_isect, run_pair, frag_starts, frag_counts, frag_id)


def _forward(arr, start, stop, width, height, config, tile_size):
    """Composite one shard into fragment buffers.

    Returns the shard table's :class:`~repro.render.rasterize.PairCounts`
    and ``(pixel, run, logt, rgb)`` per fragment — all float64 on the
    merge-facing side — or ``None`` in its place when the shard
    contributes nothing.
    """
    pairs, frags = _shard_pairs(
        arr, start, stop, width, height, config, tile_size
    )
    if frags is None:
        return pairs.pair_counts, None
    _, run_pair, frag_starts, frag_counts, frag_id = frags
    # fragment-local scan -> transmittance within the fragment
    logt, t_within = _transmittance_scan(pairs, frag_starts, frag_counts)
    rgb = composite_pairs(
        pairs, t_within, arr["colors"], frag_id, frag_starts.size
    )
    return pairs.pair_counts, (
        pairs.pixel[frag_starts],
        run_pair[frag_starts],
        logt.astype(np.float64, copy=False),
        rgb,
    )


def _backward(
    arr, start, stop, fstart, fstop, width, height, config, tile_size
):
    """Gradient partials of one shard, in the contract of
    :func:`repro.render.engine.fill_grads`.

    The host's per-fragment ``T_before`` and suffix offset ``d_f`` — which
    already holds [segment total + bg term - exclusive fragment prefix] —
    turn the fragment-local scans into the global ones.
    """
    pairs, frags = _shard_pairs(
        arr, start, stop, width, height, config, tile_size
    )
    if frags is None:
        return None
    sid_isect, _, frag_starts, frag_counts, _ = frags
    if frag_starts.size != fstop - fstart:
        raise RuntimeError(
            "fragment backward rebuilt a different fragment count than the "
            "forward emitted — forward/backward inputs must match"
        )
    uids, lid = local_ids(sid_isect, pairs.sid, arr["means2d"].shape[0])
    _, t_within = _transmittance_scan(pairs, frag_starts, frag_counts)
    t_before = np.repeat(arr["tb_emit"][fstart:fstop], frag_counts) * t_within
    return uids, backward_pairs(
        arr["means2d"], arr["conics"], arr["colors"], arr["opacities"],
        arr["grad_image"], width, config.alpha_max, pairs,
        t_before=t_before, groups=(frag_starts, frag_counts),
        base=arr["d_emit"][fstart:fstop], base_has_total=True,
        rid=lid, m=uids.size,
    )


# ---------------------------------------------------------------------------
# host merge
# ---------------------------------------------------------------------------

def _merge_fragments(results, width, height, background, dtype, num_runs):
    """Depth-ordered transmittance composite of per-shard fragments.

    Returns ``(image, trans, stash)`` with the flat image/transmittance
    in ``dtype`` and the sorted fragment stash for the backward pass.
    """
    n_pix = width * height
    image = np.zeros((n_pix, 3), dtype=np.float64)
    trans = np.ones(n_pix, dtype=np.float64)
    emit_counts = np.array(
        [0 if r is None else r[0].size for r in results], dtype=np.int64
    )
    live = [r for r in results if r is not None]
    empty = np.empty(0, dtype=np.int64)
    if not live:
        image += trans[:, None] * background.astype(np.float64)
        stash = dict(
            frag_pixel=empty, frag_rgb=np.empty((0, 3)), frag_tb=np.empty(0),
            seg_starts=empty, seg_counts=empty, seg_nz=empty,
            frag_perm=empty, emit_counts=emit_counts,
        )
        return image.astype(dtype), trans.astype(dtype), stash

    pix_all = np.concatenate([r[0] for r in live])
    run_all = np.concatenate([r[1] for r in live])
    logt_all = np.concatenate([r[2] for r in live])
    rgb_all = np.concatenate([r[3] for r in live])

    # sort by (pixel, run): LSD radix — run digit first, then a stable
    # pixel pass. (pixel, run) keys are unique (one shard owns each run),
    # so the order is fully determined, never tie-broken.
    perm = _argsort_by_key(run_all, max(num_runs - 1, 0))
    perm = perm[_argsort_by_key(pix_all[perm], n_pix - 1)]
    pix_s = pix_all[perm]
    logt_s = logt_all[perm]
    rgb_s = rgb_all[perm]

    counts_pix = np.bincount(pix_s, minlength=n_pix)
    nz = np.flatnonzero(counts_pix)
    seg_counts = counts_pix[nz]
    starts = np.cumsum(seg_counts) - seg_counts
    ends = starts + seg_counts - 1

    cum = np.cumsum(logt_s)
    seg_log_t = cum[ends] - cum[starts] + logt_s[starts]
    ecum = cum - logt_s
    ecum -= np.repeat(ecum[starts], seg_counts)
    tb = np.exp2(ecum, out=ecum)
    trans[nz] = np.exp2(seg_log_t)
    for k in range(3):
        image[:, k] = np.bincount(
            pix_s, weights=tb * rgb_s[:, k], minlength=n_pix
        )
    image += trans[:, None] * background.astype(np.float64)
    stash = dict(
        frag_pixel=pix_s, frag_rgb=rgb_s, frag_tb=tb,
        seg_starts=starts, seg_counts=seg_counts, seg_nz=nz,
        frag_perm=perm, emit_counts=emit_counts,
    )
    return image.astype(dtype), trans.astype(dtype), stash


def _render_fragments(
    means2d, conics, colors, opacities, radii, layout,
    width, height, background, config, tile_size,
) -> FragmentRasterResult:
    """Shared forward of the engine-standard and source entrypoints, over
    a ``layout = (order, shard_list, offsets, run_of, num_runs)``."""
    config, background, splats = prepare(
        config, background, means2d, conics, colors, opacities
    )
    bboxes = config_bboxes(means2d, radii, width, height, config)
    means2d, conics, colors, opacities = splats
    order, shard_list, offsets, run_of, num_runs = layout
    arrays = {
        "means2d": means2d, "conics": conics, "colors": colors,
        "opacities": opacities, "bboxes": bboxes,
        "shard_list": shard_list, "run_of": run_of,
    }
    slices = [
        (int(offsets[k]), int(offsets[k + 1]))
        for k in range(offsets.size - 1)
    ]
    counts, results = zip(*run_slices(
        _forward, arrays, slices, width=width, height=height, config=config,
        tile_size=tile_size,
    ))
    image, trans, stash = _merge_fragments(
        results, width, height, background, means2d.dtype, num_runs
    )
    return FragmentRasterResult(
        image=image.reshape(height, width, 3),
        final_transmittance=trans.reshape(height, width),
        order=order,
        bboxes=bboxes,
        shard_list=shard_list,
        offsets=offsets,
        run_of=run_of,
        num_runs=num_runs,
        counts=PairCounts.total(counts),
        **stash,
    )


# ---------------------------------------------------------------------------
# shard layouts
# ---------------------------------------------------------------------------

def _depth_slab_layout(depths, num_shards):
    """Contiguous depth slabs: the engine-path shard assignment, in the
    form of :func:`_source_layout`.

    Slab k is one global depth run by construction (the slabs tile the
    depth order), so ``run id == slab id`` and ``shard_list`` is the
    depth order itself.
    """
    order = np.argsort(depths, kind="stable")
    m = order.size
    num_shards = max(1, min(int(num_shards), max(m, 1)))
    edges = (m * np.arange(num_shards + 1, dtype=np.int64)) // num_shards
    run_of = np.empty(m, dtype=np.int64)
    run_of[order] = np.repeat(
        np.arange(num_shards, dtype=np.int64), np.diff(edges)
    )
    return order, order, edges, run_of, num_shards


def _source_layout(depths_list):
    """Interleaved-shard layout from per-shard depth arrays.

    Returns ``(order, shard_list, offsets, run_of, num_runs)`` over the
    concatenated row space: ``order`` is the global stable depth sort,
    runs are its maximal constant-shard slices, and ``shard_list`` holds
    each shard's rows in within-shard depth order (the restriction of the
    global order, so ties resolve identically to a joint render).
    """
    sizes = np.array([d.size for d in depths_list], dtype=np.int64)
    m = int(sizes.sum())
    offsets = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
    if m == 0:
        return (
            np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
            offsets, np.empty(0, dtype=np.int64), 0,
        )
    depths_all = np.concatenate(depths_list)
    order = np.argsort(depths_all, kind="stable")
    shard_of = np.repeat(np.arange(sizes.size, dtype=np.int64), sizes)
    sorder = shard_of[order]
    chg = np.empty(m, dtype=bool)
    chg[0] = True
    chg[1:] = sorder[1:] != sorder[:-1]
    run_along = np.cumsum(chg) - 1
    run_of = np.empty(m, dtype=np.int64)
    run_of[order] = run_along
    num_runs = int(run_along[-1]) + 1
    # group the order positions by shard (stable -> within-shard depth
    # order preserved), giving each shard's slice of shard_list
    shard_list = order[np.argsort(sorder, kind="stable")]
    return order, shard_list, offsets, run_of, num_runs


# ---------------------------------------------------------------------------
# forward entrypoints
# ---------------------------------------------------------------------------

def rasterize_fragment(
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
) -> FragmentRasterResult:
    """Fragment-compositing rasterizer; same contract as
    :func:`repro.render.rasterize.rasterize`.

    Whole-scene inputs are cut into ``config.fragment_shards`` contiguous
    depth slabs, each rendered as an independent shard; the sharded
    systems instead feed
    per-shard sources through :func:`rasterize_fragment_sources`.
    """
    config = config or RasterConfig()
    return _render_fragments(
        means2d, conics, colors, opacities, radii,
        _depth_slab_layout(depths, config.fragment_shards),
        width, height, background, config, tile_size,
    )


def rasterize_fragment_sources(
    sources: list[FragmentSource],
    width: int,
    height: int,
    background: np.ndarray | None = None,
    config: RasterConfig | None = None,
    tile_size: int = TILE_SIZE,
) -> FragmentRasterResult:
    """Composite per-shard projected sources without a global gather.

    Each :class:`FragmentSource` is rendered as its own shard (its rows
    are never merged with another shard's packed parameters — only the
    ~12 projected columns are concatenated for indexing), and the depth
    runs are computed from the joint depth order, so the output equals a
    single render of the union to compositing-rounding precision.
    :func:`rasterize_backward_fragment` on the returned result yields
    gradients in the concatenated row space: shard k owns rows
    ``[result.offsets... sum(sizes[:k]), sum(sizes[:k+1]))`` of the
    original per-source row order.
    """
    return _render_fragments(
        *(
            np.concatenate([getattr(src, field) for src in sources])
            for field in ("means2d", "conics", "colors", "opacities", "radii")
        ),
        _source_layout([src.depths for src in sources]),
        width, height, background, config, tile_size,
    )


# ---------------------------------------------------------------------------
# backward
# ---------------------------------------------------------------------------

def rasterize_backward_fragment(
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
    """Shard-parallel adjoint of :func:`rasterize_fragment`; same contract
    as :func:`repro.render.backward.rasterize_backward`.

    ``result`` must be the :class:`FragmentRasterResult` of the matching
    forward pass — the host-side suffix preparation runs entirely on its
    stashed fragment buffers (no pair table, no gather).
    """
    config, background, (means2d, conics, colors, opacities) = prepare(
        config, background, means2d, conics, colors, opacities
    )
    if not isinstance(result, FragmentRasterResult):
        raise TypeError(
            "rasterize_backward_fragment needs the FragmentRasterResult of "
            "a fragment forward pass"
        )
    dtype = means2d.dtype
    height, width = grad_image.shape[:2]

    grads = alloc_grads(means2d.shape[0], dtype)
    n_frag = result.frag_pixel.size
    if n_frag == 0:
        return grads

    # --- host: per-fragment suffix terms from the forward stash ----------
    g_flat = np.ascontiguousarray(grad_image.reshape(-1, 3), dtype=np.float64)
    t_final = np.ascontiguousarray(
        result.final_transmittance.reshape(-1), dtype=np.float64
    )
    pix_s = result.frag_pixel
    tb = result.frag_tb
    rgb = result.frag_rgb
    starts, counts = result.seg_starts, result.seg_counts
    # fragment total of weight * (dL/dC . c): T_before * (dL/dC . rgb)
    gw = g_flat[pix_s, 0] * rgb[:, 0]
    gw += g_flat[pix_s, 1] * rgb[:, 1]
    gw += g_flat[pix_s, 2] * rgb[:, 2]
    gw *= tb
    incl = np.cumsum(gw)
    ends = starts + counts - 1
    seg_gw = incl[ends] - incl[starts] + gw[starts]
    incl -= np.repeat(incl[starts] - gw[starts], counts)  # inclusive in-seg
    pref_seg = (g_flat[result.seg_nz] @ background.astype(np.float64))
    pref_seg *= t_final[result.seg_nz]
    pref_seg += seg_gw
    # d_f = segment total + bg term - exclusive fragment prefix
    d_sorted = np.repeat(pref_seg, counts)
    d_sorted -= incl - gw
    # scatter back to emission order and slice per shard
    tb_emit = np.empty(n_frag, dtype=np.float64)
    d_emit = np.empty(n_frag, dtype=np.float64)
    tb_emit[result.frag_perm] = tb
    d_emit[result.frag_perm] = d_sorted

    # --- per-shard gradient kernels, on the block threads -----------------
    arrays = {
        "means2d": means2d, "conics": conics, "colors": colors,
        "opacities": opacities, "bboxes": result.bboxes,
        "shard_list": result.shard_list, "run_of": result.run_of,
        "grad_image": np.ascontiguousarray(
            grad_image.reshape(-1, 3), dtype=dtype
        ),
        "tb_emit": tb_emit, "d_emit": d_emit,
    }
    femit = np.concatenate([[0], np.cumsum(result.emit_counts)])
    slices = [
        (
            int(result.offsets[k]), int(result.offsets[k + 1]),
            int(femit[k]), int(femit[k + 1]),
        )
        for k in range(result.offsets.size - 1)
    ]
    return fill_grads(grads, conics, opacities, run_slices(
        _backward, arrays, slices, width=width, height=height,
        config=config, tile_size=tile_size,
    ))
