"""Exact equalities of the shared pair kernel.

The parity suites compare engines at ``atol=1e-9`` — a tolerance a
diverging copy of the pair arithmetic would pass. These tests assert what
a single copy guarantees instead: a ``fragment`` slab computes the same
bytes in a pool worker as in-process, the kernel's gradient sums do not
depend on the index they are reduced onto, its blocks and its pixel sort
are the formulations they replace, byte for byte, and every scheduler
counts the table ``vectorized`` builds. Equalities only, so they mean the
same on a 1-CPU runner.
"""

from dataclasses import replace

import numpy as np
import pytest

import test_engine_equivalence as equivalence
from repro.pool import get_raster_pool, shutdown_raster_pools
from repro.render import RasterConfig, engine
from repro.render.engine import (
    _argsort_by_key,
    _group_blocks,
    _pixel_sorted,
    _transmittance_scan,
    backward_pairs,
    clip_isect_rects,
    get_backward,
    get_forward,
    local_ids,
    pairs_for_isects,
    tile_intersections,
    visible_intersections,
)
from repro.render.rasterize import config_bboxes, splat_bboxes

from test_engine_equivalence import SCENES, make_splats

GRAD_FIELDS = ("means2d", "conics", "colors", "opacities", "mean2d_abs")

#: Background of every run here.
BG = np.array([0.25, 0.5, 0.75])


def _run(engine_cfg, args, w, h, grad):
    res = get_forward(engine_cfg.engine)(
        *args, width=w, height=h, background=BG, config=engine_cfg
    )
    grads = get_backward(engine_cfg.engine)(
        *args[:4], res, grad, background=BG, config=engine_cfg
    )
    return res, grads


#: ``(fragment_shards, workers)`` of the pooled runs: two and three slabs
#: on two workers, and one slab per worker on three.
POOLED = [(2, 2), (3, 2), (3, 3)]


class TestPooledSlabsAreInProcess:
    """``fragment`` runs every depth slab through one function, in a pool
    worker or in-process (:func:`repro.render.fragment.run_slices`), and
    merges the results in slab order: where a slab ran never shows, value
    for value, sign of zero included."""

    @pytest.fixture(scope="class", autouse=True)
    def _reap_pools(self):
        yield
        shutdown_raster_pools()

    @pytest.mark.parametrize("scene", SCENES, ids=lambda s: f"n{s[0]}")
    @pytest.mark.parametrize("dtype", [None, "float32"], ids=["f64", "f32"])
    @pytest.mark.parametrize("alpha_min", [None, 0.0], ids=["amin", "amin0"])
    @pytest.mark.parametrize(
        "shards, workers", POOLED, ids=[f"s{s}-w{w}" for s, w in POOLED]
    )
    def test_forward_and_backward_equal(
        self, scene, dtype, alpha_min, shards, workers
    ):
        n, w, h, seed = scene
        args = make_splats(n, w, h, seed)
        grad = np.random.default_rng(seed + 50).normal(size=(h, w, 3))
        cfg = RasterConfig(
            engine="fragment", fragment_shards=shards, dtype=dtype
        )
        if alpha_min is not None:
            cfg = replace(cfg, alpha_min=alpha_min)
        in_res, inproc = _run(replace(cfg, workers=1), args, w, h, grad)
        pool_res, pooled = _run(replace(cfg, workers=workers), args, w, h, grad)
        assert pool_res.image.tobytes() == in_res.image.tobytes()
        assert (
            pool_res.final_transmittance.tobytes()
            == in_res.final_transmittance.tobytes()
        )
        assert pool_res.counts == in_res.counts
        for field in GRAD_FIELDS:
            a, b = getattr(pooled, field), getattr(inproc, field)
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes(), field


def _slice_inputs(args, w, h, cfg, start_stop=None, tile_size=16):
    """The splat ids and the pair table of a tile-aligned slice of the
    intersection table."""
    means2d, conics, colors, opacities, depths, radii = args
    order = np.argsort(depths, kind="stable")
    bboxes = config_bboxes(means2d, radii, w, h, cfg)
    tile_ids, sid, tiles_x, _ = visible_intersections(
        means2d, conics, opacities, bboxes, order, w, h, cfg, tile_size
    )
    if start_stop is None:
        # the middle third, from the first tile boundary at or past a
        # third of the rows to the first at or past two thirds
        bounds = np.flatnonzero(np.diff(tile_ids)) + 1
        thirds = np.array([1, 2]) * tile_ids.size / 3
        start_stop = bounds[np.searchsorted(bounds, thirds)]
        assert start_stop[0] < start_stop[1]
    start, stop = start_stop
    pairs = pairs_for_isects(
        means2d, conics, opacities, bboxes, tile_ids[start:stop],
        sid[start:stop], tiles_x, w, h, cfg, tile_size,
    )
    return sid[start:stop], pairs


def _reduce_both_ways(args, w, h, cfg, sid_slice, pairs):
    means2d, conics, colors, opacities = args[:4]
    m_count = means2d.shape[0]
    rng = np.random.default_rng(5)
    g_flat = rng.normal(size=(w * h, 3))
    t_final = rng.uniform(0.0, 1.0, size=w * h)
    _, t_before = _transmittance_scan(pairs)

    def reduce(rid, m):
        return backward_pairs(
            means2d, conics, colors, opacities, g_flat, w, cfg.alpha_max,
            pairs, t_before=t_before, groups=(pairs.starts, pairs.counts),
            base=(g_flat[pairs.nz] @ BG) * t_final[pairs.nz],
            base_has_total=False, rid=rid, m=m,
        )

    uids, lid = local_ids(sid_slice, pairs.sid, m_count)
    return uids, reduce(pairs.sid, m_count), reduce(lid, uids.size)


class TestReductionIndexInvariance:
    """Reducing onto a slice's sorted ``uids`` equals the global-``sid``
    reduction gathered at ``uids`` — bit for bit, sign of zero included."""

    def _assert_invariant(self, uids, by_sid, by_lid, m_count):
        rest = np.setdiff1d(np.arange(m_count), uids)
        for full, local in zip(by_sid, by_lid):
            assert full.shape[0] == m_count and local.shape[0] == uids.size
            assert full[uids].tobytes() == local.tobytes()
            assert not full[rest].any()  # nothing outside the slice

    @pytest.mark.parametrize("scene", SCENES, ids=lambda s: f"n{s[0]}")
    @pytest.mark.parametrize("alpha_min", [None, 0.0], ids=["amin", "amin0"])
    def test_span_of_a_scene(self, scene, alpha_min):
        n, w, h, seed = scene
        args = make_splats(n, w, h, seed)
        cfg = RasterConfig()
        if alpha_min is not None:
            cfg = replace(cfg, alpha_min=alpha_min)
        sid_slice, pairs = _slice_inputs(args, w, h, cfg)
        assert 0 < np.unique(sid_slice).size < n and pairs.alpha.size
        uids, by_sid, by_lid = _reduce_both_ways(
            args, w, h, cfg, sid_slice, pairs
        )
        self._assert_invariant(uids, by_sid, by_lid, n)
        assert any(g.any() for g in by_lid)

    def test_empty_slice(self):
        args = make_splats(40, 32, 24, 0)
        cfg = RasterConfig()
        sid_slice, pairs = _slice_inputs(args, 32, 24, cfg, start_stop=(7, 7))
        assert sid_slice.size == 0 and pairs.alpha.size == 0
        uids, by_sid, by_lid = _reduce_both_ways(
            args, 32, 24, cfg, sid_slice, pairs
        )
        assert uids.size == 0
        self._assert_invariant(uids, by_sid, by_lid, 40)

    def test_slice_whose_splats_all_fail_alpha_min(self):
        args = list(make_splats(40, 32, 24, 0))
        args[3] = np.full(40, 1e-4)  # every alpha < 1/255: no pair survives
        cfg = RasterConfig()
        sid_slice, pairs = _slice_inputs(args, 32, 24, cfg)
        assert sid_slice.size and pairs.alpha.size == 0
        uids, by_sid, by_lid = _reduce_both_ways(
            args, 32, 24, cfg, sid_slice, pairs
        )
        assert uids.size
        self._assert_invariant(uids, by_sid, by_lid, 40)


# ---------------------------------------------------------------------------
# the forward's compaction: one gather per column
# ---------------------------------------------------------------------------

class TestPixelSortedTable:
    """:func:`_pixel_sorted` composes compaction and the pixel sort into
    one permutation; the table must equal the two-step formulation
    (compact every column, then permute every column) byte for byte."""

    @staticmethod
    def _two_step(pixel, sid, alpha, keep, n_pix):
        pix_k, sid_k, alpha_k = pixel[keep], sid[keep], alpha[keep]
        perm = _argsort_by_key(pix_k, n_pix - 1)
        counts_pix = np.bincount(pix_k, minlength=n_pix)
        nz = np.flatnonzero(counts_pix)
        seg_counts = counts_pix[nz]
        return dict(
            pixel=pix_k[perm], sid=sid_k[perm], alpha=alpha_k[perm],
            starts=np.cumsum(seg_counts) - seg_counts, counts=seg_counts,
            nz=nz,
        )

    @staticmethod
    def _cells(dtype, n_cells=5000, n_pix=70 * 50, seed=3):
        rng = np.random.default_rng(seed)
        pixel = rng.integers(0, n_pix, size=n_cells)
        sid = rng.integers(0, 150, size=n_cells)
        alpha = rng.uniform(0.0, 0.02, size=n_cells).astype(dtype)
        alpha[rng.integers(0, n_cells, size=50)] = 0.0
        return pixel, sid, alpha, n_pix

    def _assert_equal(self, pixel, sid, alpha, keep, n_pix):
        table = _pixel_sorted(pixel, sid, alpha, keep, n_pix)
        for name, want in self._two_step(
            pixel, sid, alpha, keep, n_pix
        ).items():
            got = getattr(table, name)
            assert got.dtype == want.dtype, name
            assert got.tobytes() == want.tobytes(), name

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    @pytest.mark.parametrize("alpha_min", [1.0 / 255.0, 0.0])
    def test_equals_compact_then_sort(self, dtype, alpha_min):
        pixel, sid, alpha, n_pix = self._cells(dtype)
        keep = np.flatnonzero(
            alpha >= alpha_min if alpha_min > 0 else alpha > 0.0
        )
        assert 0 < keep.size < alpha.size
        self._assert_equal(pixel, sid, alpha, keep, n_pix)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_all_kept_takes_the_same_path(self, dtype):
        pixel, sid, alpha, n_pix = self._cells(dtype)
        self._assert_equal(
            pixel, sid, alpha, np.arange(alpha.size), n_pix
        )

    @pytest.mark.parametrize("alpha_min", [None, 0.0], ids=["amin", "amin0"])
    def test_table_of_a_scene_counts_its_cells(self, alpha_min):
        n, w, h, seed = SCENES[1]
        cfg = RasterConfig()
        if alpha_min is not None:
            cfg = replace(cfg, alpha_min=alpha_min)
        sid_slice, pairs = _slice_inputs(
            make_splats(n, w, h, seed), w, h, cfg
        )
        assert pairs.isects == sid_slice.size
        assert pairs.cells >= pairs.alpha.size > 0
        assert (pairs.cells == pairs.alpha.size) == (alpha_min == 0.0)
        assert np.array_equal(pairs.pixel, np.repeat(pairs.nz, pairs.counts))


# ---------------------------------------------------------------------------
# the backward's block walk
# ---------------------------------------------------------------------------

@pytest.fixture(params=[64, 1000], ids=lambda b: f"block{b}")
def small_blocks(request, monkeypatch):
    """The suites' fixtures never reach ``BLOCK_PAIRS`` pairs, so without
    this every backward they run is a single block."""
    monkeypatch.setattr(engine, "BLOCK_PAIRS", request.param)
    return request.param


@pytest.fixture
def pooled_small_blocks(small_blocks):
    """``small_blocks`` in the pool workers too: the raster pools are
    reaped around the test, so its workers fork (the pool's start method
    where the platform has it) under the patch."""
    shutdown_raster_pools()
    yield small_blocks
    shutdown_raster_pools()


def _block_pairs(_):
    """Pool task: the backward block size a worker runs with."""
    return engine.BLOCK_PAIRS


@pytest.mark.usefixtures("small_blocks")
class TestReductionIndexInvarianceInBlocks(TestReductionIndexInvariance):
    """Why the block size reads the scene's splat count and not ``m``."""


@pytest.mark.usefixtures("pooled_small_blocks")
class TestPooledSlabsAreInProcessInBlocks(TestPooledSlabsAreInProcess):
    """Each slab's backward walks the same several blocks in a worker as
    in-process."""


@pytest.mark.usefixtures("small_blocks")
class TestBackwardParityInBlocks(equivalence.TestBackwardParity):
    pass


@pytest.mark.usefixtures("small_blocks")
class TestPipelineParityInBlocks(equivalence.TestPipelineParity):
    pass


@pytest.mark.usefixtures("small_blocks")
class TestGradcheckInBlocks(equivalence.TestVectorizedGradcheck):
    pass


@pytest.mark.usefixtures("small_blocks")
class TestFlatEnginesMatchReferenceInBlocks:
    @pytest.mark.parametrize("scene", SCENES, ids=lambda s: f"n{s[0]}")
    @pytest.mark.parametrize("flat", equivalence.FLAT_ENGINES)
    def test_all_gradient_arrays(self, scene, flat):
        n, w, h, seed = scene
        args = make_splats(n, w, h, seed)
        grad = np.random.default_rng(seed + 100).normal(size=(h, w, 3))
        _, ref = _run(RasterConfig(engine="reference"), args, w, h, grad)
        _, out = _run(equivalence.engine_config(flat), args, w, h, grad)
        for field in GRAD_FIELDS:
            np.testing.assert_allclose(
                getattr(out, field), getattr(ref, field), atol=1e-9, rtol=0,
                err_msg=field,
            )


def _whole_table(n, w, h, seed, **cfg_kw):
    """Splats, config and the whole pair table of a scene."""
    args = make_splats(n, w, h, seed)
    cfg = RasterConfig(**cfg_kw)
    _, pairs = _slice_inputs(args, w, h, cfg, start_stop=(0, None))
    return args, cfg, pairs


def _sums(args, w, h, cfg, pairs, groups=None):
    """``backward_pairs`` over the whole table, reduced by splat id."""
    rng = np.random.default_rng(5)
    g_flat = rng.normal(size=(w * h, 3))
    t_final = rng.uniform(0.0, 1.0, size=w * h)
    _, t_before = _transmittance_scan(pairs)
    return backward_pairs(
        *args[:4], g_flat, w, cfg.alpha_max, pairs, t_before=t_before,
        groups=groups or (pairs.starts, pairs.counts),
        base=(g_flat[pairs.nz] @ BG) * t_final[pairs.nz],
        base_has_total=False, rid=pairs.sid, m=args[0].shape[0],
    )


class TestBlockRule:
    def test_the_patched_suites_really_walk_several_blocks(self, small_blocks):
        for n, w, h, seed in SCENES:
            _, _, pairs = _whole_table(n, w, h, seed)
            edges, _ = _group_blocks(pairs.starts, pairs.alpha.size, n)
            assert len(edges) - 1 >= (3 if small_blocks == 64 else 2)

    def test_the_pooled_suite_walks_them_in_the_workers(
        self, pooled_small_blocks
    ):
        assert get_raster_pool(2).map(_block_pairs, range(4)) == (
            [pooled_small_blocks] * 4
        )

    def test_blocks_are_whole_groups_of_about_a_block(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_PAIRS", 100)
        counts = np.random.default_rng(0).integers(1, 30, size=400)
        starts = np.cumsum(counts) - counts
        total = int(counts.sum())
        edges, pair_edges = _group_blocks(starts, total, 10)
        assert edges[0] == 0 and edges[-1] == starts.size
        assert pair_edges[0] == 0 and pair_edges[-1] == total
        assert pair_edges[:-1] == starts[edges[:-1]].tolist()
        sizes = np.diff(pair_edges)
        # a block ends with the group that reaches the next multiple
        assert sizes.min() > 0 and sizes.max() < 100 + 2 * 30
        assert len(sizes) == pytest.approx(total / 100, abs=1)

    def test_under_one_and_a_half_blocks_is_not_cut(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_PAIRS", 100)
        starts = np.arange(0, 149, 2)
        assert _group_blocks(starts, 149, 1) == ([0, 75], [0, 149])
        assert len(_group_blocks(np.arange(0, 150, 2), 150, 1)[0]) == 3

    def test_a_group_larger_than_a_block_stays_whole(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_PAIRS", 100)
        counts = np.array([10, 450, 10, 95, 5, 30])
        starts = np.cumsum(counts) - counts
        edges, pair_edges = _group_blocks(starts, 600, 1)
        assert edges == [0, 2, 4, 6]
        assert pair_edges == [0, 460, 565, 600]

    def test_many_splats_take_the_larger_block(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_PAIRS", 100)
        starts = np.arange(0, 4000, 4)
        few, _ = _group_blocks(starts, 4000, 25)  # 4 * 25 == BLOCK_PAIRS
        many, _ = _group_blocks(starts, 4000, 250)  # blocks of 1000
        assert len(few) - 1 == 40 and len(many) - 1 == 4

    @pytest.mark.parametrize("scene", SCENES[:2], ids=lambda s: f"n{s[0]}")
    def test_cut_at_every_group_boundary(self, scene, monkeypatch):
        n, w, h, seed = scene
        args, cfg, pairs = _whole_table(n, w, h, seed)
        one_block = _sums(args, w, h, cfg, pairs)
        monkeypatch.setattr(
            engine, "_group_blocks",
            lambda starts, num_pairs, num_splats: (
                list(range(starts.size + 1)), [*starts.tolist(), num_pairs]
            ),
        )
        every_group = _sums(args, w, h, cfg, pairs)
        assert every_group.tobytes() == _sums(args, w, h, cfg, pairs).tobytes()
        scale = np.abs(one_block).max(axis=1, keepdims=True)
        assert np.abs(every_group - one_block).max() <= 1e-12 * scale.max()
        assert (np.abs(every_group - one_block) <= 1e-12 * scale).all()

    def test_group_values_repeat_to_the_pair_values(self):
        """What the kernel forms per group and repeats — the image
        gradient and the pixel centre — has the bits of the per-pair
        ``%`` / ``//`` / gather, for pixel segments and for groups that
        split them (fragments)."""
        n, w, h, seed = SCENES[1]
        _, _, pairs = _whole_table(n, w, h, seed)
        pix = pairs.pixel
        g_col = np.random.default_rng(2).normal(size=w * h)
        first = np.zeros(pix.size, dtype=bool)
        first[pairs.starts] = True
        first[::3] = True  # cut inside segments too
        split = np.flatnonzero(first)
        for starts, counts in (
            (pairs.starts, pairs.counts),
            (split, np.diff(np.append(split, pix.size))),
        ):
            head = pix[starts]
            for per_group, per_pair in (
                ((head % w) + 0.5, (pix % w) + 0.5),
                ((head // w) + 0.5, (pix // w) + 0.5),
                (g_col[head], g_col[pix]),
            ):
                assert (
                    np.repeat(per_group, counts).tobytes()
                    == per_pair.tobytes()
                )


class TestPerSplatFactors:
    """The factors :func:`set_grads` applies per splat, at their edges."""

    # the loop oracle forms alpha / 0 under its np.where
    @pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
    @pytest.mark.parametrize("flat", equivalence.FLAT_ENGINES)
    @pytest.mark.parametrize("alpha_min", [None, 0.0], ids=["amin", "amin0"])
    def test_edge_splats_get_finite_gradients_and_exact_zeros(
        self, flat, alpha_min, small_blocks
    ):
        n, w, h = 40, 32, 24
        args = [a.copy() for a in make_splats(n, w, h, 0)]
        means2d, conics, colors, opacities, depths, radii = args
        opacities[0] = 0.0  # never a pair; 1 / o must not be formed
        means2d[1] = (-500.0, -500.0)  # off screen: no intersection
        opacities[2] = 1.0  # the alpha cap binds at its centre
        means2d[2] = (w / 2, h / 2)
        depths[2] = 0.5  # in front, so the capped pairs carry weight
        cfg = RasterConfig()
        if alpha_min is not None:
            cfg = replace(cfg, alpha_min=alpha_min)
        grad = np.random.default_rng(9).normal(size=(h, w, 3))
        res, ref = _run(replace(cfg, engine="reference"), args, w, h, grad)
        _, out = _run(equivalence.engine_config(flat, cfg), args, w, h, grad)
        for field in GRAD_FIELDS:
            got, want = getattr(out, field), getattr(ref, field)
            assert np.isfinite(got).all(), field
            np.testing.assert_allclose(
                got, want, atol=1e-9, rtol=0, err_msg=field
            )
            # exact zeros where the loop (and the parent's kernel) had them
            assert not got[want == 0].any(), field
            assert not got[:2].any(), field


class TestCountsOnEveryEngine:
    """``RasterResult.counts`` is summed from the tables the slices built,
    so every scheduler reports what ``vectorized`` reads off its own."""

    @pytest.mark.parametrize("cfg", [
        RasterConfig(engine="fragment", workers=0, fragment_shards=1),
        RasterConfig(engine="fragment", workers=0, fragment_shards=3),
    ], ids=lambda c: f"{c.engine}-w{c.workers}-s{c.fragment_shards}")
    def test_counts_equal_the_vectorized_table(self, cfg):
        n, w, h, seed = SCENES[2]
        args = make_splats(n, w, h, seed)
        vec = get_forward("vectorized")(*args, width=w, height=h)
        saved = vec.saved
        assert vec.counts == (
            saved.pairs.cells, saved.num_pairs, saved.num_isects, 0
        )
        assert vec.counts.cells > vec.counts.pairs > vec.counts.isects > 0
        res = get_forward(cfg.engine)(*args, width=w, height=h, config=cfg)
        assert res.saved is None and res.counts == vec.counts

    def test_the_loop_builds_no_table(self):
        args = make_splats(40, 32, 24, 0)
        assert get_forward("reference")(*args, width=32, height=24).counts is None

    def test_empty_slices_still_count(self):
        args = list(make_splats(40, 32, 24, 0))
        args[3] = np.full(40, 1e-4)  # every cell below alpha_min
        for cfg in (
            RasterConfig(engine="vectorized"),
            RasterConfig(engine="fragment", fragment_shards=2),
        ):
            counts = get_forward(cfg.engine)(
                *args, width=32, height=24, config=cfg
            ).counts
            assert counts.pairs == 0 and counts.cells > counts.isects > 0


class TestIsectEdgeCases:
    """Degenerate intersection tables: the clipped rects and the pair
    builder must agree on empty and single-tile inputs."""

    def _table(self, means2d, radii, width, height, depths=None):
        bboxes = splat_bboxes(means2d, radii, width, height)
        order = (
            None if depths is None else np.argsort(depths, kind="stable")
        )
        tile_ids, sid, tiles_x, _ = tile_intersections(
            bboxes, width, height, 16, order=order
        )
        return bboxes, tile_ids, sid, tiles_x

    def test_zero_intersections(self):
        """Every splat off-screen: empty table end to end."""
        means2d = np.array([[-40.0, -40.0], [200.0, 200.0]])
        radii = np.array([2.0, 2.0])
        bboxes, tile_ids, sid, tiles_x = self._table(means2d, radii, 64, 48)
        assert tile_ids.size == 0
        rx0, rx1, ry0, ry1 = clip_isect_rects(
            bboxes, tile_ids, sid, tiles_x, 16
        )
        assert rx0.size == rx1.size == ry0.size == ry1.size == 0
        pairs = pairs_for_isects(
            means2d, np.full((2, 3), 1.0), np.full(2, 0.9), bboxes,
            tile_ids, sid, tiles_x, 64, 48, RasterConfig(), 16,
        )
        assert pairs.pixel.size == 0 and pairs.nz.size == 0

    def test_single_tile_image(self):
        """A 16x16 image is one tile: every intersection and pair lands
        in tile 0, and the rects clip to the image bounds."""
        args = make_splats(20, 16, 16, 12)
        means2d, conics, _, opacities, depths, radii = args
        bboxes, tile_ids, sid, tiles_x = self._table(
            means2d, radii, 16, 16, depths
        )
        assert tiles_x == 1
        assert tile_ids.size > 0 and np.all(tile_ids == 0)
        rx0, rx1, ry0, ry1 = clip_isect_rects(
            bboxes, tile_ids, sid, tiles_x, 16
        )
        assert np.all(rx0 >= 0) and np.all(rx1 <= 16)
        assert np.all(ry0 >= 0) and np.all(ry1 <= 16)
        pairs = pairs_for_isects(
            means2d, conics, opacities, bboxes, tile_ids, sid, tiles_x,
            16, 16, RasterConfig(), 16,
        )
        assert np.all(pairs.pixel < 16 * 16)
        # segment structure: pixel is nz repeated by counts, ascending
        np.testing.assert_array_equal(
            pairs.pixel, np.repeat(pairs.nz, pairs.counts)
        )
        assert np.all(np.diff(pairs.nz) > 0)
