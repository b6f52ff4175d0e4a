"""Exact equalities of the pair kernel.

The parity suites compare engines at ``atol=1e-9`` — a tolerance a
diverging rewrite of the pair arithmetic would pass. These tests assert
exact equalities instead: the order splats come in never shows, the
kernel's sums do not depend on the index they are reduced onto, its
blocks and its pixel sort are the formulations they replace, byte for
byte, and a forward counts the table it builds. Equalities only, so they
mean the same on a 1-CPU runner.
"""

import threading
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

import test_engine_equivalence as equivalence
from repro import pool
from repro.render import RasterConfig, engine
from repro.render.engine import (
    _argsort_by_key,
    _pixel_sorted,
    _segment_blocks,
    _transmittance_scan,
    backward_pairs,
    clip_isect_rects,
    get_backward,
    get_forward,
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


# ---------------------------------------------------------------------------
# the order splats come in, and the index their sums reduce onto
# ---------------------------------------------------------------------------

#: Scenes of seven tile rows: every schedule of :data:`THREADED` cuts each
#: into at least two tile-row blocks per thread.
TALL_SCENES = [
    # (n, width, height, seed)
    (150, 48, 100, 1),
    (400, 96, 112, 2),
    (300, 40, 100, 5),
]

#: ``(BLOCK_CELLS, cpus)`` of the threaded runs: a tile row per block on
#: two and on three block threads, and blocks of a few rows on two.
THREADED = [(64, 2), (64, 3), (8000, 2)]


@contextmanager
def _schedule(block_cells, cpus):
    """``BLOCK_CELLS`` and the process's CPU count patched for the body."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "BLOCK_CELLS", block_cells)
        patch.setattr(pool, "usable_cpus", lambda: cpus)
        yield


class TestSplatOrderNeverShows:
    """The table sorts a tile's intersections by depth, and every sum over
    a splat adds its pairs in table order, so the order the splats come in
    never shows: permuted rows (all depths distinct) render the same
    bytes, count the same table and get their own gradients back, value
    for value, sign of zero included. The permuted run's forward is cut
    into tile-row blocks on the block threads, the original's runs as one
    block inline; the CPU count is patched, so the threads run on a 1-CPU
    machine too."""

    @pytest.mark.parametrize("scene", TALL_SCENES, ids=lambda s: f"n{s[0]}")
    @pytest.mark.parametrize("dtype", [None, "float32"], ids=["f64", "f32"])
    @pytest.mark.parametrize("alpha_min", [None, 0.0], ids=["amin", "amin0"])
    @pytest.mark.parametrize(
        "block_cells, cpus", THREADED,
        ids=[f"cells{b}-cpus{c}" for b, c in THREADED],
    )
    def test_forward_and_backward_equal(
        self, scene, dtype, alpha_min, block_cells, cpus
    ):
        n, w, h, seed = scene
        args = make_splats(n, w, h, seed)
        assert np.unique(args[4]).size == n
        perm = np.random.default_rng(seed + 7).permutation(n)
        grad = np.random.default_rng(seed + 50).normal(size=(h, w, 3))
        cfg = RasterConfig(dtype=dtype)
        if alpha_min is not None:
            cfg = replace(cfg, alpha_min=alpha_min)
        with _schedule(block_cells, 1):
            res, grads = _run(cfg, args, w, h, grad)
        with _schedule(block_cells, cpus):
            p_res, p_grads = _run(
                cfg, tuple(a[perm] for a in args), w, h, grad
            )
        assert p_res.image.tobytes() == res.image.tobytes()
        assert (
            p_res.final_transmittance.tobytes()
            == res.final_transmittance.tobytes()
        )
        assert p_res.counts == res.counts
        for field in GRAD_FIELDS:
            a, b = getattr(p_grads, field), getattr(grads, field)[perm]
            assert a.dtype == b.dtype
            assert a.tobytes() == b.tobytes(), field


def _reduce_both_ways(args, w, h, cfg, pairs):
    """``backward_pairs`` over ``pairs`` as built, and over the same table
    with its splats renumbered (the splat arrays reordered to match):
    ``(perm, by_sid, renumbered)``, row ``i`` of the reordered arrays
    holding splat ``perm[i]``."""
    m_count = args[0].shape[0]
    perm = np.random.default_rng(3).permutation(m_count)
    rng = np.random.default_rng(5)
    g_flat = rng.normal(size=(w * h, 3))
    t_final = rng.uniform(0.0, 1.0, size=w * h)
    _, t_before = _transmittance_scan(pairs)
    base = (g_flat[pairs.nz] @ BG) * t_final[pairs.nz]

    def reduce(splats, table):
        return backward_pairs(
            *splats, g_flat, w, cfg.alpha_max, table, t_before=t_before,
            base=base,
        )

    renumbered = replace(pairs, sid=np.argsort(perm)[pairs.sid])
    return perm, reduce(args[:4], pairs), reduce(
        [a[perm] for a in args[:4]], renumbered
    )


class TestReductionIndexInvariance:
    """Reducing a slice of the table onto renumbered splats gives the
    renumbered sums — bit for bit, sign of zero included — and exact
    zeros for every splat outside the slice."""

    def _assert_invariant(self, sid_slice, perm, by_sid, renumbered):
        m_count = perm.size
        assert by_sid.shape == renumbered.shape == (9, m_count)
        assert renumbered[:, np.argsort(perm)].tobytes() == by_sid.tobytes()
        rest = np.setdiff1d(np.arange(m_count), sid_slice)
        assert not by_sid[:, rest].any()  # nothing outside the slice

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
        perm, by_sid, renumbered = _reduce_both_ways(args, w, h, cfg, pairs)
        self._assert_invariant(sid_slice, perm, by_sid, renumbered)
        assert by_sid.any()

    def test_empty_slice(self):
        args = make_splats(40, 32, 24, 0)
        cfg = RasterConfig()
        sid_slice, pairs = _slice_inputs(args, 32, 24, cfg, start_stop=(7, 7))
        assert sid_slice.size == 0 and pairs.alpha.size == 0
        perm, by_sid, renumbered = _reduce_both_ways(args, 32, 24, cfg, pairs)
        self._assert_invariant(sid_slice, perm, by_sid, renumbered)

    def test_slice_whose_splats_all_fail_alpha_min(self):
        args = list(make_splats(40, 32, 24, 0))
        args[3] = np.full(40, 1e-4)  # every alpha < 1/255: no pair survives
        cfg = RasterConfig()
        sid_slice, pairs = _slice_inputs(args, 32, 24, cfg)
        assert sid_slice.size and pairs.alpha.size == 0
        perm, by_sid, renumbered = _reduce_both_ways(args, 32, 24, cfg, pairs)
        self._assert_invariant(sid_slice, perm, by_sid, renumbered)


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


@pytest.mark.usefixtures("small_blocks")
class TestReductionIndexInvarianceInBlocks(TestReductionIndexInvariance):
    """Each block's ``bincount`` reduces onto the renumbered splats too."""


@pytest.mark.usefixtures("small_blocks")
class TestSplatOrderNeverShowsInBlocks(TestSplatOrderNeverShows):
    """Both backwards walk the same several blocks, one table order."""


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


def _sums(args, w, h, cfg, pairs):
    """``backward_pairs`` over the whole table."""
    rng = np.random.default_rng(5)
    g_flat = rng.normal(size=(w * h, 3))
    t_final = rng.uniform(0.0, 1.0, size=w * h)
    _, t_before = _transmittance_scan(pairs)
    return backward_pairs(
        *args[:4], g_flat, w, cfg.alpha_max, pairs, t_before=t_before,
        base=(g_flat[pairs.nz] @ BG) * t_final[pairs.nz],
    )


class TestBlockRule:
    def test_the_patched_suites_really_walk_several_blocks(self, small_blocks):
        for n, w, h, seed in SCENES:
            _, _, pairs = _whole_table(n, w, h, seed)
            edges, _ = _segment_blocks(pairs.starts, pairs.alpha.size, n)
            assert len(edges) - 1 >= (3 if small_blocks == 64 else 2)

    def test_the_threaded_suite_walks_them_on_the_threads(
        self, small_blocks, monkeypatch
    ):
        """Each of :data:`THREADED` cuts each of :data:`TALL_SCENES` into
        at least two tile-row blocks per thread, builds them on the block
        threads, and the backward walks several blocks."""
        cuts, names, walks = [], set(), []
        real_cut = engine._tile_row_blocks
        real_build = engine.pairs_for_isects
        real_walk = engine._segment_blocks

        def cut(*args):
            out = real_cut(*args)
            cuts.append(len(out[0]) - 1)
            return out

        def build(*args, **kwargs):
            names.add(threading.current_thread().name)
            return real_build(*args, **kwargs)

        def walk(*args):
            out = real_walk(*args)
            walks.append(len(out[0]) - 1)
            return out

        monkeypatch.setattr(engine, "_tile_row_blocks", cut)
        monkeypatch.setattr(engine, "pairs_for_isects", build)
        monkeypatch.setattr(engine, "_segment_blocks", walk)
        for n, w, h, seed in TALL_SCENES:
            args = make_splats(n, w, h, seed)
            grad = np.ones((h, w, 3))
            for block_cells, cpus in THREADED:
                for seen in (cuts, names, walks):
                    seen.clear()
                with _schedule(block_cells, cpus):
                    _run(RasterConfig(), args, w, h, grad)
                assert len(cuts) == 1 and cuts[0] >= 2 * cpus
                assert names and all(
                    name.startswith("repro-block") for name in names
                )
                assert walks == [walks[0]]
                assert walks[0] >= (3 if small_blocks == 64 else 2)

    def test_blocks_are_whole_groups_of_about_a_block(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_PAIRS", 100)
        counts = np.random.default_rng(0).integers(1, 30, size=400)
        starts = np.cumsum(counts) - counts
        total = int(counts.sum())
        edges, pair_edges = _segment_blocks(starts, total, 10)
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
        assert _segment_blocks(starts, 149, 1) == ([0, 75], [0, 149])
        assert len(_segment_blocks(np.arange(0, 150, 2), 150, 1)[0]) == 3

    def test_a_group_larger_than_a_block_stays_whole(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_PAIRS", 100)
        counts = np.array([10, 450, 10, 95, 5, 30])
        starts = np.cumsum(counts) - counts
        edges, pair_edges = _segment_blocks(starts, 600, 1)
        assert edges == [0, 2, 4, 6]
        assert pair_edges == [0, 460, 565, 600]

    def test_many_splats_take_the_larger_block(self, monkeypatch):
        monkeypatch.setattr(engine, "BLOCK_PAIRS", 100)
        starts = np.arange(0, 4000, 4)
        few, _ = _segment_blocks(starts, 4000, 25)  # 4 * 25 == BLOCK_PAIRS
        many, _ = _segment_blocks(starts, 4000, 250)  # blocks of 1000
        assert len(few) - 1 == 40 and len(many) - 1 == 4

    @pytest.mark.parametrize("scene", SCENES[:2], ids=lambda s: f"n{s[0]}")
    def test_cut_at_every_group_boundary(self, scene, monkeypatch):
        n, w, h, seed = scene
        args, cfg, pairs = _whole_table(n, w, h, seed)
        one_block = _sums(args, w, h, cfg, pairs)
        monkeypatch.setattr(
            engine, "_segment_blocks",
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
        """What the kernel forms per segment from ``nz`` and repeats — the
        image gradient and the pixel centre — has the bits of the per-pair
        ``%`` / ``//`` / gather."""
        n, w, h, seed = SCENES[1]
        _, _, pairs = _whole_table(n, w, h, seed)
        pix, head = pairs.pixel, pairs.nz
        g_col = np.random.default_rng(2).normal(size=w * h)
        assert head.tobytes() == pix[pairs.starts].tobytes()
        for per_segment, per_pair in (
            ((head % w) + 0.5, (pix % w) + 0.5),
            ((head // w) + 0.5, (pix // w) + 0.5),
            (g_col[head], g_col[pix]),
        ):
            assert (
                np.repeat(per_segment, pairs.counts).tobytes()
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
    """``RasterResult.counts`` is read off the table the forward built."""

    def test_counts_equal_the_saved_table(self):
        n, w, h, seed = SCENES[2]
        args = make_splats(n, w, h, seed)
        vec = get_forward("vectorized")(*args, width=w, height=h)
        saved = vec.saved
        assert vec.counts == (
            saved.pairs.cells, saved.pairs.alpha.size, saved.pairs.isects, 0,
            saved.pairs.splats,
        )
        assert vec.counts.cells > vec.counts.pairs > vec.counts.isects > 0
        # every splat with a pair is in the table; the table holds splats
        # whose pairs all fell below alpha_min too
        assert np.unique(saved.pairs.sid).size <= vec.counts.splats <= n

    def test_the_loop_builds_no_table(self):
        args = make_splats(40, 32, 24, 0)
        assert get_forward("reference")(*args, width=32, height=24).counts is None

    def test_empty_slices_still_count(self):
        args = list(make_splats(40, 32, 24, 0))
        args[3] = np.full(40, 1e-4)  # every cell below alpha_min
        counts = get_forward("vectorized")(*args, width=32, height=24).counts
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

    def test_a_large_splat_covers_every_tile(self):
        """A splat wider than a 64x64 image is one intersection per tile
        of the 4x4 grid, in row-major order."""
        _, tile_ids, sid, tiles_x = self._table(
            np.array([[32.0, 32.0]]), np.array([30.0]), 64, 64
        )
        assert tiles_x == 4
        np.testing.assert_array_equal(tile_ids, np.arange(16))
        np.testing.assert_array_equal(sid, np.zeros(16, dtype=np.int64))

    def test_ids_ascend_within_a_tile_in_input_order(self):
        """Without an ``order`` each tile lists its splat ids ascending."""
        rng = np.random.default_rng(8)
        means2d = rng.uniform(0, 64, size=(40, 2))
        _, tile_ids, sid, _ = self._table(means2d, np.full(40, 10.0), 64, 64)
        assert np.all(np.diff(tile_ids) >= 0)
        same_tile = np.diff(tile_ids) == 0
        assert same_tile.any() and np.all(np.diff(sid)[same_tile] > 0)

    def test_full_image_splats_boxes_cover_every_tile(self):
        """``full_image_splats`` boxes put every splat in every tile."""
        means2d, _, _, _, _, radii = make_splats(15, 70, 50, 11)
        cfg = RasterConfig(full_image_splats=True)
        tile_ids, sid, tiles_x, tiles_y = tile_intersections(
            config_bboxes(means2d, radii, 70, 50, cfg), 70, 50
        )
        num_tiles = tiles_x * tiles_y
        np.testing.assert_array_equal(
            tile_ids, np.repeat(np.arange(num_tiles), 15)
        )
        np.testing.assert_array_equal(sid, np.tile(np.arange(15), num_tiles))

    def test_a_small_splat_lands_in_one_tile(self):
        """A splat well inside a tile is one intersection, with that
        tile's id; a 64x64 image is a 4x4 grid."""
        _, tile_ids, sid, tiles_x = self._table(
            np.array([[8.0, 8.0], [40.0, 24.0]]), np.array([2.0, 2.0]), 64, 64
        )
        assert tiles_x == 4
        np.testing.assert_array_equal(tile_ids, [0, 1 * 4 + 2])
        np.testing.assert_array_equal(sid, [0, 1])

    def test_intersections_grow_with_radius(self):
        means2d = np.random.default_rng(7).uniform(0, 64, size=(30, 2))
        _, small, _, _ = self._table(means2d, np.full(30, 2.0), 64, 64)
        _, large, _, _ = self._table(means2d, np.full(30, 20.0), 64, 64)
        assert large.size > small.size

    def test_edge_tiles_round_up_at_the_default_tile_size(self):
        """The default tile edge is 16 px, and a partial edge tile counts:
        70x50 is a 5x4 grid."""
        assert engine.TILE_SIZE == 16
        tile_ids, _, tiles_x, tiles_y = tile_intersections(
            np.array([[64, 70, 48, 50]]), 70, 50
        )
        assert (tiles_x, tiles_y) == (5, 4)
        np.testing.assert_array_equal(tile_ids, [3 * 5 + 4])  # the last
