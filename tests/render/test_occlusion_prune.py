"""The tile-level occlusion prune of the flat raster engines.

``engine.prune_occluded`` drops, from each tile's depth-sorted list, the
intersections that provably blend against a transmittance below
``2**T_MIN_LOG2`` at every pixel of the tile. These tests pin what makes
it a replacement rather than a knob: it is sound (nothing it drops could
have mattered, outputs stay inside the documented bounds of the unpruned
run), it is a strict no-op — same array objects — where no tile
saturates, its bound counts exactly the intersections the docstring says,
every flat engine applies it the same way, and it collapses the pair
table of the frames it was written for.
"""

import os
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np
import pytest

from repro import pool
from repro.render import RasterConfig, engine, render
from repro.render.backward import rasterize_backward
from repro.render.engine import (
    T_MIN_LOG2,
    get_backward,
    get_forward,
    pairs_for_isects,
    prune_occluded,
    rasterize_backward_vectorized,
    rasterize_vectorized,
    tile_intersections,
)
from repro.render.rasterize import config_bboxes, rasterize

from test_engine_equivalence import make_splats

ATOL = 1e-9
T_MIN = 2.0**T_MIN_LOG2
GRAD_FIELDS = ("means2d", "conics", "colors", "opacities", "mean2d_abs")
BG = np.array([0.2, 0.4, 0.6])

CONFIGS = [
    RasterConfig(),
    RasterConfig(alpha_min=0.0),
    RasterConfig(alpha_min=0.0, full_image_splats=True),
]


def _blobs(rng, n, width, height, sigma_lo, sigma_hi, radius_sigmas=3.0):
    """``n`` near-opaque anisotropic splats centred inside the image."""
    means2d = rng.uniform([0, 0], [width, height], size=(n, 2))
    sx = rng.uniform(sigma_lo, sigma_hi, size=n)
    sy = sx * rng.uniform(0.6, 1.0, size=n)
    theta = rng.uniform(0, np.pi, size=n)
    cth, sth = np.cos(theta), np.sin(theta)
    inv_a, inv_b = 1 / sx**2, 1 / sy**2
    conics = np.stack(
        [
            cth**2 * inv_a + sth**2 * inv_b,
            cth * sth * (inv_a - inv_b),
            sth**2 * inv_a + cth**2 * inv_b,
        ],
        axis=1,
    )
    return (
        means2d, conics, rng.uniform(0, 1, size=(n, 3)),
        rng.uniform(0.9, 1.0, size=n), rng.uniform(1, 30, size=n),
        radius_sigmas * sx,
    )


def saturated_splats(width, height, seed, n_small=150, n_mid=80, n_big=60):
    """``make_splats`` clutter, mid-sized opaque splats whose boxes cover
    some tiles wholly and others in part, and image-sized ones — all at
    random depths: most tiles go opaque part-way down their list."""
    rng = np.random.default_rng(seed + 1000)
    groups = (
        make_splats(n_small, width, height, seed),
        _blobs(rng, n_mid, width, height, 5.0, 14.0),
        _blobs(rng, n_big, width, height, 40.0, 120.0),
    )
    return tuple(np.concatenate(column) for column in zip(*groups))


def _identity(means2d, conics, opacities, bboxes, tile_ids, sid_isect, *rest):
    return tile_ids, sid_isect


@contextmanager
def _unpruned(monkeypatch):
    """Context in which every flat engine composites the full table."""
    with monkeypatch.context() as patch:
        patch.setattr(engine, "prune_occluded", _identity)
        yield


def _table(args, width, height, config, tile_size=16):
    """``(bboxes, tile_ids, sid, tiles_x)`` of the unpruned sorted table."""
    means2d, _, _, _, depths, radii = args
    order = np.argsort(depths, kind="stable")
    bboxes = config_bboxes(means2d, radii, width, height, config)
    tile_ids, sid, tiles_x, _ = tile_intersections(
        bboxes, width, height, tile_size, order=order
    )
    return bboxes, tile_ids, sid, tiles_x


def _prune(args, width, height, config, tile_size=16):
    bboxes, tile_ids, sid, tiles_x = _table(args, width, height, config)
    out = prune_occluded(
        args[0], args[1], args[3], bboxes, tile_ids, sid, tiles_x,
        width, height, config, tile_size,
    )
    return (tile_ids, sid), out


def _run(args, width, height, config, grad_image, fwd=rasterize_vectorized,
         bwd=rasterize_backward_vectorized):
    res = fwd(*args, width=width, height=height, background=BG, config=config)
    grads = bwd(
        args[0], args[1], args[2], args[3], res, grad_image, background=BG,
        config=config,
    )
    return res, grads


def crowded_splats(width, height, seed, n_small=100, n_mid=500):
    """No image-sized splats: tiles saturate only through many mid-sized
    ones, each covering a few tiles wholly and its border tiles in part.
    Their boxes are cut at 1.5 sigma, where alpha is still 0.3: a border
    tile's pairs are strong where they exist and absent elsewhere."""
    rng = np.random.default_rng(seed + 2000)
    groups = (
        make_splats(n_small, width, height, seed),
        _blobs(rng, n_mid, width, height, 10.0, 22.0, radius_sigmas=1.5),
    )
    return tuple(np.concatenate(column) for column in zip(*groups))


def _cfg_id(cfg):
    return f"amin{cfg.alpha_min:.3f}-full{int(cfg.full_image_splats)}"


SOUNDNESS_SCENES = [
    pytest.param(saturated_splats, 70, 50, seed, cfg, id=f"wide-{seed}-{_cfg_id(cfg)}")
    for seed in (0, 1, 2) for cfg in CONFIGS
] + [
    pytest.param(crowded_splats, 112, 80, seed, CONFIGS[0], id=f"crowded-{seed}")
    for seed in (0, 1)
]


class TestSoundness:
    @pytest.mark.parametrize("make, w, h, seed, cfg", SOUNDNESS_SCENES)
    def test_dropped_pairs_blend_against_nothing(self, make, w, h, seed, cfg):
        args = make(w, h, seed)
        bboxes, tile_ids, sid, tiles_x = _table(args, w, h, cfg)
        _, (kept_tiles, kept_sid) = _prune(args, w, h, cfg)
        assert 0 < kept_tiles.size < tile_ids.size

        m = args[0].shape[0]
        dropped = np.setdiff1d(tile_ids * m + sid, kept_tiles * m + kept_sid)
        assert dropped.size == tile_ids.size - kept_tiles.size
        # every pair of the full table, with its true transmittance
        pairs = pairs_for_isects(
            args[0], args[1], args[3], bboxes, tile_ids, sid, tiles_x,
            w, h, cfg, 16,
        )
        _, t_before = engine._transmittance_scan(pairs)
        pair_tile = (pairs.pixel // w // 16) * tiles_x + (pairs.pixel % w) // 16
        of_dropped = np.isin(pair_tile * m + pairs.sid, dropped)
        assert of_dropped.any()
        assert t_before[of_dropped].max() < T_MIN
        # per pixel their weights sum to at most 2^-40: that is the whole
        # change of the transmittance, and of the image once weighted by
        # (colour - background)
        weight = (t_before * pairs.alpha)[of_dropped]
        pix = pairs.pixel[of_dropped]
        assert np.bincount(pix, weights=weight, minlength=w * h).max() <= T_MIN
        shift = args[2][pairs.sid[of_dropped]] - BG
        for k in range(3):
            d_image = np.bincount(pix, weights=weight * shift[:, k])
            assert np.abs(d_image).max() <= T_MIN * np.abs(args[2] - BG).max()

    @pytest.mark.parametrize("cfg", CONFIGS, ids=_cfg_id)
    def test_outputs_within_documented_bounds(self, cfg, monkeypatch):
        w, h = 70, 50
        args = saturated_splats(w, h, 3)
        grad_image = np.random.default_rng(9).uniform(-1, 1, size=(h, w, 3))
        res, grads = _run(args, w, h, cfg, grad_image)
        with _unpruned(monkeypatch):
            full, full_grads = _run(args, w, h, cfg, grad_image)
        assert res.saved.num_pairs < full.saved.num_pairs
        assert res.saved.num_pruned > 0 and full.saved.num_pruned == 0
        assert (
            res.saved.num_isects + res.saved.num_pruned
            == full.saved.num_isects
        )

        # the two runs also round differently: the transmittance scan is
        # one cumsum of log2(1 - alpha) over the whole (shorter or longer)
        # pair table, good to eps * |running sum| in log2 units
        rounding = np.finfo(np.float64).eps * full.saved.num_pairs * 8.0
        c_span = np.abs(args[2] - BG).max()
        assert (
            np.abs(res.image - full.image).max()
            <= T_MIN * c_span + rounding
        )
        d_trans = res.final_transmittance - full.final_transmittance
        assert np.abs(d_trans).max() <= T_MIN + rounding
        np.testing.assert_array_equal(res.order, full.order)
        np.testing.assert_array_equal(res.bboxes, full.bboxes)

        # a kept pair's dL/dalpha moves by <= 2^-40 |g|_1 max|c - bg| /
        # (1 - alpha_max); a splat sums at most one pair per pixel, each
        # scaled by at most the chain-rule factor of its field
        per_pair = T_MIN * 3.0 * c_span / (1.0 - cfg.alpha_max)
        reach = np.hypot(w, h) + np.abs(args[0]).max()
        chain = {
            "colors": 1.0, "opacities": 1.0, "conics": reach**2,
            "means2d": 2.0 * reach * np.abs(args[1]).max(),
        }
        chain["mean2d_abs"] = 2.0 * chain["means2d"]
        for field in GRAD_FIELDS:
            got, want = getattr(grads, field), getattr(full_grads, field)
            diff = np.abs(got - want).max()
            assert diff <= w * h * per_pair * chain[field], field
            # that worst case is never approached: the runs agree to the
            # parity tolerance, relative to the field's scale (the wide
            # splats of this scene have conic gradients of order 1e4)
            assert diff <= ATOL * max(1.0, np.abs(want).max()), field

    def test_dropped_splats_get_exactly_zero_gradient(self):
        w, h = 32, 32
        args = saturated_splats(w, h, 4, n_small=60, n_mid=40, n_big=80)
        cfg = RasterConfig()
        (_, sid), (_, kept_sid) = _prune(args, w, h, cfg)
        gone = np.setdiff1d(sid, kept_sid)
        assert gone.size > 0
        _, grads = _run(args, w, h, cfg, np.ones((h, w, 3)))
        for field in GRAD_FIELDS:
            assert not np.any(getattr(grads, field)[gone]), field


class TestNoOp:
    @pytest.mark.parametrize("cfg", CONFIGS[:2] + [RasterConfig(dtype="float32")],
                             ids=["default", "alpha_min0", "float32"])
    @pytest.mark.parametrize("scene", [(150, 70, 50, 1), (400, 96, 80, 2)],
                             ids=lambda s: f"n{s[0]}")
    def test_unsaturated_scene_is_untouched(self, scene, cfg, monkeypatch):
        n, w, h, seed = scene
        args = make_splats(n, w, h, seed)
        (tile_ids, sid), (out_tiles, out_sid) = _prune(args, w, h, cfg)
        assert out_tiles is tile_ids and out_sid is sid

        grad_image = np.random.default_rng(9).uniform(-1, 1, size=(h, w, 3))
        res, grads = _run(args, w, h, cfg, grad_image)
        with _unpruned(monkeypatch):
            full, full_grads = _run(args, w, h, cfg, grad_image)
        assert res.saved.num_pruned == 0
        assert np.array_equal(res.image, full.image)
        assert np.array_equal(res.final_transmittance, full.final_transmittance)
        for name in ("pixel", "sid", "alpha", "starts", "counts", "nz"):
            assert np.array_equal(
                getattr(res.saved.pairs, name), getattr(full.saved.pairs, name)
            ), name
        assert np.array_equal(res.saved.t_before, full.saved.t_before)
        for field in GRAD_FIELDS:
            assert np.array_equal(
                getattr(grads, field), getattr(full_grads, field)
            ), field

    def test_empty_and_offscreen_tables(self):
        cfg = RasterConfig()
        empty = np.empty(0, dtype=np.int64)
        out = prune_occluded(
            np.zeros((0, 2)), np.zeros((0, 3)), np.zeros(0),
            np.zeros((0, 4), dtype=np.int64), empty, empty, 2, 32, 32, cfg, 16,
        )
        assert out[0] is empty and out[1] is empty
        res = rasterize_vectorized(
            np.full((3, 2), 500.0), np.tile([1.0, 0.0, 1.0], (3, 1)),
            np.ones((3, 3)), np.ones(3), np.arange(3.0), np.ones(3),
            width=32, height=32,
        )
        assert res.saved.num_isects == 0 and res.saved.num_pruned == 0


def _stack(fronts, width, height, num_back=5, **front):
    """``fronts`` identical splats over ``num_back`` ordinary ones.

    The front splats default to a wide near-opaque blob centred on tile
    (0, 0) of a 16-pixel grid; ``front`` overrides ``mean``, ``sigma``,
    ``radius`` or ``opacity``.
    """
    mean = front.get("mean", (8.0, 8.0))
    sigma = front.get("sigma", 200.0)
    n = fronts + num_back
    means2d = np.tile(np.asarray(mean, dtype=np.float64), (n, 1))
    conics = np.tile([1 / sigma**2, 0.0, 1 / sigma**2], (n, 1))
    opacities = np.full(n, front.get("opacity", 1.0))
    radii = np.full(n, front.get("radius", 600.0))
    # the back splats: small, translucent, on the same tile
    means2d[fronts:] = (8.0, 8.0)
    conics[fronts:] = (1 / 9.0, 0.0, 1 / 9.0)
    opacities[fronts:] = 0.5
    radii[fronts:] = 9.0
    colors = np.linspace(0.1, 0.9, 3 * n).reshape(n, 3)
    return means2d, conics, colors, opacities, np.arange(n, dtype=float), radii


def _kept_per_tile(args, width, height, config):
    (tile_ids, _), (kept, _) = _prune(args, width, height, config)
    tiles = -(-width // 16) * -(-height // 16)
    return (
        np.bincount(tile_ids, minlength=tiles),
        np.bincount(kept, minlength=tiles),
    )


class TestWhatCounts:
    """Each capped front splat takes log2(1 - 0.99 * (1 - slack)) = -6.51
    off the bound: the rows behind the first seven are dropped."""

    def test_covering_fronts_cut_the_list_after_seven(self):
        total, kept = _kept_per_tile(_stack(10, 16, 16), 16, 16, RasterConfig())
        assert total.tolist() == [15] and kept.tolist() == [7]
        # six fronts stop at 2^-39: nothing goes
        total, kept = _kept_per_tile(_stack(6, 16, 16), 16, 16, RasterConfig())
        assert total.tolist() == kept.tolist() == [11]

    def test_partial_cover_counts_zero(self):
        # the fronts' bbox stops one pixel column short of the tile edge
        args = _stack(10, 16, 16, mean=(7.0, 8.0), radius=7.0)
        total, kept = _kept_per_tile(args, 16, 16, RasterConfig())
        assert total.tolist() == kept.tolist() == [15]

    def test_image_edge_tile_is_judged_on_its_visible_part(self):
        # 40x24: tiles are 16, 16, 8 wide and 16, 8 tall. The fronts'
        # bbox ends at x=32.. so it covers the 8-wide edge column, and
        # leaves the middle column partially covered
        args = _stack(10, 40, 24, mean=(60.0, 12.0), radius=35.0, num_back=0)
        total, kept = _kept_per_tile(args, 40, 24, RasterConfig())
        # tile columns 1 (partial: x from 24) and 2 (whole), both rows
        assert total.tolist() == [0, 10, 10, 0, 10, 10]
        assert kept.tolist() == [0, 10, 7, 0, 10, 7]

    def test_weak_corner_counts_zero(self):
        # bbox covers the tile but the blob is tight: the corner pixels
        # fall below alpha_min and their pairs would be compacted away
        args = _stack(10, 16, 16, sigma=2.0)
        total, kept = _kept_per_tile(args, 16, 16, RasterConfig())
        assert total.tolist() == kept.tolist() == [15]
        # with alpha_min = 0 those corner pairs exist, but at alpha
        # ~1e-6 they bound nothing
        total, kept = _kept_per_tile(
            args, 16, 16, RasterConfig(alpha_min=0.0)
        )
        assert total.tolist() == kept.tolist() == [15]
        # corner alpha 0.55 (1.15 bits a layer): counted under
        # alpha_min = 0.5, compacted away - so not counted - under 0.6
        args = _stack(60, 16, 16, sigma=9.7, num_back=0)
        total, kept = _kept_per_tile(args, 16, 16, RasterConfig(alpha_min=0.5))
        assert total.tolist() == [60] and kept.tolist() == [35]
        total, kept = _kept_per_tile(args, 16, 16, RasterConfig(alpha_min=0.6))
        assert total.tolist() == kept.tolist() == [60]

    def test_full_image_splats_and_alpha_min_zero(self):
        cfg = RasterConfig(alpha_min=0.0, full_image_splats=True)
        # radius says "tiny", full_image_splats says every tile: the wide
        # blob still saturates all four tiles of a 32x32 image
        args = _stack(10, 32, 32, radius=1.0, num_back=0)
        total, kept = _kept_per_tile(args, 32, 32, cfg)
        assert total.tolist() == [10] * 4 and kept.tolist() == [7] * 4
        # a tighter blob is judged by its weakest corner, tile by tile:
        # alpha 0.94 (4 bits a layer) in tile (0, 0), 0.54 in tile (1, 1)
        args = _stack(14, 32, 32, radius=1.0, sigma=30.0, opacity=0.999,
                      num_back=0)
        total, kept = _kept_per_tile(args, 32, 32, cfg)
        assert kept[0] == 10 and kept[3] == 14

    def test_indefinite_conic_counts_zero(self):
        args = list(_stack(10, 16, 16))
        args[1] = args[1].copy()
        args[1][:10] = (1e-5, 1e-3, 1e-5)  # saddle: level sets not convex
        total, kept = _kept_per_tile(tuple(args), 16, 16, RasterConfig())
        assert total.tolist() == kept.tolist() == [15]

    def test_translucent_fronts_need_more_layers(self):
        # opacity 0.5 -> one bit per layer: 41 layers in front survive
        args = _stack(60, 16, 16, opacity=0.5, sigma=1e4)
        total, kept = _kept_per_tile(args, 16, 16, RasterConfig())
        assert total.tolist() == [65] and kept.tolist() == [41]


class TestAllFlatEngines:
    W, H = 64, 48

    @pytest.fixture(scope="class")
    def scene(self):
        args = saturated_splats(self.W, self.H, 5)
        grad_image = np.random.default_rng(3).uniform(
            -1, 1, size=(self.H, self.W, 3)
        )
        ref = _run(
            args, self.W, self.H, RasterConfig(), grad_image, fwd=rasterize,
            bwd=rasterize_backward,
        )
        return args, grad_image, ref

    def _engine(self, scene, **cfg):
        args, grad_image, _ = scene
        config = RasterConfig(**cfg)
        return _run(
            args, self.W, self.H, config, grad_image,
            fwd=get_forward(config.engine), bwd=get_backward(config.engine),
        )

    def _assert_close(self, got, want, atol=ATOL):
        """``atol`` on the image and transmittance; on gradients relative
        to each field's scale (this scene's wide splats have conic
        gradients of order 1e4, the parity suites' scenes of order 1)."""
        np.testing.assert_allclose(got[0].image, want[0].image, atol=atol, rtol=0)
        np.testing.assert_allclose(
            got[0].final_transmittance, want[0].final_transmittance,
            atol=atol, rtol=0,
        )
        for field in GRAD_FIELDS:
            ref = getattr(want[1], field)
            np.testing.assert_allclose(
                getattr(got[1], field), ref, rtol=0, err_msg=field,
                atol=atol * max(1.0, np.abs(ref).max()),
            )

    def test_scene_saturates(self, scene):
        (tile_ids, _), (kept, _) = _prune(scene[0], self.W, self.H, RasterConfig())
        assert kept.size < 0.8 * tile_ids.size

    @pytest.mark.parametrize("cfg, cpus", [
        (dict(engine="vectorized"), 1),
        (dict(engine="fragment", fragment_shards=3), 1),
        (dict(engine="fragment", fragment_shards=3), 2),
    ], ids=["vectorized", "fragment-3-cpus1", "fragment-3-cpus2"])
    def test_within_parity_tolerance_of_reference(
        self, scene, cfg, cpus, monkeypatch
    ):
        monkeypatch.setattr(pool, "usable_cpus", lambda: cpus)
        self._assert_close(self._engine(scene, **cfg), scene[2])

    def test_fragment_threaded_equals_inline(self, scene, monkeypatch):
        monkeypatch.setattr(pool, "usable_cpus", lambda: 1)
        inline = self._engine(scene, engine="fragment", fragment_shards=3)
        monkeypatch.setattr(pool, "usable_cpus", lambda: 2)
        threaded = self._engine(scene, engine="fragment", fragment_shards=3)
        self._assert_close(threaded, inline, atol=0.0)
        self._assert_close(
            inline, self._engine(scene, engine="vectorized"), atol=ATOL
        )

    def test_fragment_shards_prune_their_own_lists(self, scene, monkeypatch):
        sizes = []
        real = engine.prune_occluded

        def spy(*a):
            out = real(*a)
            sizes.append((a[4].size, out[0].size))
            return out

        monkeypatch.setattr(engine, "prune_occluded", spy)
        fwd = get_forward("fragment")(
            *scene[0], width=self.W, height=self.H, background=BG,
            config=RasterConfig(engine="fragment", fragment_shards=2),
        )
        # the slabs may run on two block threads: compare as sets
        forward_sizes = sorted(sizes)
        assert len(forward_sizes) == 2
        assert any(kept < full for full, kept in forward_sizes)
        get_backward("fragment")(
            scene[0][0], scene[0][1], scene[0][2], scene[0][3], fwd,
            scene[1], background=BG,
            config=RasterConfig(engine="fragment", fragment_shards=2),
        )
        assert sorted(sizes[2:]) == forward_sizes  # the backward rebuilds

    def test_float32_fast_path_prunes_and_stays_close(self, scene):
        fast = self._engine(scene, engine="vectorized", dtype="float32")
        assert fast[0].saved.num_pruned > 0
        # single-precision scan over ~1e5 pairs: the fast path's own error
        np.testing.assert_allclose(
            fast[0].image, scene[2][0].image, atol=1e-2, rtol=0
        )


class TestSavedTable:
    def test_saved_backward_equals_rebuild(self):
        w, h = 64, 48
        args = saturated_splats(w, h, 6)
        cfg = RasterConfig()
        grad_image = np.random.default_rng(2).normal(size=(h, w, 3))
        res, grads = _run(args, w, h, cfg, grad_image)
        assert res.saved.num_pruned > 0
        rebuilt = rasterize_backward_vectorized(
            args[0], args[1], args[2], args[3], replace(res, saved=None),
            grad_image, background=BG, config=cfg,
        )
        for field in GRAD_FIELDS:
            assert np.array_equal(
                getattr(grads, field), getattr(rebuilt, field)
            ), field


class TestWalkthroughFrame:
    def test_perfbench_serving_frame_builds_a_tenth_of_the_pairs(
        self, monkeypatch
    ):
        root = os.path.dirname(
            os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        )
        if root not in sys.path:
            sys.path.insert(0, root)
        from perfbench import scenes
        from perfbench.workloads import WORKLOADS

        w = WORKLOADS["serve_walk"]
        rng = np.random.default_rng(3)
        model, _ = scenes.make_models(w.site, rng)
        camera = scenes.walk_session(
            w.site.extent, rng, 0, w.rounds, w.frame_size
        )[5]
        cfg = RasterConfig(engine="vectorized")
        res = render(model, camera, config=cfg)
        with _unpruned(monkeypatch):
            full = render(model, camera, config=cfg)
        pruned, unpruned = res.raster.saved, full.raster.saved
        assert unpruned.num_pairs > 100_000
        assert pruned.num_pairs < 0.1 * unpruned.num_pairs
        assert pruned.num_isects + pruned.num_pruned == unpruned.num_isects
        np.testing.assert_allclose(res.image, full.image, atol=1e-11, rtol=0)
