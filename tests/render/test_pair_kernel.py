"""Exact equalities of the shared pair kernel.

The parity suites compare engines at ``atol=1e-9`` — a tolerance a
diverging copy of the pair arithmetic would pass. These tests assert what
a single copy guarantees instead: the ``parallel`` engine with one
in-process span *is* the ``vectorized`` engine, value for value, and the
kernel's gradient sums do not depend on the index they are reduced onto.
Equalities only, so they mean the same on a 1-CPU runner.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.render import RasterConfig
from repro.render.engine import (
    _transmittance_scan,
    backward_pairs,
    get_backward,
    get_forward,
    local_ids,
    pairs_for_isects,
    visible_intersections,
)
from repro.render.rasterize import config_bboxes
from repro.render.tiles import partition_spans

from test_engine_equivalence import SCENES, make_splats

GRAD_FIELDS = ("means2d", "conics", "colors", "opacities", "mean2d_abs")

#: The background term ``(dL/dC . bg) * T_final`` is the one input the
#: schedulers compute differently — ``vectorized`` over the whole image and
#: then gathered, a span gathered first — and a BLAS gemv does not promise
#: a row the same bits at a different position (float32 rows near the end
#: of a 96x80 image differ on the box this was written on). Quarters times
#: small integers make every product and sum of that dot exact, so the
#: engines' equality here is a statement about the kernel alone.
BG = np.array([0.25, 0.5, 0.75])


def _image_grad(rng, w, h):
    return rng.integers(-8, 9, size=(h, w, 3)).astype(np.float64)


def _run(engine_cfg, args, w, h, grad):
    res = get_forward(engine_cfg.engine)(
        *args, width=w, height=h, background=BG, config=engine_cfg
    )
    grads = get_backward(engine_cfg.engine)(
        *args[:4], res, grad, background=BG, config=engine_cfg
    )
    return res, grads


class TestOneSpanIsVectorized:
    """``parallel(workers <= 1)`` plans one span over the whole table and
    calls the kernel exactly as ``vectorized`` does."""

    @pytest.mark.parametrize("scene", SCENES, ids=lambda s: f"n{s[0]}")
    @pytest.mark.parametrize("dtype", [None, "float32"], ids=["f64", "f32"])
    @pytest.mark.parametrize("alpha_min", [None, 0.0], ids=["amin", "amin0"])
    @pytest.mark.parametrize("workers", [0, 1])
    def test_forward_and_backward_equal(self, scene, dtype, alpha_min, workers):
        n, w, h, seed = scene
        args = make_splats(n, w, h, seed)
        grad = _image_grad(np.random.default_rng(seed + 50), w, h)
        cfg = RasterConfig(dtype=dtype)
        if alpha_min is not None:
            cfg = replace(cfg, alpha_min=alpha_min)
        vec_res, vec = _run(replace(cfg, engine="vectorized"), args, w, h, grad)
        par_res, par = _run(
            replace(cfg, engine="parallel", workers=workers), args, w, h, grad
        )
        assert np.array_equal(par_res.image, vec_res.image)
        assert np.array_equal(
            par_res.final_transmittance, vec_res.final_transmittance
        )
        for field in GRAD_FIELDS:
            a, b = getattr(par, field), getattr(vec, field)
            assert a.dtype == b.dtype
            # array_equal, not tobytes: the one-partial fill keeps the
            # sign of a zero that the scatter-add merge loses
            assert np.array_equal(a, b), field


def _slice_inputs(args, w, h, cfg, start_stop=None, tile_size=16):
    """The splat ids and the pair table of a tile-aligned slice of the
    intersection table, as a span of the ``parallel`` engine builds them."""
    means2d, conics, colors, opacities, depths, radii = args
    order = np.argsort(depths, kind="stable")
    bboxes = config_bboxes(means2d, radii, w, h, cfg)
    tile_ids, sid, tiles_x, _ = visible_intersections(
        means2d, conics, opacities, bboxes, order, w, h, cfg, tile_size
    )
    if start_stop is None:
        # the middle one of three equal-count spans
        spans = partition_spans(tile_ids, np.ones(tile_ids.size), 3)
        assert len(spans) == 3
        start_stop = spans[1]
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
