"""The vectorized forward hands its pair table and scan to the backward.

``rasterize_vectorized`` leaves the sorted (splat, pixel) pair table and
the per-pair ``t_before`` on ``RasterResult.saved``;
``rasterize_backward_vectorized`` reads them instead of rebuilding. These
tests pin the contract: gradients are bit-identical with and without the
saved state, the state is never consumed, a mismatching key rebuilds, the
state dies with the result, and a training step builds pairs once.
"""

import weakref
from dataclasses import replace

import numpy as np
import pytest

from repro.cameras import Camera
from repro.core import GSScaleConfig, create_system
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.render import RasterConfig, engine, render, render_backward
from repro.render.engine import (
    rasterize_backward_vectorized,
    rasterize_vectorized,
)
from repro.serve import RenderService, requests_from_cameras

from test_engine_equivalence import _tiny_model, make_splats

GRAD_FIELDS = ("means2d", "conics", "colors", "opacities", "mean2d_abs")


def _empty_splats():
    return (
        np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3)),
        np.zeros(0), np.zeros(0), np.zeros(0),
    )


def _offscreen_splats():
    args = list(make_splats(10, 32, 32, 4))
    args[0] = args[0] + 500.0
    return tuple(args)


# (id, splats, width, height, config)
CASES = [
    ("default", make_splats(150, 70, 50, 1), 70, 50, RasterConfig()),
    ("alpha_min0", make_splats(150, 70, 50, 1), 70, 50,
     RasterConfig(alpha_min=0.0)),
    ("full_image", make_splats(40, 32, 24, 0), 32, 24,
     RasterConfig(alpha_min=0.0, full_image_splats=True)),
    ("float32", make_splats(150, 70, 50, 1), 70, 50,
     RasterConfig(dtype="float32")),
    ("empty_scene", _empty_splats(), 16, 12, RasterConfig()),
    ("zero_intersections", _offscreen_splats(), 32, 32, RasterConfig()),
    ("single_tile", make_splats(25, 12, 9, 5), 12, 9, RasterConfig()),
]


def _backward(args, res, grad_image, config, **kwargs):
    return rasterize_backward_vectorized(
        args[0], args[1], args[2], args[3], res, grad_image,
        background=np.array([0.3, 0.1, 0.5]), config=config, **kwargs,
    )


def _assert_same_grads(a, b):
    for name in GRAD_FIELDS:
        assert np.array_equal(getattr(a, name), getattr(b, name)), name


def _count_calls(monkeypatch, name, record=lambda out: out):
    """One list entry (``record(result)``) per call of ``engine.<name>``,
    which the engine looks up at call time."""
    calls = []
    real = getattr(engine, name)

    def counted(*args, **kwargs):
        out = real(*args, **kwargs)
        calls.append(record(out))
        return out

    monkeypatch.setattr(engine, name, counted)
    return calls


class TestSavedEqualsRebuilt:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0])
    def test_gradients_bit_identical(self, case, monkeypatch):
        _, args, w, h, cfg = case
        res = rasterize_vectorized(
            *args, width=w, height=h, background=np.array([0.3, 0.1, 0.5]),
            config=cfg,
        )
        assert res.saved is not None
        grad_image = np.random.default_rng(8).normal(size=(h, w, 3))
        builds = _count_calls(monkeypatch, "_build_pairs")
        with_saved = _backward(args, res, grad_image, cfg)
        assert builds == []  # the saved table was used
        stripped = _backward(args, replace(res, saved=None), grad_image, cfg)
        assert len(builds) == 1  # the fallback rebuilt it
        _assert_same_grads(with_saved, stripped)

    def test_results_without_context_take_the_fallback(self):
        """A reference-engine forward and a hand-built result carry no
        saved state; the vectorized backward accepts both as before."""
        from repro.render.rasterize import RasterResult, rasterize

        args = make_splats(60, 48, 40, 3)
        g = np.random.default_rng(2).normal(size=(40, 48, 3))
        vec_fwd = rasterize_vectorized(*args, width=48, height=40)
        expected = _backward(args, vec_fwd, g, None)

        hand_built = RasterResult(
            image=vec_fwd.image,
            final_transmittance=vec_fwd.final_transmittance,
            order=vec_fwd.order,
            bboxes=vec_fwd.bboxes,
        )
        assert hand_built.saved is None
        _assert_same_grads(_backward(args, hand_built, g, None), expected)

        ref_fwd = rasterize(*args, width=48, height=40)
        assert ref_fwd.saved is None
        from_ref = _backward(args, ref_fwd, g, None)
        for name in GRAD_FIELDS:  # the two forwards differ by ~1 ulp
            np.testing.assert_allclose(
                getattr(from_ref, name), getattr(expected, name),
                atol=1e-9, rtol=0, err_msg=name,
            )

    def test_saved_state_is_not_in_the_repr(self):
        res = rasterize_vectorized(*make_splats(5, 16, 16, 5), width=16, height=16)
        assert "saved" not in repr(res)


class TestNotConsumed:
    def test_render_backward_twice(self):
        model = _tiny_model()
        camera = Camera.look_at(
            [0.0, -3.0, 0.5], [0.0, 0.0, 0.0], width=48, height=36
        )
        grad_image = np.random.default_rng(7).normal(size=(36, 48, 3))
        res = render(model, camera, config=RasterConfig(engine="vectorized"))
        first = render_backward(model, camera, res, grad_image)
        second = render_backward(model, camera, res, grad_image)
        assert np.array_equal(first.param_grads, second.param_grads)
        assert np.array_equal(first.mean2d_abs, second.mean2d_abs)
        assert np.any(first.param_grads != 0.0)


class TestKeyMismatchRebuilds:
    """Stale pairs must never be used: the saved ``t_before`` is poisoned
    with NaN, so any gradient that read it would be NaN too."""

    def _poisoned_forward(self, args, cfg):
        res = rasterize_vectorized(*args, width=70, height=50, config=cfg)
        poisoned = replace(
            res.saved, t_before=np.full_like(res.saved.t_before, np.nan)
        )
        return res, replace(res, saved=poisoned)

    def test_matching_key_reads_the_saved_state(self):
        args = make_splats(150, 70, 50, 1)
        _, bad = self._poisoned_forward(args, RasterConfig())
        g = np.ones((50, 70, 3))
        assert np.isnan(_backward(args, bad, g, RasterConfig()).colors).any()

    def test_tile_size_changed(self):
        args = make_splats(150, 70, 50, 1)
        res, bad = self._poisoned_forward(args, RasterConfig())
        g = np.random.default_rng(3).normal(size=(50, 70, 3))
        grads = _backward(args, bad, g, RasterConfig(), tile_size=8)
        _assert_same_grads(
            grads,
            _backward(args, replace(res, saved=None), g, RasterConfig(),
                      tile_size=8),
        )

    def test_dtype_changed_between_passes(self):
        args = make_splats(150, 70, 50, 1)
        res, bad = self._poisoned_forward(args, RasterConfig())
        f32 = RasterConfig(dtype="float32")
        g = np.random.default_rng(3).normal(size=(50, 70, 3))
        grads = _backward(args, bad, g, f32)
        assert grads.colors.dtype == np.float32
        _assert_same_grads(
            grads, _backward(args, replace(res, saved=None), g, f32)
        )

    @pytest.mark.parametrize(
        "changed",
        [RasterConfig(alpha_min=0.0), RasterConfig(alpha_max=0.9),
         RasterConfig(full_image_splats=True)],
        ids=["alpha_min", "alpha_max", "full_image_splats"],
    )
    def test_threshold_changed_between_passes(self, changed):
        args = make_splats(150, 70, 50, 1)
        _, bad = self._poisoned_forward(args, RasterConfig())
        grads = _backward(args, bad, np.ones((50, 70, 3)), changed)
        assert all(np.isfinite(getattr(grads, f)).all() for f in GRAD_FIELDS)


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=220, width=36, height=28, num_train_cameras=4,
            num_test_cameras=1, altitude=12.0, seed=7,
        )
    )


class TestLifetime:
    def test_dies_with_the_render_result(self, scene):
        res = render(
            scene.oracle, scene.train_cameras[0],
            config=RasterConfig(engine="vectorized"),
        )
        table = weakref.ref(res.raster.saved.pairs)
        assert table() is not None and table().alpha.size > 0
        image = res.image
        del res
        assert table() is None
        assert image.shape == (28, 36, 3)

    def test_frame_cache_holds_the_frame_not_the_pairs(self, scene, monkeypatch):
        tables = _count_calls(monkeypatch, "_build_pairs", weakref.ref)
        service = RenderService(scene.oracle, cache_bytes=1 << 20)
        try:
            for request in requests_from_cameras(scene.train_cameras[:2]):
                service.submit(request)
            responses = service.tick()
            assert [r.status for r in responses] == ["ok", "ok"]
            assert len(service.cache) == 2
            assert len(tables) == 2
            assert all(table() is None for table in tables)
        finally:
            service.close()


class TestBuiltOncePerRegion:
    def test_training_step_builds_pairs_once(self, scene, monkeypatch):
        system = create_system(
            scene.initial.copy(),
            GSScaleConfig(
                system="gsscale", engine="vectorized",
                scene_extent=scene.extent, ssim_lambda=0.2, mem_limit=1.0,
            ),
        )
        calls = _count_calls(monkeypatch, "pairs_for_isects")
        report = system.step(scene.train_cameras[0], scene.train_images[0])
        assert report.num_regions == 1 and report.num_visible > 0
        assert len(calls) == 1
