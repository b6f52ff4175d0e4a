"""Property-based tests (hypothesis) for the rasterizer's invariants."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.render.engine import get_forward
from repro.render.rasterize import ENGINES, RasterConfig, rasterize

#: Every non-reference engine; ``fragment`` in two depth slabs.
FLAT_CONFIGS = [
    RasterConfig(engine=name, fragment_shards=2)
    for name in ENGINES if name != "reference"
]


def random_splats(rng, n, width, height):
    means2d = rng.uniform([-8, -8], [width + 8, height + 8], size=(n, 2))
    sig = rng.uniform(0.8, 6.0, size=n)
    conics = np.stack([1 / sig**2, np.zeros(n), 1 / sig**2], axis=1)
    colors = rng.uniform(0, 1, size=(n, 3))
    opacities = rng.uniform(0, 1, size=n)
    depths = rng.uniform(0.5, 30, size=n)
    radii = 3 * sig
    return means2d, conics, colors, opacities, depths, radii


class TestCompositingInvariants:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(0, 40))
    def test_convex_combination_bound(self, seed, n):
        """With colors and background in [0,1], output stays in [0,1] and
        transmittance in [0,1] — compositing is a convex combination."""
        rng = np.random.default_rng(seed)
        args = random_splats(rng, n, 24, 20)
        bg = rng.uniform(0, 1, size=3)
        res = rasterize(*args, width=24, height=20, background=bg)
        assert res.image.min() >= -1e-12
        assert res.image.max() <= 1.0 + 1e-12
        assert res.final_transmittance.min() >= -1e-12
        assert res.final_transmittance.max() <= 1.0 + 1e-12

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 30))
    def test_depth_order_invariance_of_inputs(self, seed, n):
        """Shuffling input rows (with depths attached) cannot change the
        image — only depth order matters."""
        rng = np.random.default_rng(seed)
        means2d, conics, colors, opacities, depths, radii = random_splats(
            rng, n, 20, 16
        )
        # make depths unique so the sort is unambiguous
        depths = depths + np.arange(n) * 1e-6
        perm = rng.permutation(n)
        a = rasterize(means2d, conics, colors, opacities, depths, radii, 20, 16)
        b = rasterize(
            means2d[perm], conics[perm], colors[perm], opacities[perm],
            depths[perm], radii[perm], 20, 16,
        )
        np.testing.assert_allclose(b.image, a.image, atol=1e-12)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_monochrome_scene_stays_monochrome(self, seed):
        """All-gray splats over a gray background give a gray image."""
        rng = np.random.default_rng(seed)
        means2d, conics, _, opacities, depths, radii = random_splats(
            rng, 15, 16, 16
        )
        gray = np.full((15, 3), 0.5)
        res = rasterize(
            means2d, conics, gray, opacities, depths, radii, 16, 16,
            background=np.full(3, 0.5),
        )
        np.testing.assert_allclose(res.image, 0.5, atol=1e-9)

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 10_000), n=st.integers(1, 25))
    def test_transmittance_decreases_with_more_splats(self, seed, n):
        """Adding splats can only absorb more light."""
        rng = np.random.default_rng(seed)
        args = random_splats(rng, n, 16, 16)
        full = rasterize(*args, width=16, height=16)
        half_n = max(n // 2, 1)
        half = rasterize(
            *(a[:half_n] for a in args), width=16, height=16
        )
        assert np.all(
            full.final_transmittance <= half.final_transmittance + 1e-12
        )

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_zero_opacity_is_identity(self, seed):
        rng = np.random.default_rng(seed)
        means2d, conics, colors, _, depths, radii = random_splats(
            rng, 10, 16, 16
        )
        bg = rng.uniform(0, 1, size=3)
        res = rasterize(
            means2d, conics, colors, np.zeros(10), depths, radii, 16, 16,
            background=bg,
        )
        np.testing.assert_allclose(
            res.image, np.broadcast_to(bg, (16, 16, 3)), atol=1e-12
        )
        np.testing.assert_allclose(res.final_transmittance, 1.0)

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_flat_engines_match_reference(self, seed):
        """Cross-implementation property: every scheduler of the pair
        kernel agrees with the reference loop for arbitrary inputs."""
        rng = np.random.default_rng(seed)
        args = random_splats(rng, 20, 37, 23)
        ref = rasterize(*args, width=37, height=23)
        for cfg in FLAT_CONFIGS:
            out = get_forward(cfg.engine)(
                *args, width=37, height=23, config=cfg
            )
            np.testing.assert_allclose(
                out.image, ref.image, atol=1e-9, rtol=0, err_msg=cfg.engine
            )


class TestConfigProperties:
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 10_000), alpha_min=st.floats(0.0, 0.1))
    def test_alpha_min_only_removes_light(self, seed, alpha_min):
        """Raising the skip threshold can only reduce absorbed light."""
        rng = np.random.default_rng(seed)
        args = random_splats(rng, 15, 16, 16)
        lo = rasterize(
            *args, width=16, height=16, config=RasterConfig(alpha_min=0.0)
        )
        hi = rasterize(
            *args, width=16, height=16,
            config=RasterConfig(alpha_min=alpha_min),
        )
        assert np.all(
            hi.final_transmittance >= lo.final_transmittance - 1e-12
        )
