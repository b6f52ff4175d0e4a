"""Tests for tile binning: the splat-to-tile assignment and its statistics."""

import numpy as np

from repro.render.rasterize import RasterConfig, config_bboxes
from repro.render.tiles import TILE_SIZE, bin_gaussians


def make_splats(n=60, width=70, height=50, seed=0):
    rng = np.random.default_rng(seed)
    means2d = rng.uniform([-5, -5], [width + 5, height + 5], size=(n, 2))
    sig = rng.uniform(1.0, 6.0, size=n)
    conics = np.stack([1 / sig**2, np.zeros(n), 1 / sig**2], axis=1)
    colors = rng.uniform(0, 1, size=(n, 3))
    opacities = rng.uniform(0.1, 1.0, size=n)
    depths = rng.uniform(1, 20, size=n)
    radii = 3 * sig
    return means2d, conics, colors, opacities, depths, radii


class TestBinning:
    def test_small_splat_single_tile(self):
        means2d = np.array([[8.0, 8.0]])
        radii = np.array([2.0])
        b = bin_gaussians(means2d, radii, width=64, height=64)
        assert b.tiles_x == 4 and b.tiles_y == 4
        assert b.num_intersections == 1
        assert 0 in set(b.tile_lists[0])

    def test_large_splat_many_tiles(self):
        means2d = np.array([[32.0, 32.0]])
        radii = np.array([30.0])
        b = bin_gaussians(means2d, radii, width=64, height=64)
        assert b.num_intersections == 16  # covers all 4x4 tiles

    def test_offscreen_splat_unbinned(self):
        means2d = np.array([[-100.0, -100.0]])
        radii = np.array([2.0])
        b = bin_gaussians(means2d, radii, width=64, height=64)
        assert b.num_intersections == 0

    def test_intersections_grow_with_radius(self):
        rng = np.random.default_rng(7)
        means2d = rng.uniform(0, 64, size=(30, 2))
        small = bin_gaussians(means2d, np.full(30, 2.0), 64, 64)
        large = bin_gaussians(means2d, np.full(30, 20.0), 64, 64)
        assert large.num_intersections > small.num_intersections

    def test_default_tile_size_is_16(self):
        assert TILE_SIZE == 16

    def test_tile_lists_in_input_order(self):
        """The vectorized expansion must keep the legacy bucket order."""
        rng = np.random.default_rng(8)
        means2d = rng.uniform(0, 64, size=(40, 2))
        b = bin_gaussians(means2d, np.full(40, 10.0), 64, 64)
        for ids in b.tile_lists:
            assert np.all(np.diff(ids) > 0)  # strictly ascending input ids

    def test_binning_returns_bboxes(self):
        """Callers reuse the bboxes instead of recomputing them."""
        from repro.render.rasterize import splat_bboxes

        rng = np.random.default_rng(9)
        means2d = rng.uniform(0, 64, size=(20, 2))
        radii = rng.uniform(2.0, 8.0, size=20)
        b = bin_gaussians(means2d, radii, 64, 64)
        np.testing.assert_array_equal(
            b.bboxes, splat_bboxes(means2d, radii, 64, 64)
        )

    def test_num_intersections_matches_lists(self):
        rng = np.random.default_rng(10)
        means2d = rng.uniform(-10, 74, size=(50, 2))
        b = bin_gaussians(means2d, np.full(50, 6.0), 64, 48)
        assert b.num_intersections == sum(len(ids) for ids in b.tile_lists)

    def test_full_image_splats_config(self):
        """Binning the full-image bboxes of ``full_image_splats`` puts
        every splat in every tile."""
        means2d, _, _, _, _, radii = make_splats(n=15, seed=11)
        cfg = RasterConfig(full_image_splats=True)
        b = bin_gaussians(
            means2d, radii, 70, 50,
            bboxes=config_bboxes(means2d, radii, 70, 50, cfg),
        )
        assert b.num_intersections == 15 * b.tiles_x * b.tiles_y
        for ids in b.tile_lists:
            np.testing.assert_array_equal(ids, np.arange(15))
