"""End-to-end training on the fragment raster engine: the sharded and
out-of-core systems render per-shard and composite fragments instead of
gathering the visible union into one packed matrix.

The vectorized-engine sharded trajectory is the oracle (same splats, same
optimizer; the only difference is compositing-rounding, ~1e-12), the
fan-out width must never show, and the gather-free claim is pinned by a
MemoryTracker peak comparison — the fragment path's staging windows are
sequential per shard, so its aggregate peak sits strictly below the
all-shards-at-once gather peak.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import GSScaleConfig, create_system
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.pool import shutdown_raster_pools
from repro.render import RasterConfig


@pytest.fixture(scope="module", autouse=True)
def _reap_pools():
    yield
    shutdown_raster_pools()


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=250, width=36, height=28,
            num_train_cameras=6, num_test_cameras=2,
            altitude=12.0, seed=11,
        )
    )


def make(scene, system="sharded", **cfg):
    defaults = dict(
        system=system, scene_extent=scene.extent, ssim_lambda=0.2,
        mem_limit=1.0, seed=0,
    )
    defaults.update(cfg)
    return create_system(scene.initial.copy(), GSScaleConfig(**defaults))


def run(scene, system="sharded", steps=6, **cfg):
    s = make(scene, system, **cfg)
    reports = []
    for i in range(steps):
        reports.append(
            s.step(scene.train_cameras[i % 6], scene.train_images[i % 6])
        )
    s.finalize()
    return s, reports


FRAG = RasterConfig(engine="fragment")
VEC = RasterConfig(engine="vectorized")


class TestTrajectoryParity:
    @pytest.mark.parametrize("num_shards", [1, 2, 4])
    def test_matches_vectorized_sharded(self, scene, num_shards):
        ref, ref_reports = run(scene, num_shards=num_shards, raster=VEC)
        frag, frag_reports = run(scene, num_shards=num_shards, raster=FRAG)
        for a, b in zip(ref_reports, frag_reports):
            assert b.loss == pytest.approx(a.loss, abs=1e-9)
            assert b.num_visible == a.num_visible
        # same Adam-sensitivity caveat as the cross-engine parity suite: the
        # ~1e-12 compositing rounding passes through Adam's rsqrt
        np.testing.assert_allclose(
            frag.materialized_model().params,
            ref.materialized_model().params,
            atol=2e-4, rtol=0,
        )

    def test_image_splitting_regions_match(self, scene):
        """Region-split renders (the tight-memory path) stay on-trajectory
        too: each region composites its own fragment set."""
        ref = make(scene, num_shards=3, mem_limit=1e-6, ssim_lambda=0.0,
                   raster=VEC)
        frag = make(scene, num_shards=3, mem_limit=1e-6, ssim_lambda=0.0,
                    raster=FRAG)
        ra = ref.step(scene.train_cameras[0], scene.train_images[0])
        rb = frag.step(scene.train_cameras[0], scene.train_images[0])
        assert ra.num_regions == rb.num_regions >= 2
        assert rb.loss == pytest.approx(ra.loss, abs=1e-9)


class TestDeterminism:
    def test_shard_workers_bit_identical(self, scene):
        """The fragment fan-out width (``raster.workers``) never shows in
        the numerics."""
        serial, _ = run(scene, num_shards=4, raster=FRAG)
        fanned, _ = run(
            scene, num_shards=4, raster=replace(FRAG, workers=2)
        )
        np.testing.assert_array_equal(
            serial.materialized_model().params,
            fanned.materialized_model().params,
        )

    def test_outofcore_bit_identical_to_in_memory(self, scene, tmp_path):
        """Paging shard state through disk is placement, not numerics."""
        mem, _ = run(scene, num_shards=4, raster=FRAG)
        ooc, _ = run(
            scene, "outofcore", num_shards=4, resident_shards=1,
            spill_dir=str(tmp_path / "spill"), raster=FRAG,
        )
        np.testing.assert_array_equal(
            mem.materialized_model().params,
            ooc.materialized_model().params,
        )


class TestNoFullMaterialization:
    def test_fragment_peak_below_gather_peak(self, scene):
        """The gather path stages every shard's window at once to build
        the packed union; the fragment path stages one shard at a time,
        so its tracked peak must sit strictly below."""
        gather, _ = run(scene, num_shards=4, raster=VEC, steps=3)
        frag, _ = run(scene, num_shards=4, raster=FRAG, steps=3)
        assert frag.memory.peak_bytes < gather.memory.peak_bytes

    def test_outofcore_fragment_trains_under_gather_peak(self, scene,
                                                         tmp_path):
        gather, _ = run(
            scene, "outofcore", num_shards=4, resident_shards=1,
            spill_dir=str(tmp_path / "a"), raster=VEC, steps=3,
        )
        frag, _ = run(
            scene, "outofcore", num_shards=4, resident_shards=1,
            spill_dir=str(tmp_path / "b"), raster=FRAG, steps=3,
        )
        assert frag.memory.peak_bytes < gather.memory.peak_bytes
