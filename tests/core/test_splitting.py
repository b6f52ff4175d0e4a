"""Tests for balance-aware image splitting (Section 4.4)."""

import numpy as np
import pytest

from repro.core import GSScaleConfig, create_system, find_balanced_split
from repro.core.splitting import SPLIT_SEARCH_STEPS, find_balanced_split_by
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.render import frustum_cull


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=300,
            width=48,
            height=32,
            num_train_cameras=4,
            num_test_cameras=1,
            altitude=10.0,
            seed=21,
        )
    )


def geo(scene):
    m = scene.initial
    return m.means, m.log_scales, m.quats


class TestFindBalancedSplit:
    def test_balance_near_half(self, scene):
        cam = scene.train_cameras[0]
        split = find_balanced_split(*geo(scene), cam)
        # paper reports 0.551 : 0.449 average balance with a 5-step search
        assert 0.35 <= split.balance <= 0.65

    def test_beats_or_matches_naive_midpoint_on_skewed_scene(self):
        """A scene with all mass on the left: the search must move the
        split left of the midpoint."""
        rng = np.random.default_rng(0)
        from repro.cameras import Camera
        from repro.gaussians import GaussianModel

        pts = rng.uniform([-10, -3, 0], [-2, 3, 1], size=(300, 3))
        colors = rng.uniform(0, 1, (300, 3))
        model = GaussianModel.from_point_cloud(pts, colors)
        cam = Camera.look_at([0, 0, 18.0], [0, 0.1, 0], width=64, height=48,
                             fov_x_deg=75.0)
        split = find_balanced_split(model.means, model.log_scales, model.quats, cam)
        assert split.split_x < 32  # moved toward the populated side
        assert 0.3 <= split.balance <= 0.7

    def test_regions_cover_image(self, scene):
        cam = scene.train_cameras[1]
        split = find_balanced_split(*geo(scene), cam)
        (left, x0), (right, x1) = split.regions
        assert x0 == 0
        assert x1 == split.split_x
        assert left.width + right.width == cam.width
        assert left.height == right.height == cam.height

    def test_cull_fn_hands_the_region_culls_on(self, scene):
        """With ``cull_fn`` the search's last two counts are the regions'
        culls, kept for their renders; the split does not move."""
        cam = scene.train_cameras[2]
        plain = find_balanced_split(*geo(scene), cam)
        assert plain.culls is None
        asked = []

        def cull(camera, keep=None):
            asked.append(keep)
            return frustum_cull(*geo(scene), camera, keep=keep)

        got = find_balanced_split_by(
            lambda camera: cull(camera).num_visible, cam, cull_fn=cull
        )
        assert (got.split_x, got.balance) == (plain.split_x, plain.balance)
        assert asked == [None] * (2 * SPLIT_SEARCH_STEPS) + ["backward"] * 2
        for region, kept in zip((got.left, got.right), got.culls):
            want = frustum_cull(*geo(scene), region)
            np.testing.assert_array_equal(kept.valid_ids, want.valid_ids)
            assert kept.screen is not None

    def test_search_step_count_default(self):
        assert SPLIT_SEARCH_STEPS == 5


class TestSplitTrainingEquivalence:
    def test_split_single_step_exact(self, scene):
        """Section 4.4's mathematical-equivalence claim: from identical
        state, one split step produces the same loss, the same gradients,
        and the same updated parameters as an unsplit step (L1 loss —
        pixel losses are additive across the split)."""
        base = dict(
            system="gsscale_no_deferred",
            scene_extent=scene.extent,
            ssim_lambda=0.0,  # SSIM windows straddle the boundary
            seed=0,
        )
        whole = create_system(
            scene.initial.copy(), GSScaleConfig(mem_limit=1.0, **base)
        )
        split = create_system(
            scene.initial.copy(), GSScaleConfig(mem_limit=1e-6, **base)
        )
        for i in range(3):  # several distinct views, always from lockstep
            cam = scene.train_cameras[i]
            img = scene.train_images[i]
            rw = whole.step(cam, img)
            rs = split.step(cam, img)
            assert rw.num_regions == 1
            assert rs.num_regions >= 2
            assert rs.loss == pytest.approx(rw.loss, rel=1e-12)
            np.testing.assert_array_equal(rw.valid_ids, rs.valid_ids)
            # aggregated gradients pending on the host must agree
            np.testing.assert_allclose(
                whole._host_store._pending_grads,
                split._host_store._pending_grads,
                rtol=1e-9, atol=1e-15,
            )
            # re-synchronize state so every step starts from bit-identical
            # inputs (float associativity across region sums would
            # otherwise compound through raster thresholds)
            split._geo_store.params[...] = whole._geo_store.params
            split._geo_store.optimizer.m[...] = whole._geo_store.optimizer.m
            split._geo_store.optimizer.v[...] = whole._geo_store.optimizer.v
            split._host_store._pending_grads = (
                whole._host_store._pending_grads.copy()
            )

    def test_split_multi_step_statistically_identical(self, scene):
        """Free-running split vs unsplit training: trajectories may drift
        at float-noise scale (threshold amplification), but parameters
        must remain overwhelmingly identical."""
        base = dict(
            system="gsscale_no_deferred",
            scene_extent=scene.extent,
            ssim_lambda=0.0,
            seed=0,
        )
        whole = create_system(
            scene.initial.copy(), GSScaleConfig(mem_limit=1.0, **base)
        )
        split = create_system(
            scene.initial.copy(), GSScaleConfig(mem_limit=1e-6, **base)
        )
        for i in range(6):
            cam = scene.train_cameras[i % len(scene.train_cameras)]
            img = scene.train_images[i % len(scene.train_images)]
            rw = whole.step(cam, img)
            rs = split.step(cam, img)
            assert rs.loss == pytest.approx(rw.loss, rel=1e-6)
        whole.finalize()
        split.finalize()
        pa = whole.materialized_model().params
        pb = split.materialized_model().params
        rel = np.abs(pa - pb) / np.maximum(np.abs(pa), 1.0)
        assert np.median(rel) < 1e-10
        assert np.mean(rel > 1e-4) < 0.01
        assert rel.max() < 0.05

    def test_split_reduces_peak_staging(self, scene):
        """Splitting must lower the peak staged footprint (Challenge 3)."""
        base = dict(
            system="gsscale",
            scene_extent=scene.extent,
            ssim_lambda=0.0,
            seed=0,
        )
        whole = create_system(
            scene.initial.copy(), GSScaleConfig(mem_limit=1.0, **base)
        )
        split = create_system(
            scene.initial.copy(), GSScaleConfig(mem_limit=1e-6, **base)
        )
        cam = scene.train_cameras[0]
        img = scene.train_images[0]
        whole.step(cam, img)
        split.step(cam, img)
        # compare peak staged+activation above the common resident floor
        resident = 4 * scene.initial.num_gaussians * 10 * 4
        assert (split.memory.peak_bytes - resident) < (
            whole.memory.peak_bytes - resident
        )

    def test_split_report_counts_union(self, scene):
        cfg = GSScaleConfig(
            system="gsscale", scene_extent=scene.extent,
            ssim_lambda=0.0, mem_limit=1e-6, seed=0,
        )
        s = create_system(scene.initial.copy(), cfg)
        cam = scene.train_cameras[0]
        report = s.step(cam, scene.train_images[0])
        assert report.num_regions == 2
        # union of region ids can't exceed the whole-view visible count
        whole_cull = s._cull(cam)
        assert report.num_visible <= whole_cull.num_visible + 1


class TestSplitStepCulls:
    """A split step culls its view once whole, ``2 * SPLIT_SEARCH_STEPS``
    times to probe the split, and once per region, where the search's
    last two culls are the regions': 13 culls, not 15."""

    @pytest.mark.parametrize("system", ["gsscale", "sharded"])
    def test_a_split_step_culls_thirteen_times(self, scene, monkeypatch, system):
        from repro.core import stores
        from repro.render import culling

        s = create_system(
            scene.initial.copy(),
            GSScaleConfig(
                system=system, num_shards=2, scene_extent=scene.extent,
                ssim_lambda=0.0, mem_limit=1e-6, seed=0,
            ),
        )
        exact = []  # frustum_cull calls, under either name
        for module in (stores, culling):
            real = module.frustum_cull

            def spy(*args, _real=real, **kwargs):
                exact.append(kwargs.get("keep"))
                return _real(*args, **kwargs)

            monkeypatch.setattr(module, "frustum_cull", spy)
        asked = []  # the store-level culls: (keep, result)
        visible = s.store.visible

        def spy_visible(camera, keep=None):
            result = visible(camera, keep)
            asked.append((keep, result))
            return result

        s.store.visible = spy_visible
        report = s.step(scene.train_cameras[0], scene.train_images[0])
        assert report.num_regions == 2
        assert len(asked) == 1 + 2 * SPLIT_SEARCH_STEPS + 2 == 13
        keeps = [keep for keep, _ in asked]
        assert keeps == ["backward"] + [None] * 10 + ["backward"] * 2
        if system == "gsscale":
            assert len(exact) == 13
        else:  # each store-level cull projects its gated-in shards
            assert len(exact) == sum(len(r.exact_shards) for _, r in asked)
        # the regions rendered from the culls the search handed on
        regions = [r for _, r in asked[-2:]]
        np.testing.assert_array_equal(
            report.valid_ids,
            np.union1d(regions[0].valid_ids, regions[1].valid_ids),
        )


class TestAggregate:
    """Host-side gradient aggregation is a segment reduction that must sum
    each id's rows exactly as the ``np.add.at`` scatter it replaced did."""

    def test_matches_add_at_scatter(self):
        from repro.core.systems import TrainingSystem, _RegionOutput
        from repro.gaussians import layout

        rng = np.random.default_rng(4)

        def region(ids):
            ids = np.asarray(ids, dtype=np.int64)
            # magnitudes spread over many decades so any re-association
            # of a three-term sum shows up in the last bits
            scale = 10.0 ** rng.uniform(-8, 3, size=(ids.size, 1))
            return _RegionOutput(
                ids=ids,
                grads=rng.normal(size=(ids.size, layout.PARAM_DIM)) * scale,
                mean2d_abs=np.abs(rng.normal(size=ids.size)) * scale[:, 0],
                loss=float(rng.random()), l1=float(rng.random()),
                ssim=float(rng.random()),
            )

        # ids 40..59 are in all three regions, 20..39 / 60..79 in two,
        # and 0..19 / 80..99 / 200..209 in exactly one
        regions = [
            region(np.arange(0, 60)),
            region(np.arange(20, 80)),
            region(np.r_[40:100, 200:210]),
        ]
        agg = TrainingSystem._aggregate(regions)

        all_ids = np.concatenate([r.ids for r in regions])
        union, inverse = np.unique(all_ids, return_inverse=True)
        grads = np.zeros((union.size, layout.PARAM_DIM))
        m2d = np.zeros(union.size)
        np.add.at(grads, inverse, np.concatenate([r.grads for r in regions]))
        np.add.at(
            m2d, inverse, np.concatenate([r.mean2d_abs for r in regions])
        )
        assert np.array_equal(agg.ids, union)
        assert np.array_equal(agg.grads, grads)
        assert np.array_equal(agg.mean2d_abs, m2d)
        assert agg.loss == sum(r.loss for r in regions)
        assert agg.l1 == sum(r.l1 for r in regions)

    def test_single_region_passes_through(self):
        from repro.core.systems import TrainingSystem, _RegionOutput

        only = _RegionOutput(
            ids=np.arange(3), grads=np.ones((3, 59)),
            mean2d_abs=np.ones(3), loss=1.0, l1=1.0, ssim=0.5,
        )
        assert TrainingSystem._aggregate([only]) is only
