"""Acceptance tests for the deep out-of-core tier: raw pages and the
depth-D prefetch lookahead.

The contract stacked on top of the base out-of-core suites:

* training pages are raw, so the tier is pure placement — the K=4
  out-of-core trajectory stays bit-identical to the in-memory sharded
  system, and the ledger's disk channel equals its page channel; a page
  codec is a serving option and a training config rejects one;
* a depth-2 lookahead on an alternating-cluster schedule reaches a
  strictly higher staging hit-rate (and strictly less page traffic)
  than depth 1, without changing a single parameter bit: the spill
  keep-set holds the next views' shards resident, while the staging
  slot holds one view at every depth;
* write-behind spilling is retired: a training config rejects it, and
  every page-out is written on the thread that spills;
* a synthetic model several times the host budget trains and serves
  (through float16 serving pages, ~2x on the disk channel) under
  enforced byte budgets.
"""

import numpy as np
import pytest

from repro.cameras import Camera
from repro.core import GSScaleConfig, Trainer, create_system
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.core.stores import DiskStore
from repro.core.systems import TransferLedger
from repro.gaussians import GaussianModel, layout
from repro.optim.base import AdamConfig
from repro.render import render
from repro.serve.store import PagedServingStore
from repro.sim.memory import MemoryTracker

CLUSTER_CENTERS = np.array(
    [[-6.0, -6.0, 0.0], [6.0, -6.0, 0.0], [-6.0, 6.0, 0.0], [6.0, 6.0, 0.0]]
)


@pytest.fixture(scope="module")
def clustered():
    """Four well-separated clusters, one narrow camera per cluster (the
    same regime as the async-prefetch suite: each view culls to one
    spatial shard)."""
    rng = np.random.default_rng(3)
    per = 60
    means = np.concatenate(
        [c + rng.normal(scale=0.4, size=(per, 3)) for c in CLUSTER_CENTERS]
    )
    n = means.shape[0]
    log_scales = np.full((n, 3), np.log(0.05))
    quats = np.zeros((n, 4))
    quats[:, 0] = 1.0
    opacity_logits = rng.uniform(0.5, 1.5, size=n)
    sh = rng.normal(size=(n, 16, 3)) * 0.2
    model = GaussianModel.from_attributes(
        means, log_scales, quats, opacity_logits, sh, dtype=np.float64
    )
    cameras = [
        Camera.look_at(
            c + np.array([0.0, 0.0, 5.0]), c, up=(0.0, 1.0, 0.0),
            width=24, height=18, fov_x_deg=40.0,
        )
        for c in CLUSTER_CENTERS
    ]
    # ground truth rendered from a slightly perturbed copy: gradients are
    # nonzero (the fit has somewhere to go) but small and well-conditioned,
    # so parameters stay in sane ranges as they do in any real fit
    sh_gt = sh + rng.normal(size=sh.shape) * 0.05
    gt_model = GaussianModel.from_attributes(
        means, log_scales, quats, opacity_logits, sh_gt, dtype=np.float64
    )
    images = [render(gt_model, cam).image for cam in cameras]
    return model, cameras, images


def make_system(model, **cfg):
    defaults = dict(
        system="outofcore", num_shards=4, resident_shards=1,
        scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
    )
    defaults.update(cfg)
    return create_system(model.copy(), GSScaleConfig(**defaults))


def run_steps(model, cameras, images, steps=8, **cfg):
    """Plain round-robin step loop (no hints); returns (system, losses)."""
    s = make_system(model, **cfg)
    losses = []
    for i in range(steps):
        losses.append(
            s.step(cameras[i % len(cameras)], images[i % len(cameras)]).loss
        )
    s.finalize()
    return s, losses


#: the out-of-core schedules: synchronous (the prefetch leg at depth 0),
#: and the async leg at depths 1 to 3
SCHEDULES = {
    "sync": dict(async_prefetch=False),
    "async1": dict(async_prefetch=True, prefetch_depth=1),
    "async2": dict(async_prefetch=True, prefetch_depth=2),
    "async3": dict(async_prefetch=True, prefetch_depth=3),
}


class TestBitIdentity:
    @pytest.mark.parametrize("resident", [1, 2])
    @pytest.mark.parametrize("schedule", SCHEDULES)
    def test_matches_in_memory_sharded(self, clustered, schedule, resident):
        """The headline parity: K=4 out-of-core through the disk tier ==
        the K=4 in-memory sharded system, bit for bit, whatever the
        resident budget and the schedule (the async leg told the next
        views, as the trainer tells it)."""
        model, cameras, images = clustered
        mem, loss_mem = run_steps(model, cameras, images, system="sharded")
        ooc = make_system(
            model, resident_shards=resident, **SCHEDULES[schedule]
        )
        loss_ooc = []
        for i in range(8):
            upcoming = [cameras[(i + 1 + d) % 4] for d in range(ooc.prefetch_depth)]
            ooc.hint_upcoming_views(upcoming)
            loss_ooc.append(ooc.step(cameras[i % 4], images[i % 4]).loss)
        ooc.finalize()
        assert loss_mem == loss_ooc
        np.testing.assert_array_equal(
            mem.materialized_model().params, ooc.materialized_model().params
        )
        if schedule != "sync":
            assert ooc.prefetch_hits + ooc.prefetch_misses > 0

    def test_disk_channel_equals_page_channel(self, clustered):
        """Raw pages cross the disk interface at their decoded size: both
        sides of the ledger's disk channel agree."""
        model, cameras, images = clustered
        raw, _ = run_steps(model, cameras, images)
        assert raw.ledger.page_in_count > 0
        assert raw.ledger.page_in_disk_bytes == raw.ledger.page_in_bytes
        assert raw.ledger.page_out_disk_bytes == raw.ledger.page_out_bytes


class TestRawPagesOnly:
    @pytest.mark.parametrize("codec", ["float16", "lossless", "zstd", "RAW", ""])
    def test_config_rejects_a_page_codec(self, codec):
        with pytest.raises(ValueError, match=r"PagedServingStore\(codec=\)"):
            GSScaleConfig(system="outofcore", page_codec=codec)
        assert GSScaleConfig(system="outofcore", page_codec="raw")

    def test_disk_store_takes_no_codec(self, tmp_path):
        with pytest.raises(TypeError, match="codec"):
            DiskStore(
                np.zeros((4, layout.PARAM_DIM)), layout.ALL_BLOCK,
                AdamConfig(lr=1e-3), MemoryTracker(), TransferLedger(),
                spill_path=str(tmp_path / "spill"), codec="float16",
            )


class TestDepthD:
    def run_depth(self, clustered, depth, steps=8):
        """Alternate between two clusters under a budget of 2 resident
        shards — the D=1 structural miss: the next view's shard is still
        resident when the staging worker looks (nothing to snapshot),
        then gets evicted at end of step, so depth 1 pays a synchronous
        page-in every single step. Depth 2's keep-set retains it."""
        model, cameras, images = clustered
        cfg = GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=2,
            scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
            async_prefetch=True, prefetch_depth=depth,
        )
        t = Trainer(model.copy(), cfg)
        t.train(cameras[:2], images[:2], steps)
        return t.system

    def test_depth2_strictly_beats_depth1(self, clustered):
        d1 = self.run_depth(clustered, 1)
        d2 = self.run_depth(clustered, 2)
        # same math, different schedule
        np.testing.assert_array_equal(
            d1.materialized_model().params, d2.materialized_model().params
        )
        # strictly higher staging hit-rate ...
        rate1 = d1.prefetch_hits / max(d1.prefetch_hits + d1.prefetch_misses, 1)
        rate2 = d2.prefetch_hits / max(d2.prefetch_hits + d2.prefetch_misses, 1)
        assert rate2 > rate1
        assert d2.prefetch_misses == 0
        # ... and strictly less page traffic: retention beats re-reading
        assert d2.ledger.page_in_count < d1.ledger.page_in_count

    def test_depth_reported(self, clustered):
        d2 = self.run_depth(clustered, 2, steps=2)
        assert d2.prefetch_depth == 2  # finalize fences the lane, never closes it
        model, cameras, images = clustered
        live = make_system(
            model, resident_shards=2, async_prefetch=True, prefetch_depth=3
        )
        assert live.prefetch_depth == 3
        live.finalize()

    def test_staging_holds_one_view(self, clustered):
        """The staging slot holds one view's snapshots at every depth:
        its host bytes never exceed resident budget x worst shard
        state."""
        model, cameras, images = clustered
        cfg = GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=1,
            scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
            async_prefetch=True, prefetch_depth=3,
        )
        t = Trainer(model.copy(), cfg)
        t.train(cameras, images, 12)
        s = t.system
        per_shard = max(
            3 * layout.param_bytes(r.size, layout.NON_GEOMETRIC_DIM)
            for r in s.shard_rows
        )
        assert 0 < s.prefetch_staged_peak_bytes
        assert s.prefetch_staged_peak_bytes <= s.resident_set.budget * per_shard

    def test_config_validation(self):
        with pytest.raises(ValueError, match="prefetch_depth"):
            GSScaleConfig(system="outofcore", prefetch_depth=0)
        # no cross-check: without async_prefetch the depth is ignored,
        # and the synchronous schedule is the leg at depth 0
        cfg = GSScaleConfig(system="outofcore", async_prefetch=False, prefetch_depth=3)
        assert cfg.prefetch_depth == 3

    def test_depth3_matches_sync(self, clustered):
        """The deepest lookahead the suite runs is still bit-identical
        to the plain synchronous run."""
        model, cameras, images = clustered
        sync, loss_sync = run_steps(model, cameras, images, async_prefetch=False)
        deep, loss_deep = run_steps(
            model, cameras, images, async_prefetch=True, prefetch_depth=3
        )
        assert loss_sync == loss_deep
        np.testing.assert_array_equal(
            sync.materialized_model().params,
            deep.materialized_model().params,
        )


class TestWriteBehindRetired:
    def test_config_rejects_write_behind(self):
        with pytest.raises(ValueError, match="write-behind spilling was retired"):
            GSScaleConfig(system="outofcore", write_behind=True)
        assert not GSScaleConfig(system="outofcore", write_behind=False).write_behind


class TestFarBeyondHostBudget:
    """The capability gate: a synthetic model whose pageable training
    state is ~10x the host working set trains and serves under enforced
    byte budgets."""

    @pytest.fixture(scope="class")
    def scene(self):
        return build_scene(
            SyntheticSceneConfig(
                num_points=400, width=36, height=28,
                num_train_cameras=6, num_test_cameras=1,
                altitude=12.0, seed=11,
            )
        )

    def test_trains_with_tenth_of_state_resident(self, scene):
        cfg = GSScaleConfig(
            system="outofcore", num_shards=10, resident_shards=1,
            scene_extent=scene.extent, ssim_lambda=0.0, mem_limit=1.0,
            seed=0, async_prefetch=True,
        )
        t = Trainer(scene.initial.copy(), cfg)
        hist = t.train(scene.train_cameras, scene.train_images, 12,
                       view_order="locality")
        assert np.isfinite(hist.final_loss)
        s = t.system
        total_pageable = sum(
            3 * layout.param_bytes(r.size, layout.NON_GEOMETRIC_DIM)
            for r in s.shard_rows
        )
        # the tracked host working set stays an order of magnitude below
        # the full pageable state (one shard + the defer counters)
        assert total_pageable / s.host_memory.peak_bytes >= 6.0

    def test_serves_with_tenth_of_nongeo_resident(self, scene, tmp_path):
        model = scene.initial
        n = model.params.shape[0]
        geo_bytes = layout.param_bytes(n, layout.GEOMETRIC_DIM)
        nongeo_bytes = layout.param_bytes(n, layout.NON_GEOMETRIC_DIM)
        budget = geo_bytes + nongeo_bytes // 10
        store = PagedServingStore.from_model(
            model, host_budget_bytes=budget, num_shards=16,
            page_dir=str(tmp_path / "pages"), codec="float16",
        )
        try:
            # the budget is enforced by a capacity tracker: any gather
            # that overshot would raise MemoryError inside page_in
            rng = np.random.default_rng(0)
            for _ in range(6):
                ids = np.sort(rng.choice(n, size=64, replace=False))
                got = store.gather(ids)
                np.testing.assert_allclose(
                    got[:, layout.NON_GEOMETRIC_SLICE],
                    model.params[ids][:, layout.NON_GEOMETRIC_SLICE],
                    rtol=1e-3, atol=1e-6,
                )
                np.testing.assert_array_equal(
                    got[:, layout.GEOMETRIC_SLICE],
                    model.params[ids][:, layout.GEOMETRIC_SLICE],
                )
            assert store.host_memory.peak_bytes <= budget
            assert store.ledger.page_in_count > 0
            # f16 serve pages meter the same ~2x on the disk channel
            # (just under: 2 header bytes per column per page)
            ratio = (
                store.ledger.page_in_bytes / store.ledger.page_in_disk_bytes
            )
            assert 1.5 < ratio <= 2.0
        finally:
            store.close()
