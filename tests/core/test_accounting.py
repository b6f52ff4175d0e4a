"""Byte-level accounting tests: ledgers and memory trackers of the
functional systems must match the paper's formulas exactly."""

import numpy as np
import pytest

from repro.core import GSScaleConfig, create_system
from repro.core.systems import TransferLedger
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import layout
from repro.sim.memory import ACTIVATION_BYTES_PER_PIXEL


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=180, width=30, height=20,
            num_train_cameras=3, num_test_cameras=1,
            altitude=9.0, seed=77,
        )
    )


def one_step(scene, system, **cfg):
    defaults = dict(
        system=system, scene_extent=scene.extent, ssim_lambda=0.0,
        mem_limit=1.0, seed=0,
    )
    defaults.update(cfg)
    s = create_system(scene.initial.copy(), GSScaleConfig(**defaults))
    report = s.step(scene.train_cameras[0], scene.train_images[0])
    return s, report


class TestLedgerFormulas:
    def test_baseline_transfers_full_rows(self, scene):
        s, report = one_step(scene, "baseline_offload")
        expected = report.num_visible * layout.PARAM_DIM * 4
        assert s.ledger.h2d_bytes == expected
        assert s.ledger.d2h_bytes == expected
        assert s.ledger.h2d_count == 1

    def test_gsscale_transfers_non_geometric_rows(self, scene):
        s, report = one_step(scene, "gsscale")
        expected = report.num_visible * layout.NON_GEOMETRIC_DIM * 4
        assert s.ledger.h2d_bytes == expected
        assert s.ledger.d2h_bytes == expected

    def test_split_step_transfers_more_than_whole(self, scene):
        """Boundary Gaussians are staged for both regions — splitting
        trades extra transfer volume for lower peak memory."""
        s1, r1 = one_step(scene, "gsscale", mem_limit=1.0)
        s2, r2 = one_step(scene, "gsscale", mem_limit=1e-6)
        assert r2.num_regions >= 2
        assert s2.ledger.h2d_bytes >= s1.ledger.h2d_bytes
        assert s2.ledger.h2d_count == r2.num_regions

    def test_transfer_accumulates_over_steps(self, scene):
        s, _ = one_step(scene, "gsscale")
        first = s.ledger.h2d_bytes
        s.step(scene.train_cameras[1], scene.train_images[1])
        assert s.ledger.h2d_bytes > first


class TestLedgerCounts:
    def test_counts_match_dataclass_fields(self):
        ledger = TransferLedger()
        ledger.h2d_bytes = 1234
        ledger.page_in_count = 7
        ledger.page_out_disk_bytes = 99
        counts = ledger.counts()
        assert "parent" not in counts
        for key, value in counts.items():
            assert value == getattr(ledger, key)


class TestMemoryFormulas:
    def test_gpu_only_resident_state(self, scene):
        s, _ = one_step(scene, "gpu_only")
        n = scene.initial.num_gaussians
        state = 4 * layout.param_bytes(n)
        act = scene.train_cameras[0].num_pixels * ACTIVATION_BYTES_PER_PIXEL
        assert s.memory.peak_bytes == state + act

    def test_gsscale_resident_floor(self, scene):
        s, report = one_step(scene, "gsscale")
        n = scene.initial.num_gaussians
        geo_state = 4 * layout.param_bytes(n, layout.GEOMETRIC_DIM)
        staged = 2 * report.num_visible * layout.NON_GEOMETRIC_DIM * 4
        act = scene.train_cameras[0].num_pixels * ACTIVATION_BYTES_PER_PIXEL
        assert s.memory.peak_bytes == geo_state + staged + act

    def test_staging_freed_between_steps(self, scene):
        s, _ = one_step(scene, "gsscale")
        live = s.memory.live_by_category()
        assert live.get("staged_params", 0) == 0
        assert live.get("staged_grads", 0) == 0
        assert live.get("activations", 0) == 0
        # geometric block stays resident
        assert live["geo_params"] > 0

    def test_geometric_is_17_percent(self, scene):
        a, _ = one_step(scene, "gpu_only")
        b, _ = one_step(scene, "gsscale")
        n = scene.initial.num_gaussians
        geo_resident = b.memory.live_by_category()
        resident_state = (
            geo_resident["geo_params"]
            + geo_resident["geo_grads"]
            + geo_resident["geo_opt_states"]
        )
        full_state = 4 * layout.param_bytes(n)
        assert resident_state / full_state == pytest.approx(
            layout.GEOMETRIC_FRACTION, abs=1e-9
        )


class TestStepReports:
    def test_report_fields(self, scene):
        _, report = one_step(scene, "gsscale")
        assert report.iteration == 1
        assert report.num_visible == report.valid_ids.size
        assert report.mean2d_abs.shape == (report.num_visible,)
        assert np.isfinite(report.loss)

    def test_iteration_counter_advances(self, scene):
        s, _ = one_step(scene, "gpu_only")
        r2 = s.step(scene.train_cameras[1], scene.train_images[1])
        assert r2.iteration == 2
