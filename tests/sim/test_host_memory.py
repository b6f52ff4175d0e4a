"""Tests for host-DRAM capacity modeling (the offloading's other wall)."""

import pytest

from repro import GSScaleConfig
from repro.datasets import get_scene, synthesize_trace
from repro.gaussians import layout
from repro.sim import fits_host, get_platform, host_state_bytes, memory, simulate_epoch


def test_outofcore_defaults_are_the_trainers():
    """The simulator's out-of-core columns (fig11/fig12, the comparison
    with a measured trace) default to the placement the trainer defaults
    to."""
    cfg = GSScaleConfig()
    assert memory.DEFAULT_OUTOFCORE_SHARDS == cfg.num_shards
    assert memory.DEFAULT_RESIDENT_SHARDS == cfg.resident_shards



class TestHostStateBytes:
    def test_gpu_only_hosts_nothing(self):
        assert host_state_bytes(10_000_000, "gpu_only") == 0

    def test_baseline_hosts_everything(self):
        n = 1_000_000
        assert host_state_bytes(n, "baseline_offload") == (
            layout.train_state_bytes(n)
        )

    def test_gsscale_hosts_non_geometric_plus_counters(self):
        n = 1_000_000
        expected = layout.train_state_bytes(n, layout.NON_GEOMETRIC_DIM) + n
        assert host_state_bytes(n, "gsscale") == expected
        assert host_state_bytes(n, "gsscale") < host_state_bytes(
            n, "baseline_offload"
        )

    def test_unknown_system(self):
        with pytest.raises(ValueError):
            host_state_bytes(1, "cloud_tpu")


class TestFitsHost:
    def test_aerial_exceeds_laptop_dram(self):
        """45M Gaussians -> ~35 GB of offloaded state: too much for the
        laptop's 32 GB of host memory, fine for the desktop's 64 GB."""
        spec = get_scene("aerial")
        laptop = get_platform("laptop_4070m")
        desktop = get_platform("desktop_4080s")
        assert not fits_host(
            spec.total_gaussians, "gsscale", laptop.host_memory_bytes
        )
        assert fits_host(
            spec.total_gaussians, "gsscale", desktop.host_memory_bytes
        )

    def test_rubble_fits_laptop(self):
        spec = get_scene("rubble")
        laptop = get_platform("laptop_4070m")
        assert fits_host(
            spec.total_gaussians, "gsscale", laptop.host_memory_bytes
        )

    def test_epoch_sim_reports_host_oom(self):
        spec = get_scene("aerial")
        trace = synthesize_trace(spec, num_views=20, seed=0)
        res = simulate_epoch(
            get_platform("laptop_4070m"), trace, "gsscale", spec.num_pixels
        )
        assert res.oom
        assert res.host_oom

    def test_desktop_aerial_no_host_oom(self):
        spec = get_scene("aerial")
        trace = synthesize_trace(spec, num_views=20, seed=0)
        res = simulate_epoch(
            get_platform("desktop_4080s"), trace, "gsscale", spec.num_pixels
        )
        assert not res.oom
        assert not res.host_oom

    def test_server_hosts_everything(self):
        for key in ("rubble", "aerial"):
            spec = get_scene(key)
            assert fits_host(
                spec.total_gaussians,
                "gsscale",
                get_platform("server_h100").host_memory_bytes,
            )
