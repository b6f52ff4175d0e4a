"""Tests for the cost model and timeline simulator, including the
paper-anchor calibration bands that every figure bench depends on."""

import pytest

from repro.core.config import SYSTEM_NAMES, GSScaleConfig
from repro.datasets import all_scenes, get_scene, synthesize_trace
from repro.gaussians import layout
from repro.sim import (
    SYSTEMS,
    CostModel,
    disk_state_bytes,
    geomean,
    get_platform,
    outofcore_host_state_bytes,
    peak_memory,
    simulate_epoch,
    simulate_iteration,
)
from repro.sim.memory import DEFAULT_OUTOFCORE_SHARDS, DEFAULT_RESIDENT_SHARDS


def small_traces(seed=1, views=150):
    out = []
    for spec in all_scenes():
        if spec.small_total_gaussians is None:
            continue
        out.append(
            (spec, synthesize_trace(spec, num_views=views, seed=seed, use_small=True))
        )
    return out


class TestCostModel:
    def setup_method(self):
        self.cost = CostModel(get_platform("laptop_4070m"))

    def test_gpu_cull_much_faster_than_cpu(self):
        """Challenge 1: culling on CPU is dramatically slower."""
        n = 3_500_000
        assert self.cost.cpu_cull(n) > 20 * self.cost.gpu_cull(n)

    def test_cpu_dense_update_slower_than_gpu(self):
        """Challenge 2: CPU dense Adam is bandwidth-starved."""
        n = 3_500_000
        assert self.cost.cpu_dense_update(n) > 3 * self.cost.gpu_dense_update(n)

    def test_deferred_update_tracks_active_rows(self):
        n = 3_500_000
        t_small = self.cost.cpu_deferred_update(100_000, n)
        t_large = self.cost.cpu_deferred_update(1_000_000, n)
        assert t_large > 5 * t_small

    def test_deferred_beats_dense_at_paper_ratio(self):
        """At 8.3% active, the deferred update must be much cheaper even
        at random-access bandwidth."""
        n = 10_000_000
        n_upd = int(n * 0.083 + n / 15)
        assert self.cost.cpu_deferred_update(n_upd, n) < 0.4 * (
            self.cost.cpu_dense_update(n, 49)
        )

    def test_transfer_chunking(self):
        t1 = self.cost.transfer(1)  # one chunk's latency dominates
        t2 = self.cost.transfer(64 * 1024 * 1024)
        assert t2 > t1
        assert self.cost.transfer(0) == 0.0

    def test_monotone_in_workload(self):
        assert self.cost.forward_backward(200_000, 1_000_000) > (
            self.cost.forward_backward(100_000, 1_000_000)
        )


class TestIterationSchedules:
    def setup_method(self):
        self.cost = CostModel(get_platform("laptop_4070m"))
        self.kw = dict(
            n_total=3_500_000, active_ratio=0.126, num_pixels=995_328
        )

    def test_pipeline_never_beats_slowest_leg(self):
        it = simulate_iteration("gsscale", self.cost, **self.kw)
        legs_lower_bound = max(
            it.breakdown["fwd_bwd"], it.breakdown["optimizer"] * 0
        )
        assert it.time >= legs_lower_bound

    def test_pipeline_never_exceeds_serial_sum(self):
        pipelined = simulate_iteration("gsscale_no_deferred", self.cost, **self.kw)
        serial_sum = sum(pipelined.breakdown.values())
        assert pipelined.time <= serial_sum + 1e-9

    def test_baseline_is_serial(self):
        it = simulate_iteration("baseline_offload", self.cost, **self.kw)
        assert it.time == pytest.approx(sum(it.breakdown.values()), rel=1e-9)

    def test_system_ordering_on_laptop(self):
        """baseline > w/o deferred > full GS-Scale in iteration time."""
        t = {
            s: simulate_iteration(s, self.cost, **self.kw).time
            for s in ("baseline_offload", "gsscale_no_deferred", "gsscale")
        }
        assert t["baseline_offload"] > t["gsscale_no_deferred"] > t["gsscale"]

    def test_unknown_system_raises(self):
        with pytest.raises(ValueError):
            simulate_iteration("magic", self.cost, **self.kw)

    def test_image_splitting_adds_overhead(self):
        fast = simulate_iteration(
            "gsscale", self.cost, n_total=3_500_000, active_ratio=0.29,
            num_pixels=995_328, mem_limit=0.3,
        )
        split = simulate_iteration(
            "gsscale", self.cost, n_total=3_500_000, active_ratio=0.29,
            num_pixels=995_328, mem_limit=0.1,
        )
        assert split.time > fast.time

    def test_segments_cover_resources(self):
        it = simulate_iteration("gsscale", self.cost, **self.kw)
        resources = {s.resource for s in it.segments}
        assert resources == {"CPU", "GPU", "PCIe"}
        for s in it.segments:
            assert s.end >= s.start


class TestPaperCalibration:
    """The coarse quantitative anchors from the paper's evaluation.

    These bands gate every figure bench: if a refactor breaks the model,
    these tests fail before the benches silently drift.
    """

    def test_baseline_about_4x_slower_than_gpu_only(self):
        """Section 4.1: 'around 4x slower than GPU-only training'."""
        for pk in ("laptop_4070m", "desktop_4080s"):
            plat = get_platform(pk)
            ratios = []
            for spec, tr in small_traces():
                g = simulate_epoch(plat, tr, "gpu_only", spec.num_pixels)
                b = simulate_epoch(plat, tr, "baseline_offload", spec.num_pixels)
                if g.oom or b.oom:
                    continue
                ratios.append(b.seconds / g.seconds)
            assert 3.0 <= geomean(ratios) <= 6.0

    def test_laptop_gsscale_beats_gpu_only(self):
        """Section 5.3: geomean 1.22x of GPU-only on the laptop."""
        plat = get_platform("laptop_4070m")
        ratios = []
        for spec, tr in small_traces():
            g = simulate_epoch(plat, tr, "gpu_only", spec.num_pixels)
            s = simulate_epoch(plat, tr, "gsscale", spec.num_pixels)
            if g.oom:
                continue
            ratios.append(g.seconds / s.seconds)
        assert 1.05 <= geomean(ratios) <= 1.6

    def test_desktop_gsscale_slightly_slower(self):
        """Section 5.3: geomean 0.84x of GPU-only on the desktop."""
        plat = get_platform("desktop_4080s")
        ratios = []
        for spec, tr in small_traces():
            g = simulate_epoch(plat, tr, "gpu_only", spec.num_pixels)
            s = simulate_epoch(plat, tr, "gsscale", spec.num_pixels)
            if g.oom:
                continue
            ratios.append(g.seconds / s.seconds)
        assert 0.65 <= geomean(ratios) <= 0.95

    def test_optimizations_speedup_over_baseline(self):
        """Section 5.4: geomean 4.47x (laptop) / 4.57x (desktop)."""
        for pk in ("laptop_4070m", "desktop_4080s"):
            plat = get_platform(pk)
            speedups = []
            for spec, tr in small_traces():
                b = simulate_epoch(plat, tr, "baseline_offload", spec.num_pixels)
                s = simulate_epoch(plat, tr, "gsscale", spec.num_pixels)
                if b.oom:
                    continue
                speedups.append(b.seconds / s.seconds)
            assert 3.5 <= geomean(speedups) <= 7.0

    def test_memory_savings_band(self):
        """Section 5.2 / Figure 12: 3.3-5.6x savings, geomean 3.98x."""
        savings = []
        for spec in all_scenes():
            tr = synthesize_trace(spec, num_views=50, seed=1)
            g = peak_memory(
                "gpu_only", spec.total_gaussians, spec.num_pixels, tr.peak_ratio
            ).total
            s = peak_memory(
                "gsscale", spec.total_gaussians, spec.num_pixels, tr.peak_ratio
            ).total
            savings.append(g / s)
        assert 3.0 <= geomean(savings) <= 5.0
        assert max(savings) == savings[-1]  # Aerial saves the most (Fig 12)

    def test_aerial_ooms_on_gpu_only_everywhere(self):
        """Section 5.3: Aerial cannot train GPU-only even on the desktop,
        but GS-Scale fits it on the 4080S."""
        spec = get_scene("aerial")
        tr = synthesize_trace(spec, num_views=50, seed=1)
        for pk in ("laptop_4070m", "desktop_4080s"):
            res = simulate_epoch(get_platform(pk), tr, "gpu_only", spec.num_pixels)
            assert res.oom
        fit = simulate_epoch(
            get_platform("desktop_4080s"), tr, "gsscale", spec.num_pixels
        )
        assert not fit.oom

    def test_server_normalized_below_laptop(self):
        """Section 5.7: despite similar R_bw, NUMA makes the server's
        normalized throughput lower than the laptop's."""
        lap, srv = get_platform("laptop_4070m"), get_platform("server_h100")
        lap_r, srv_r = [], []
        for spec, tr in small_traces():
            gl = simulate_epoch(lap, tr, "gpu_only", spec.num_pixels)
            sl = simulate_epoch(lap, tr, "gsscale", spec.num_pixels)
            gs = simulate_epoch(srv, tr, "gpu_only", spec.num_pixels)
            ss = simulate_epoch(srv, tr, "gsscale", spec.num_pixels)
            if gl.oom or gs.oom:
                continue
            lap_r.append(gl.seconds / sl.seconds)
            srv_r.append(gs.seconds / ss.seconds)
        assert geomean(srv_r) < geomean(lap_r)

    def test_gpu_sensitivity_monotone_in_r_bw(self):
        """Figure 15c: higher R_bw -> lower normalized GS-Scale throughput."""
        spec = get_scene("lfls")
        tr = synthesize_trace(spec, num_views=150, seed=1, use_small=True)
        ratios = []
        for pk in ("desktop_4070s", "desktop_4080s", "desktop_4090"):
            plat = get_platform(pk)
            g = simulate_epoch(plat, tr, "gpu_only", spec.num_pixels)
            s = simulate_epoch(plat, tr, "gsscale", spec.num_pixels)
            assert not g.oom
            ratios.append(g.seconds / s.seconds)
        assert ratios[0] > ratios[1] > ratios[2]

    def test_resolution_sensitivity(self):
        """Figure 16: higher resolution -> higher relative GS-Scale
        throughput (more GPU slack) and lower relative memory saving."""
        plat = get_platform("desktop_4080s")
        spec = get_scene("rubble")
        tr = synthesize_trace(spec, num_views=100, seed=1, use_small=True)
        rel_tp = {}
        for label, px in (("1K", 1_000_000), ("4K", 8_300_000)):
            g = simulate_epoch(plat, tr, "gpu_only", px)
            s = simulate_epoch(plat, tr, "gsscale", px)
            rel_tp[label] = g.seconds / s.seconds
        assert rel_tp["4K"] > rel_tp["1K"]

    def test_mem_limit_tradeoff(self):
        """Figure 15a/b: smaller mem_limit -> less memory, lower throughput."""
        plat = get_platform("desktop_4080s")
        spec = get_scene("rubble")
        tr = synthesize_trace(spec, num_views=100, seed=1)
        mems, tps = [], []
        for ml in (0.3, 0.2, 0.1):
            r = simulate_epoch(plat, tr, "gsscale", spec.num_pixels, mem_limit=ml)
            mems.append(r.peak_memory_bytes)
            tps.append(r.images_per_second)
        assert mems[0] > mems[1] > mems[2]
        assert tps[0] >= tps[1] >= tps[2]


class TestEpochResult:
    def test_images_per_second(self):
        plat = get_platform("laptop_4070m")
        spec = get_scene("rubble")
        tr = synthesize_trace(spec, num_views=50, seed=2, use_small=True)
        res = simulate_epoch(plat, tr, "gsscale", spec.num_pixels)
        assert res.images_per_second == pytest.approx(50 / res.seconds)
        assert not res.oom
        assert res.peak_memory_bytes > 0

    def test_geomean_validation(self):
        with pytest.raises(ValueError):
            geomean([])
        with pytest.raises(ValueError):
            geomean([1.0, -1.0])
        assert geomean([2.0, 8.0]) == pytest.approx(4.0)


#: active ratios from a view that sees almost nothing to one that sees all
OOC_RATIOS = (0.01, 0.05, 0.2, 0.5, 1.0)
OOC_N = 3_500_000
OOC_PIXELS = 1920 * 1080


class TestOutOfCoreDiskTier:
    """The modeled disk tier: pages are raw, so the disk floor is the
    spilled shards' pageable state, and the prefetch lane moves the
    stall, never the disk work."""

    def setup_method(self):
        self.cost = CostModel(get_platform("laptop_4070m"))

    def iteration(self, system, ratio, **kw):
        return simulate_iteration(
            system, self.cost, OOC_N, ratio, OOC_PIXELS, **kw
        )

    @pytest.mark.parametrize("n", [1_000, 1_000_003])
    @pytest.mark.parametrize(
        "shards, resident", [(1, 1), (4, 1), (4, 2), (4, 4), (10, 3), (3, 5)]
    )
    def test_disk_and_resident_state_tile_the_shards(self, n, shards, resident):
        """What is not resident is on disk, byte for byte: three raw
        copies (params, m, v) of every spilled shard's columns."""
        per_shard = -(-n // shards)
        resident_rows = min(resident, shards) * per_shard
        pageable = 3 * layout.param_bytes(
            shards * per_shard, layout.NON_GEOMETRIC_DIM
        )
        resident_state = 3 * layout.param_bytes(
            resident_rows, layout.NON_GEOMETRIC_DIM
        )
        assert disk_state_bytes(n, shards, resident) == pageable - resident_state

    @pytest.mark.parametrize("ratio", OOC_RATIOS)
    def test_async_stalls_no_more_than_sync(self, ratio):
        sync = self.iteration("outofcore", ratio)
        overlapped = self.iteration("outofcore_async", ratio)
        assert overlapped.breakdown["disk"] == sync.breakdown["disk"]
        assert overlapped.breakdown["disk_stall"] <= sync.breakdown["disk_stall"]
        assert overlapped.time <= sync.time

    @pytest.mark.parametrize("ratio", OOC_RATIOS)
    def test_sync_stalls_on_the_whole_round_trip(self, ratio):
        """Page-outs are written by the thread that spills: the
        synchronous tier stalls on every paged byte, in and out."""
        sync = self.iteration("outofcore", ratio)
        assert sync.breakdown["disk_stall"] == sync.breakdown["disk"] > 0

    @pytest.mark.parametrize("ratio", OOC_RATIOS)
    def test_prefetch_moves_only_the_stall(self, ratio):
        sync = self.iteration("outofcore", ratio)
        overlapped = self.iteration("outofcore_async", ratio)
        for key in set(sync.breakdown) - {"disk_stall"}:
            assert overlapped.breakdown[key] == sync.breakdown[key], key
        hidden = sync.breakdown["disk_stall"] - overlapped.breakdown["disk_stall"]
        assert sync.time - overlapped.time == pytest.approx(hidden)

    @pytest.mark.parametrize(
        "n, shards, resident, staging",
        [
            (1_000, 4, 1, 0),
            (1_000, 4, 1, 1),
            (1_000_003, 4, 2, 2),
            (1_000, 3, 5, 0),
            (1_000, 4, 1, 9),
            (10, 10, 3, 1),
        ],
    )
    def test_host_floor_is_resident_state_staging_and_counters(
        self, n, shards, resident, staging
    ):
        """Resident shards hold their 4-copy training state, each staged
        snapshot 3 copies (no gradients), both capped at the shard count,
        and every Gaussian keeps its 1-byte defer counter."""
        per_shard = -(-n // shards)
        state = layout.train_state_bytes(
            min(resident, shards) * per_shard, layout.NON_GEOMETRIC_DIM
        )
        staged = 3 * layout.param_bytes(
            min(staging, shards) * per_shard, layout.NON_GEOMETRIC_DIM
        )
        assert outofcore_host_state_bytes(
            n, shards, resident, staging
        ) == state + staged + n

    @pytest.mark.parametrize(
        "kw", [dict(resident_shards=0), dict(staging_shards=-1)]
    )
    def test_host_floor_rejects_bad_counts(self, kw):
        with pytest.raises(ValueError):
            outofcore_host_state_bytes(1_000, **kw)

    @pytest.mark.parametrize("ratio", OOC_RATIOS)
    def test_every_shard_resident_pages_nothing(self, ratio):
        """A resident budget that holds every shard leaves nothing to
        page: the out-of-core iteration is the sharded one."""
        sharded = self.iteration("sharded", ratio, num_shards=4)
        for system in ("outofcore", "outofcore_async"):
            ooc = self.iteration(system, ratio, num_shards=4, resident_shards=4)
            assert ooc.breakdown["disk"] == ooc.breakdown["disk_stall"] == 0.0
            assert ooc.time == sharded.time


class TestModelAnchors:
    """Every modelled system and default stands for code that runs."""

    def test_shard_defaults_mirror_the_config(self):
        config = GSScaleConfig()
        assert DEFAULT_OUTOFCORE_SHARDS == config.num_shards
        assert DEFAULT_RESIDENT_SHARDS == config.resident_shards

    @pytest.mark.parametrize("name", SYSTEMS)
    def test_every_modelled_system_is_functional(self, name):
        assert name.removesuffix("_async") in SYSTEM_NAMES
