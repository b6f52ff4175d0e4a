"""Lane interleavings: the out-of-core pipeline's background lane
(``lane:prefetch``) may run late or fail without moving a bit.

One 4-shard ``outofcore`` run, two shards resident, depth-2 async
prefetch:

* a seeded fuzzer draws per-ticket ``delay``s and occasional ``raise``s
  on the lane; every run gives the undelayed run's losses, parameters,
  moments, ledger counts and page-file bytes, and the same number of
  hinted shard visits (``prefetch_hits + prefetch_misses``) — a failed
  ticket only moves visits from hits to misses;
* a failed prefetch ticket degrades its batch to synchronous page-ins
  (counted as misses) with the same trajectory;
* across a densification rebuild, whose new stores write the same
  ``shard{k}_host.*`` files, a delayed or failing prefetch lane moves no
  bit;
* a dropped system is freed by reference counting, lane thread and all.

Equalities of bytes, not tolerances.
"""

import gc
import os
import threading
import weakref

import numpy as np
import pytest

from repro.cameras import Camera
from repro.core import GSScaleConfig, Trainer
from repro.densify import DensifyConfig
from repro.faults import Fault, FaultPlan, active_plan
from repro.gaussians import GaussianModel
from repro.render import render

CENTERS = np.array(
    [[-6.0, -6.0, 0.0], [6.0, -6.0, 0.0], [-6.0, 6.0, 0.0], [6.0, 6.0, 0.0]]
)
STEPS = 12
#: one densification rebuild, after step 6
DENSIFY = DensifyConfig(
    interval=6, start_iteration=6, stop_iteration=7, grad_threshold=1e-6,
)


@pytest.fixture(scope="module")
def clustered():
    """Four separated clusters and one narrow camera on each: every view
    culls to one spatial shard, so the prefetch lane stages real hits."""
    rng = np.random.default_rng(3)
    means = np.concatenate(
        [c + rng.normal(scale=0.4, size=(40, 3)) for c in CENTERS]
    )
    n = means.shape[0]
    quats = np.zeros((n, 4))
    quats[:, 0] = 1.0
    attrs = dict(
        log_scales=np.full((n, 3), np.log(0.05)), quats=quats,
        opacity_logits=rng.uniform(0.5, 1.5, size=n), dtype=np.float64,
    )
    sh = rng.normal(size=(n, 16, 3)) * 0.2
    model = GaussianModel.from_attributes(means, sh=sh, **attrs)
    gt = GaussianModel.from_attributes(
        means, sh=sh + rng.normal(size=sh.shape) * 0.05, **attrs
    )
    cameras = [
        Camera.look_at(
            c + np.array([0.0, 0.0, 5.0]), c, up=(0.0, 1.0, 0.0),
            width=16, height=12, fov_x_deg=40.0,
        )
        for c in CENTERS
    ]
    return model, cameras, [render(gt, cam).image for cam in cameras]


def trainer(clustered, spill_dir, densify=None):
    model, _, _ = clustered
    return Trainer(model.copy(), GSScaleConfig(
        system="outofcore", num_shards=4, resident_shards=2,
        scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
        async_prefetch=True, prefetch_depth=2, spill_dir=str(spill_dir),
    ), densify=densify)


def fingerprint(t, losses, spill_dir):
    """Everything a lane's timing must not move, after a final spill of
    every shard (so the page files hold the final state)."""
    system = t.system
    system.spill_inactive([])
    system.finalize()
    pages = {}
    for name in sorted(os.listdir(spill_dir)):
        with open(os.path.join(spill_dir, name), "rb") as fh:
            pages[name] = fh.read()
    moments = [
        (store.state_dict()["m"].tobytes(), store.state_dict()["v"].tobytes())
        for _, store, _ in system.checkpoint_entries()
    ]
    return {
        "losses": np.array(losses).tobytes(),
        "params": system.materialized_model().params.tobytes(),
        "moments": moments,
        "prefetch": (system.prefetch_hits, system.prefetch_misses),
        "ledger": system.ledger.counts(),
        "pages": pages,
        "num_gaussians": system.num_gaussians,
    }


def train(clustered, tmp_path, plan=None, densify=None):
    _, cameras, images = clustered
    spill_dir = tmp_path / "spill"
    t = trainer(clustered, spill_dir, densify)
    if plan is None:
        steps = t.train(cameras, images, STEPS).steps
    else:
        with active_plan(plan):
            steps = t.train(cameras, images, STEPS).steps
    return fingerprint(t, [s.loss for s in steps], spill_dir)


@pytest.fixture(scope="module")
def undelayed(clustered, tmp_path_factory):
    want = train(clustered, tmp_path_factory.mktemp("undelayed"))
    assert want["prefetch"][0] > 0  # the lane stages views that hit
    return want


def plan(tmp_path, *faults):
    return FaultPlan(token_dir=str(tmp_path / "tokens"), faults=faults)


def assert_same_run(got, want):
    """``got`` equals ``want`` in every key; of the prefetch counts only
    the sum must match (a failed ticket turns hits into misses)."""
    hits, misses = got["prefetch"]
    assert hits + misses == sum(want["prefetch"])
    assert hits <= want["prefetch"][0]
    for key in want:
        if key != "prefetch":
            assert got[key] == want[key], key


#: delays the fuzzer draws from, in seconds
DELAYS = (0.0, 0.001, 0.004, 0.01)


def fuzzed_faults(seed, tickets=16):
    """Per-ticket faults on ``lane:prefetch``: a delay on most tickets,
    a raise on about one in ten."""
    rng = np.random.default_rng(seed)
    faults = []
    for index in range(tickets):
        r = rng.random()
        if r < 0.1:
            faults.append(Fault("lane:prefetch", "raise", index=index))
        elif r < 0.7:
            seconds = float(rng.choice(DELAYS))
            faults.append(
                Fault("lane:prefetch", "delay", index=index, seconds=seconds)
            )
    return tuple(faults)


@pytest.mark.parametrize("seed", range(24))
def test_a_fuzzed_prefetch_lane_moves_no_bit(
    undelayed, clustered, tmp_path, seed
):
    want = undelayed
    faults = fuzzed_faults(seed)
    got = train(clustered, tmp_path, plan(tmp_path, *faults))
    fired = set(os.listdir(tmp_path / "tokens"))
    assert fired  # the lane ran into the plan
    raised = any(
        f"f{i}.0" in fired
        for i, fault in enumerate(faults)
        if fault.action == "raise"
    )
    assert_same_run(got, want)
    if not raised:  # delays alone move nothing, not even the split
        assert got["prefetch"] == want["prefetch"]


@pytest.mark.parametrize("ticket", [0, 1, 2])
def test_a_failed_prefetch_ticket_pages_in_synchronously(
    undelayed, clustered, tmp_path, ticket
):
    want = undelayed
    got = train(clustered, tmp_path, plan(
        tmp_path, Fault("lane:prefetch", "raise", index=ticket),
    ))
    hits, misses = got.pop("prefetch")
    assert misses > want["prefetch"][1]  # take() counted that batch a miss
    assert hits + misses == sum(want["prefetch"])
    for key in got:
        assert got[key] == want[key], key


@pytest.fixture(scope="module")
def undelayed_rebuild(clustered, tmp_path_factory):
    want = train(clustered, tmp_path_factory.mktemp("rebuild"), densify=DENSIFY)
    assert want["num_gaussians"] > clustered[0].num_gaussians  # it densified
    return want


@pytest.mark.parametrize("action", ["delay", "raise"])
def test_a_faulty_prefetch_lane_across_a_rebuild_moves_no_bit(
    undelayed_rebuild, clustered, tmp_path, action
):
    """The rebuild fences the lane and retargets it at the new stores,
    which reuse the spill paths: a lane whose every ticket runs late, or
    fails, still gives the undelayed run's bits."""
    want = undelayed_rebuild
    got = train(clustered, tmp_path, plan(
        tmp_path,
        Fault("lane:prefetch", action, times=10**6, seconds=0.01),
    ), densify=DENSIFY)
    assert os.listdir(tmp_path / "tokens")  # the faults fired
    assert_same_run(got, want)
    if action == "delay":
        assert got["prefetch"] == want["prefetch"]
    else:
        assert got["prefetch"][1] > want["prefetch"][1]


def test_a_dropped_system_is_freed_with_its_lane(clustered, tmp_path):
    """No reference cycle: with the collector off, an un-finalized system
    whose prefetch lane still runs a ticket is freed the moment it is
    dropped, and the lane thread exits."""
    _, cameras, images = clustered
    before = set(threading.enumerate())
    gc.disable()
    try:
        with active_plan(plan(
            tmp_path, Fault("lane:prefetch", "delay", times=10**6, seconds=0.05),
        )):
            system = trainer(clustered, tmp_path / "spill").system
            for i in range(4):
                system.hint_upcoming_views([cameras[(i + 1) % 4]])
                system.step(cameras[i], images[i])
            assert not system._prefetcher._lane._last.done()  # still staging
            lanes = {
                th.name.rsplit("_", 1)[0]: th
                for th in set(threading.enumerate()) - before
            }
            assert sorted(lanes) == ["gsscale-prefetch"]
            ref = weakref.ref(system)
            del system
            assert ref() is None
            lanes["gsscale-prefetch"].join(timeout=30)
            assert not lanes["gsscale-prefetch"].is_alive()
    finally:
        gc.enable()
