"""Lane interleavings: the out-of-core pipeline's two background lanes
(``lane:prefetch``, ``lane:writeback``) may run late or fail without
moving a bit.

One 4-shard ``outofcore`` run, two shards resident, depth-2 async
prefetch plus write-behind:

* a ``delay`` plan on either lane — every task, or the even-numbered
  ones only — gives the undelayed run's losses, parameters, moments,
  prefetch hit / miss counts, ledger counts and page-file bytes;
* a failed prefetch ticket degrades its batch to synchronous page-ins
  (counted as misses) with the same trajectory;
* a failed page-out surfaces at ``finalize()``'s drain, and the store
  re-adopts the page that never landed and writes it again;
* across a densification rebuild, whose new stores write the same
  ``shard{k}_host.*`` files, a delayed write-behind lane moves no bit and
  a failed page-out surfaces at the fence before the rebuild;
* a dropped system is freed by reference counting, lane threads and all.

Equalities of bytes, not tolerances.
"""

import gc
import os
import threading
import time
import weakref

import numpy as np
import pytest

from repro.cameras import Camera
from repro.core import GSScaleConfig, Trainer
from repro.densify import DensifyConfig
from repro.faults import Fault, FaultPlan, InjectedFaultError, active_plan
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
        async_prefetch=True, prefetch_depth=2, write_behind=True,
        spill_dir=str(spill_dir),
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


@pytest.mark.parametrize("lane", ["prefetch", "writeback"])
@pytest.mark.parametrize("which", ["every", "even", "odd"])
def test_a_delayed_lane_moves_no_bit(undelayed, clustered, tmp_path, lane, which):
    want = undelayed
    point = f"lane:{lane}"
    if which == "every":
        faults = (Fault(point, "delay", times=10**6, seconds=0.01),)
    else:
        first = 0 if which == "even" else 1
        faults = tuple(
            Fault(point, "delay", index=i, seconds=0.01)
            for i in range(first, 64, 2)
        )
    got = train(clustered, tmp_path, plan(tmp_path, *faults))
    assert os.listdir(tmp_path / "tokens")  # the delays fired
    for key in want:
        assert got[key] == want[key], key


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


def test_a_failed_page_out_surfaces_at_drain_and_is_rewritten(
    undelayed, clustered, tmp_path
):
    """Every page-out fails: no write ever lands, so which stores still
    hold an unwritten page-out at the end does not depend on timing."""
    want = undelayed
    _, cameras, images = clustered
    spill_dir = tmp_path / "spill"
    t = trainer(clustered, spill_dir)
    with active_plan(plan(
        tmp_path, Fault("lane:writeback", "raise", times=10**6),
    )):
        with pytest.raises(InjectedFaultError, match=r"\(visit 0\)"):
            t.train(cameras, images, STEPS)  # raised by its finalize()
    failed = [
        store for store in t.system.shard_host_stores
        if store._pending_write is not None
    ]
    assert failed
    for store in failed:
        store.page_in()  # re-adopts the page-out that never landed
        assert store.is_dirty
        store.spill()  # and queues it again
    got = fingerprint(t, [], spill_dir)
    for key in ("params", "moments", "pages"):
        assert got[key] == want[key], key


@pytest.fixture(scope="module")
def undelayed_rebuild(clustered, tmp_path_factory):
    want = train(clustered, tmp_path_factory.mktemp("rebuild"), densify=DENSIFY)
    assert want["num_gaussians"] > clustered[0].num_gaussians  # it densified
    return want


def test_a_delayed_writeback_lane_across_a_rebuild_moves_no_bit(
    undelayed_rebuild, clustered, tmp_path
):
    """The rebuild fences the lanes before the new stores reuse the spill
    paths: no old page-out lands over a new store's page."""
    want = undelayed_rebuild
    got = train(clustered, tmp_path, plan(
        tmp_path, Fault("lane:writeback", "delay", times=10**6, seconds=0.01),
    ), densify=DENSIFY)
    assert os.listdir(tmp_path / "tokens")  # the delays fired
    for key in want:
        assert got[key] == want[key], key


class _AtRebuild(Exception):
    pass


def test_a_failed_page_out_surfaces_at_the_rebuild_fence(clustered, tmp_path):
    """Every page-out fails: the first fence, the one before the rebuild,
    raises the first failure, and the rebuild never runs over the pages
    that did not land. Re-adopted and rewritten, they hold what the
    undelayed run held at its rebuild."""
    _, cameras, images = clustered
    ref = trainer(clustered, tmp_path / "ref", DENSIFY)

    def stop(model):
        raise _AtRebuild

    ref.system.rebuild = stop
    with pytest.raises(_AtRebuild):
        ref.train(cameras, images, STEPS)
    want = fingerprint(ref, [], tmp_path / "ref")

    spill_dir = tmp_path / "spill"
    t = trainer(clustered, spill_dir, DENSIFY)
    with active_plan(plan(
        tmp_path, Fault("lane:writeback", "raise", times=10**6),
    )):
        with pytest.raises(InjectedFaultError, match=r"\(visit 0\)"):
            t.train(cameras, images, STEPS)
    assert t.system.num_gaussians == clustered[0].num_gaussians
    failed = [
        store for store in t.system.shard_host_stores
        if store._pending_write is not None
    ]
    assert failed
    for store in failed:
        store.page_in()  # re-adopts the page-out that never landed
        assert store.is_dirty
        store.spill()  # and queues it again
    got = fingerprint(t, [], spill_dir)
    for key in ("params", "moments", "pages"):
        assert got[key] == want[key], key


def test_a_dropped_system_is_freed_with_its_lanes(clustered, tmp_path):
    """No reference cycle: with the collector off, an un-finalized system
    whose write-behind lane still holds page-outs is freed the moment it
    is dropped, and both lane threads exit."""
    _, cameras, images = clustered
    before = set(threading.enumerate())
    gc.disable()
    try:
        with active_plan(plan(
            tmp_path, Fault("lane:writeback", "delay", times=10**6, seconds=0.05),
        )):
            system = trainer(clustered, tmp_path / "spill").system
            for i in range(4):
                system.hint_upcoming_views([cameras[(i + 1) % 4]])
                system.step(cameras[i], images[i])
            assert not system._writer._last.done()  # page-outs still queued
            lanes = {
                th.name.rsplit("_", 1)[0]: th
                for th in set(threading.enumerate()) - before
            }
            assert sorted(lanes) == ["gsscale-prefetch", "gsscale-writeback"]
            ref = weakref.ref(system)
            del system
            assert ref() is None
            lanes["gsscale-prefetch"].join(timeout=30)
            assert not lanes["gsscale-prefetch"].is_alive()
    finally:
        gc.enable()
    # a resident store and its ResidentSet refer to each other, and the
    # stores refer to the writer: it goes with them, at the first
    # collection after its queued page-outs (which hold a store) ran
    writeback = lanes["gsscale-writeback"]
    deadline = time.monotonic() + 30
    while writeback.is_alive() and time.monotonic() < deadline:
        gc.collect()
        writeback.join(timeout=0.1)
    assert not writeback.is_alive()
