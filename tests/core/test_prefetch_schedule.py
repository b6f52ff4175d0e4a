"""Exact counts of hand-made depth-2 out-of-core schedules.

The numerics of the out-of-core tier never depend on its schedule (the
bit-identity suites pin that), so a schedule fault shows only in which
snapshots are read, how hinted visits split into hits and misses, and
which shards are evicted when. The suites that check those with ``>=``
bounds pass on a ``take`` that leaves the staging slot full, on a
prefetch that stages the last hinted view (``nxt[-1]``) instead of the
next one (``nxt[0]``), and on a spill keep-set whose budget checks
(the outer one over the hinted views, the inner one over a view's
shards) read ``>`` and so admit one shard past the resident budget.
This suite pins them exactly, and each of those four faults fails it,
as does staging the view after a repeated one a step early.

Four separated clusters, one spatial shard each (clusters 0-3 land on
shards 0, 2, 1, 3), two shards resident, async prefetch at depth 2. The
narrow views ``s0``-``s3`` see one shard each; the wide view ``w`` sees
shards 1 and 3. Every step hints the next two views of the schedule, as
the trainer does. The prefetch lane runs its tasks inline, at the
moment they are scheduled, so a schedule is one fixed interleaving.
Three schedules: ``wide`` passes ``w`` through every narrow view;
``revisit`` returns to ``s0`` between other views, so a view is staged
while its shard is resident and the shard is evicted before its turn
(a slot kept across steps would hold that view staged empty, a miss
nothing repairs); ``repeat`` trains ``s0`` and ``w`` twice in a row,
so a step's hint starts with its own view, which stages nothing, and
the view after it is staged once, at its own turn.
"""

import numpy as np
import pytest

from repro.cameras import Camera
from repro.core import GSScaleConfig, create_system
from repro.core.stores import DiskStore
from repro.gaussians import GaussianModel
from repro.render import render

CENTERS = np.array(
    [[-6.0, -6.0, 0.0], [6.0, -6.0, 0.0], [-6.0, 6.0, 0.0], [6.0, 6.0, 0.0]]
)
#: each schedule and the counters it must give
SCHEDULES = {
    "wide": dict(
        schedule=("s3", "s2", "w", "s0", "w", "s1", "s2", "w"),
        active=[[3], [2], [1, 3], [0], [1, 3], [1], [2], [1, 3]],
        hits=7, misses=3,
        preloads=[2, 1, 3, 0, 1, 3, 1, 2, 1, 3],
        evictions=[3, 2, 3, 2, 0, 3, 1, 0, 3, 2, 3, 2],
        culls=["s2", "w", "w", "s2", "w"],
    ),
    "revisit": dict(
        schedule=("s0", "s2", "w", "s0", "s3", "s2", "s0", "w", "s1", "s0"),
        active=[[0], [2], [1, 3], [0], [3], [2], [0], [1, 3], [1], [0]],
        hits=10, misses=1,
        preloads=[2, 1, 3, 0, 3, 2, 0, 1, 3, 1, 0],
        evictions=[2, 3, 0, 2, 3, 2, 0, 1, 0, 3, 2, 0, 1, 0, 3, 1],
        culls=["s2", "w", "s3", "s2", "s0", "w", "s0"],
    ),
    "repeat": dict(
        schedule=("s3", "w", "s0", "s0", "s2", "w", "w"),
        active=[[3], [1, 3], [0], [0], [2], [1, 3], [1, 3]],
        hits=6, misses=0,
        preloads=[1, 3, 0, 2, 1, 3],
        evictions=[2, 1, 3, 0, 1, 3, 0, 2, 3, 2],
        culls=["w", "s2", "s2", "w"],
    ),
}


def _camera(target, distance=5.0, fov_x_deg=40.0):
    target = np.asarray(target, dtype=np.float64)
    return Camera.look_at(
        target + np.array([0.0, 0.0, distance]), target, up=(0.0, 1.0, 0.0),
        width=16, height=12, fov_x_deg=fov_x_deg,
    )


@pytest.fixture(scope="module")
def scene():
    rng = np.random.default_rng(3)
    means = np.concatenate(
        [c + rng.normal(scale=0.4, size=(30, 3)) for c in CENTERS]
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
    views = {
        "s0": _camera(CENTERS[0]),
        "s2": _camera(CENTERS[1]),
        "s1": _camera(CENTERS[2]),
        "s3": _camera(CENTERS[3]),
        "w": _camera([0.0, 6.0, 0.0], distance=6.0, fov_x_deg=100.0),
    }
    images = {name: render(gt, cam).image for name, cam in views.items()}
    return model, views, images


class _InlineLane:
    """A prefetch lane that runs each task when it is submitted."""

    def submit(self, fn, *args):
        fn(*args)

    def drain(self):
        pass


@pytest.fixture(scope="module", params=sorted(SCHEDULES))
def run(request, scene):
    """A schedule's counters — hits, misses, ``DiskStore.preload``
    calls, the evicted shards in order, and the lookahead culls
    ``spill_inactive`` makes — beside the ones it must give."""
    want = SCHEDULES[request.param]
    schedule = want["schedule"]
    model, views, images = scene
    system = create_system(model.copy(), GSScaleConfig(
        system="outofcore", num_shards=4, resident_shards=2,
        scene_extent=8.0, ssim_lambda=0.0, mem_limit=1.0, seed=0,
        async_prefetch=True, prefetch_depth=2,
    ))
    system._prefetcher._lane = _InlineLane()
    stores = system.shard_host_stores
    preloads, evictions, culls = [], [], []
    mp = pytest.MonkeyPatch()
    preload, spill = DiskStore.preload, DiskStore.spill
    active_shard_ids = system.active_shard_ids

    def shard_of(store):
        return next(k for k, s in enumerate(stores) if s is store)

    def counting_preload(store):
        preloads.append(shard_of(store))
        return preload(store)

    def counting_spill(store):
        if store.is_resident:
            evictions.append(shard_of(store))
        spill(store)

    def counting_cull(camera):
        culls.append(next(v for v, cam in views.items() if cam is camera))
        return active_shard_ids(camera)

    mp.setattr(DiskStore, "preload", counting_preload)
    mp.setattr(DiskStore, "spill", counting_spill)
    mp.setattr(system, "active_shard_ids", counting_cull)
    active = []
    try:
        for i, name in enumerate(schedule):
            system.hint_upcoming_views([views[v] for v in schedule[i + 1:i + 3]])
            system.step(views[name], images[name])
            active.append(sorted(system.store.visible(views[name]).active_shards))
    finally:
        mp.undo()
    system.finalize()
    got = dict(
        hits=system.prefetch_hits, misses=system.prefetch_misses,
        preloads=preloads, evictions=evictions, culls=culls, active=active,
    )
    return got, want


def test_views_see_the_shards_the_schedule_assumes(run):
    got, want = run
    assert got["active"] == want["active"]


def test_hits_and_misses(run):
    """Every view after the first was hinted, and w's two shards count
    as two visits, except a repeated view, which no step stages. The
    slot stages the next view afresh at every step, so a shard evicted
    after an earlier look is read again and hits. A ``take`` that leaves
    the slot full counts visits for a repeated view no job staged;
    staging the last hinted view leaves the next one unstaged."""
    got, want = run
    assert (got["hits"], got["misses"]) == (want["hits"], want["misses"])


def test_preload_calls(run):
    """A view is staged once, at the step before its own: one
    ``preload`` call per shard it sees (a call on a resident shard reads
    nothing). Staging another view of the hint calls ``preload`` on
    other shards, and staging past a repeated view reads the view after
    it twice."""
    got, want = run
    assert got["preloads"] == want["preloads"]


def test_eviction_sequence(run):
    """The shards spilled from host memory, in order. A keep-set that
    admits one shard past the budget (keeping both of w's shards behind
    a one-shard view) keeps a shard this sequence evicts."""
    got, want = run
    assert got["evictions"] == want["evictions"]


def test_lookahead_culls_stop_at_the_budget(run):
    """``spill_inactive`` culls a hinted view only while the keep-set has
    room: the first hinted view behind each one-shard view with hints,
    never a view behind w, whose two shards fill the budget, and never a
    second hinted view, since the first one's shard already fills it."""
    got, want = run
    assert got["culls"] == want["culls"]
