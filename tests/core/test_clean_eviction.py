"""A clean shard spills for free: the dirty rule of ``DiskStore``.

A page-out is a write, so a spill records one only when the store's state
changed since its last page-out. Every operation that writes a row makes
the next spill write and record a page-out whose pages hold the new
arrays; every operation that does not leaves the next spill a pure
eviction — ``clean_evictions`` + 1, the ledger and the page files
untouched. The dirty rule does not follow the page-in's route: the
``adopted`` cases take every page-in as a prefetch snapshot adopted
(``preload`` / ``adopt``) instead of the synchronous read.
"""

import numpy as np
import pytest

from repro.core.stores import DiskStore
from repro.core.systems import TransferLedger
from repro.gaussians import layout
from repro.optim.base import AdamConfig
from repro.sim.memory import MemoryTracker
from test_store_conformance import AdoptingDiskStore

N = 20
ADAM = AdamConfig(lr=5e-3)
FIELDS = ("params", "m", "v")
EMPTY = np.empty(0, dtype=np.int64)


def _grads(ids, seed=1):
    return np.random.default_rng(seed).normal(size=(ids.size, layout.PARAM_DIM))


def builder(tmp_path, store_cls):
    """``build(max_defer=3)`` -> a resident ``store_cls``."""

    def build(name="store", max_defer=3):
        return store_cls(
            np.random.default_rng(0).normal(size=(N, layout.PARAM_DIM)),
            layout.ALL_BLOCK, ADAM, MemoryTracker(), TransferLedger(),
            spill_path=str(tmp_path / name), max_defer=max_defer,
        )

    return build


@pytest.fixture
def make(tmp_path):
    return builder(tmp_path, DiskStore)


@pytest.fixture
def make_adopting(tmp_path):
    return builder(tmp_path, AdoptingDiskStore)


def file_bytes(store):
    out = {}
    for field, page in store.pages.items():
        with open(page.path, "rb") as fh:
            out[field] = fh.read()
    return out


def page_arrays(store):
    """What the pages read back as."""
    return {field: page.read() for field, page in store.pages.items()}


def arrays(store):
    opt = store.optimizer
    return {field: getattr(opt, field).copy() for field in FIELDS}


def same_bytes(a, b):
    # uint8 views: -0.0 and +0.0 differ, as they do on disk
    return a.dtype == b.dtype and np.array_equal(
        np.ascontiguousarray(a).view(np.uint8),
        np.ascontiguousarray(b).view(np.uint8),
    )


def trained(store):
    """A few steps of real math, spilled and paged back in: a
    resident, clean store with live moments and drifting counters."""
    for step in range(3):
        ids = np.arange(step % 2, N, 2)
        store.stage(ids)
        store.unstage(ids)
        store.commit()
        store.return_grads(ids, _grads(ids, seed=step))
    store.commit()
    store.spill()
    store.page_in()
    assert store.is_resident and not store.is_dirty
    return store


# -- operations that write rows -----------------------------------------------
def op_commit(store):
    ids = np.arange(0, N, 3)
    store.return_grads(ids, _grads(ids))
    store.commit()


def op_saturated_commit(store):
    # empty ticks until a defer counter saturates and its row is restored
    for _ in range(store.optimizer.max_defer + 1):
        store.return_grads(EMPTY, _grads(EMPTY))
        store.commit()


def op_spilled_commit(store):
    store.spill()  # a clean eviction; the commit pages the rows back in
    op_commit(store)


def op_spilled_saturated_commit(store):
    store.spill()
    op_saturated_commit(store)


def op_flush(store):
    store.spill()  # a clean eviction; the drifting counters force a page-in
    store.flush()


def op_load_state_dict(store):
    state = {k: np.array(v) for k, v in store.state_dict().items()}
    state["params"] += 1.0
    state["m"][0] = 0.5
    store.load_state_dict(state)


DIRTYING = {
    "commit": op_commit,
    "saturated_commit": op_saturated_commit,
    "spilled_commit": op_spilled_commit,
    "spilled_saturated_commit": op_spilled_saturated_commit,
    "flush": op_flush,
    "load_state_dict": op_load_state_dict,
}


def assert_spill_writes(store, before):
    """The next spill records one page-out, and the pages then hold the
    arrays — changed exactly where they changed."""
    assert store.is_dirty
    want = arrays(store)
    old_files = file_bytes(store) if before else None
    count, clean = store.ledger.page_out_count, store.stats.clean_evictions
    store.spill()
    assert store.ledger.page_out_count == count + 1
    assert store.stats.clean_evictions == clean
    got, files = page_arrays(store), file_bytes(store)
    for field in FIELDS:
        expect = want[field]
        assert same_bytes(got[field], expect), field
        if before:
            moved = not same_bytes(expect, before[field])
            assert (files[field] != old_files[field]) == moved, field


def row_write_case(make, name):
    op = DIRTYING[name]
    store = trained(make())
    before = page_arrays(store)
    op(store)
    if not store.is_resident:
        store.page_in()
    assert_spill_writes(store, before)
    assert any(
        not same_bytes(page_arrays(store)[f], before[f]) for f in FIELDS
    )
    return store


@pytest.mark.parametrize("name", DIRTYING)
def test_a_row_write_makes_the_next_spill_write(make, name):
    row_write_case(make, name)


@pytest.mark.parametrize("name", DIRTYING)
def test_a_row_write_after_an_adopted_page_in_makes_the_next_spill_write(
    make_adopting, name
):
    store = row_write_case(make_adopting, name)
    assert store.adoptions > 0 and store.reads == store.adoptions


def test_construction_is_dirty(make):
    store = make()
    assert_spill_writes(store, None)


# -- operations that write no row --------------------------------------------
def op_stage(store):
    ids = np.arange(0, N, 2)
    store.stage(ids)
    store.unstage(ids)


def op_forwarded_return_grads(store):
    ids = np.arange(N)
    store.return_grads(ids, _grads(ids))  # parked for the next commit


def op_materialize(store):
    store.materialize()
    store.materialize(np.arange(3))


def op_state_dict(store):
    store.state_dict()


def op_metadata_commit(store):
    # an empty batch with no saturated counter updates no row
    store.return_grads(EMPTY, _grads(EMPTY))
    store.commit()


def op_spilled_metadata_commit(store):
    store.spill()
    store.return_grads(EMPTY, _grads(EMPTY))
    store.commit()
    assert not store.is_resident
    store.page_in()


CLEAN = {
    "stage": op_stage,
    "forwarded_return_grads": op_forwarded_return_grads,
    "materialize": op_materialize,
    "state_dict": op_state_dict,
    "metadata_commit": op_metadata_commit,
    "spilled_metadata_commit": op_spilled_metadata_commit,
}


def no_row_write_case(make, name):
    store = trained(make(max_defer=15))
    CLEAN[name](store)
    assert store.is_resident and not store.is_dirty
    files = file_bytes(store)
    ledger = store.ledger.counts()
    clean = store.stats.clean_evictions
    host = store.host_memory.live_bytes
    epoch = store._spill_epoch
    store.spill()
    assert not store.is_resident
    assert store.stats.clean_evictions == clean + 1
    assert store.ledger.counts() == ledger
    assert store.host_memory.live_bytes < host  # the host bytes are freed
    assert store._spill_epoch == epoch + 1
    assert file_bytes(store) == files
    # and the eviction loses nothing
    want = page_arrays(store)
    store.page_in()
    for field in FIELDS:
        assert same_bytes(getattr(store.optimizer, field), want[field])
    return store


@pytest.mark.parametrize("name", CLEAN)
def test_no_row_write_leaves_the_next_spill_free(make, name):
    no_row_write_case(make, name)


@pytest.mark.parametrize("name", CLEAN)
def test_no_row_write_after_an_adopted_page_in_leaves_the_next_spill_free(
    make_adopting, name
):
    store = no_row_write_case(make_adopting, name)
    assert store.adoptions > 0 and store.reads == store.adoptions


def test_system_rolls_up_clean_evictions_across_rebuilds(tmp_path):
    """``OutOfCoreGSScaleSystem``'s run counters — ``clean_evictions``,
    the ledger's ``page_out_bytes`` and the hinted shard visits
    ``prefetch_hits + prefetch_misses`` — survive a densification
    rebuild: none of them goes down across it."""
    from repro.core import GSScaleConfig, Trainer
    from repro.datasets import SyntheticSceneConfig, build_scene
    from repro.densify import DensifyConfig

    scene = build_scene(
        SyntheticSceneConfig(
            num_points=120, width=24, height=18, num_train_cameras=4,
            num_test_cameras=1, altitude=9.0, seed=5,
        )
    )

    def counters(system):
        return {
            "clean_evictions": system.clean_evictions,
            "page_out_bytes": system.ledger.page_out_bytes,
            "hinted": system.prefetch_hits + system.prefetch_misses,
        }

    trainer = Trainer(
        scene.initial.copy(),
        GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=2,
            scene_extent=scene.extent, ssim_lambda=0.0, mem_limit=1.0,
            seed=0, spill_dir=str(tmp_path / "spill"), async_prefetch=True,
        ),
        densify=DensifyConfig(
            interval=4, start_iteration=4, stop_iteration=5,
            grad_threshold=1e-6,
        ),
    )
    system = trainer.system
    before_rebuild = []
    rebuild = system.rebuild

    def recording_rebuild(model):
        before_rebuild.append(counters(system))
        rebuild(model)

    system.rebuild = recording_rebuild
    # two steps after the rebuild: fewer hinted visits than the four
    # before it, so a counter the rebuild reset would go down
    history = trainer.train(scene.train_cameras, scene.train_images, 6)
    assert [r.iteration for r in history.densify_reports] == [4]
    [before] = before_rebuild
    assert before["clean_evictions"] > 0  # the old stores evicted clean
    assert before["hinted"] > 0
    after = counters(system)
    for name, value in before.items():
        assert after[name] >= value, name
    ledger = system.ledger
    assert ledger.page_out_count + system.clean_evictions >= ledger.page_in_count
