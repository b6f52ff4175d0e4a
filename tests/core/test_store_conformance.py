"""Store-conformance harness: one suite, every ParameterStore placement.

Five store implementations share the ``ParameterStore`` protocol
(Device/Host/Hybrid/Sharded/Disk). This suite runs the same contract
against each of them through parameterized factories:

* the ``stage -> unstage -> commit -> return_grads`` trajectory matches a
  :class:`DeviceStore` oracle driven with identical gradients (bit-exact
  for every placement without the deferred approximation, and within the
  epsilon-factoring tolerance for deferred ones);
* every leaf's ``state_dict`` / ``load_state_dict`` round-trips
  bit-exactly into a freshly built store;
* ``visible(camera)`` equals ``frustum_cull`` over the materialized
  geometry, and ``leaves()`` tiles the packed matrix exactly once under
  the prefixes the checkpoint format pins;
* tracker charges return to their resident baseline and ledger traffic
  stays symmetric after ``flush`` — placement changes accounting, never
  numerics, and never leaks.

Adding a new placement means adding a factory here; the contract comes for
free.
"""

import dataclasses

import numpy as np
import pytest

from repro.cameras.camera import Camera
from repro.core import SYSTEM_NAMES, GSScaleConfig, create_system
from repro.core.checkpoint import load_checkpoint, save_checkpoint
from repro.core.stores import (
    DeviceStore,
    DiskStore,
    HostStore,
    HybridStore,
    ResidentSet,
    ShardedStore,
)
from repro.core.systems import TransferLedger
from repro.gaussians import GaussianModel, layout
from repro.optim.base import AdamConfig
from repro.render import frustum_cull, render
from repro.sim.memory import MemoryTracker

N_ROWS = 24
ADAM = AdamConfig(lr=1e-2)


def _params(n=N_ROWS, dim=layout.PARAM_DIM, seed=5):
    return np.random.default_rng(seed).normal(size=(n, dim))


@dataclasses.dataclass
class Harness:
    """A store under test plus everything needed to audit it."""

    store: object
    device_tracker: MemoryTracker
    ledger: TransferLedger
    exact: bool  # bit-exact vs the dense oracle (no deferred approximation)
    host_tracker: MemoryTracker | None = None
    resident_set: ResidentSet | None = None


def make_device(tmp_path):
    tracker = MemoryTracker()
    store = DeviceStore(_params(), layout.ALL_BLOCK, ADAM, tracker)
    return Harness(store, tracker, TransferLedger(), exact=True)


def make_host(tmp_path):
    tracker, ledger = MemoryTracker(), TransferLedger()
    store = HostStore(_params(), layout.ALL_BLOCK, ADAM, tracker, ledger)
    return Harness(store, tracker, ledger, exact=True)


def make_host_forwarding(tmp_path):
    tracker, ledger = MemoryTracker(), TransferLedger()
    store = HostStore(
        _params(), layout.ALL_BLOCK, ADAM, tracker, ledger, forwarding=True
    )
    return Harness(store, tracker, ledger, exact=True)


def make_host_deferred(tmp_path):
    tracker, ledger = MemoryTracker(), TransferLedger()
    store = HostStore(
        _params(), layout.ALL_BLOCK, ADAM, tracker, ledger,
        forwarding=True, deferred=True,
    )
    return Harness(store, tracker, ledger, exact=False)


def make_hybrid(tmp_path):
    tracker, ledger = MemoryTracker(), TransferLedger()
    p = _params()
    geo = DeviceStore(
        p[:, layout.GEOMETRIC_SLICE], layout.GEOMETRIC_BLOCK, ADAM, tracker,
        label="geo",
    )
    host = HostStore(
        p[:, layout.NON_GEOMETRIC_SLICE], layout.NON_GEOMETRIC_BLOCK, ADAM,
        tracker, ledger, forwarding=True,
    )
    return Harness(HybridStore([geo, host]), tracker, ledger, exact=True)


def make_sharded(tmp_path):
    tracker, ledger = MemoryTracker(), TransferLedger()
    p = _params()
    rows = [np.arange(k, N_ROWS, 3) for k in range(3)]  # interleaved shards
    stores = []
    for r in rows:
        sub_tracker = MemoryTracker(parent=tracker)
        sub_ledger = TransferLedger(parent=ledger)
        geo = DeviceStore(
            p[r][:, layout.GEOMETRIC_SLICE], layout.GEOMETRIC_BLOCK, ADAM,
            sub_tracker, label="geo",
        )
        host = HostStore(
            p[r][:, layout.NON_GEOMETRIC_SLICE], layout.NON_GEOMETRIC_BLOCK,
            ADAM, sub_tracker, sub_ledger, forwarding=True,
        )
        stores.append(HybridStore([geo, host]))
    return Harness(ShardedStore(rows, stores), tracker, ledger, exact=True)


def make_hybrid_deferred(tmp_path):
    """The ``gsscale`` composition: device geometry beside a deferred
    forwarding host block, whose staged rows commit early."""
    tracker, ledger = MemoryTracker(), TransferLedger()
    p = _params()
    geo = DeviceStore(
        p[:, layout.GEOMETRIC_SLICE], layout.GEOMETRIC_BLOCK, ADAM, tracker,
        label="geo",
    )
    host = HostStore(
        p[:, layout.NON_GEOMETRIC_SLICE], layout.NON_GEOMETRIC_BLOCK, ADAM,
        tracker, ledger, forwarding=True, deferred=True,
    )
    return Harness(HybridStore([geo, host]), tracker, ledger, exact=False)


def make_sharded_deferred(tmp_path):
    """The ``sharded`` composition: interleaved shards of
    :func:`make_hybrid_deferred`'s tree."""
    tracker, ledger = MemoryTracker(), TransferLedger()
    p = _params()
    rows = [np.arange(k, N_ROWS, 3) for k in range(3)]
    stores = []
    for r in rows:
        sub_tracker = MemoryTracker(parent=tracker)
        sub_ledger = TransferLedger(parent=ledger)
        geo = DeviceStore(
            p[r][:, layout.GEOMETRIC_SLICE], layout.GEOMETRIC_BLOCK, ADAM,
            sub_tracker, label="geo",
        )
        host = HostStore(
            p[r][:, layout.NON_GEOMETRIC_SLICE], layout.NON_GEOMETRIC_BLOCK,
            ADAM, sub_tracker, sub_ledger, forwarding=True, deferred=True,
        )
        stores.append(HybridStore([geo, host]))
    return Harness(ShardedStore(rows, stores), tracker, ledger, exact=False)


class AdoptingDiskStore(DiskStore):
    """A DiskStore whose every page-in is the async prefetch leg's: a
    :meth:`preload` snapshot handed to :meth:`adopt`, never the
    synchronous read. ``adoptions`` counts the page-ins taken that way,
    and ``reads`` every read of the pages (a spy on ``_read_pages``), so
    ``reads == adoptions`` says no synchronous read ran."""

    adoptions = 0
    reads = 0

    def _read_pages(self):
        self.reads += 1
        return super()._read_pages()

    def page_in(self):
        pre = self.preload()
        if pre is None:  # already resident: a touch
            return super().page_in()
        assert self.adopt(pre)  # nothing spills in between on one thread
        self.adoptions += 1


def make_disk(tmp_path, store_cls=DiskStore, max_defer=15):
    tracker, ledger = MemoryTracker(), TransferLedger()
    host_tracker = MemoryTracker()
    store = store_cls(
        _params(), layout.ALL_BLOCK, ADAM, tracker, ledger,
        spill_path=str(tmp_path / "conformance_disk"),
        host_memory=host_tracker, max_defer=max_defer,
    )
    return Harness(
        store, tracker, ledger, exact=False, host_tracker=host_tracker
    )


def make_disk_spilling(tmp_path, store_cls=DiskStore, max_defer=15):
    """DiskStore under a budget-1 resident set plus a sibling store, so
    every few operations the store under test is forcibly spilled."""
    tracker, ledger = MemoryTracker(), TransferLedger()
    host_tracker = MemoryTracker()
    rset = ResidentSet(budget=1)
    store = store_cls(
        _params(), layout.ALL_BLOCK, ADAM, tracker, ledger,
        spill_path=str(tmp_path / "conformance_spilling"),
        host_memory=host_tracker, resident_set=rset, max_defer=max_defer,
    )
    return Harness(
        store, tracker, ledger, exact=False,
        host_tracker=host_tracker, resident_set=rset,
    )


def adopting(make):
    """``make``'s store, paging in only through the prefetch leg's
    ``preload`` / ``adopt`` pair: the contract must not see the route."""

    def factory(tmp_path):
        return make(tmp_path, store_cls=AdoptingDiskStore)

    return factory


def saturating(make):
    """``make``'s store with ``max_defer=1``: every row a commit skips
    saturates, so the next commit restores it — the deferred counters'
    other extreme from the paper's 4-bit field."""

    def factory(tmp_path, store_cls=DiskStore):
        return make(tmp_path, store_cls=store_cls, max_defer=1)

    return factory


FACTORIES = {
    "device": make_device,
    "host": make_host,
    "host_forwarding": make_host_forwarding,
    "host_deferred": make_host_deferred,
    "hybrid": make_hybrid,
    "hybrid_deferred": make_hybrid_deferred,
    "sharded": make_sharded,
    "sharded_deferred": make_sharded_deferred,
    "disk": make_disk,
    "disk_spilling": make_disk_spilling,
    "disk_saturating": saturating(make_disk),
    "disk_spilling_saturating": saturating(make_disk_spilling),
    "disk_adopting": adopting(make_disk),
    "disk_spilling_adopting": adopting(make_disk_spilling),
    "disk_saturating_adopting": adopting(saturating(make_disk)),
    "disk_spilling_saturating_adopting": adopting(
        saturating(make_disk_spilling)
    ),
}
#: the placements whose page-ins all go through ``preload`` / ``adopt``
ADOPTING = [name for name in FACTORIES if name.endswith("_adopting")]

param_store = pytest.mark.parametrize("factory", FACTORIES, ids=FACTORIES)
#: the placements that stage the pending step's values (parameter
#: forwarding): every one but the synchronous device and host stores
FORWARDING = [name for name in FACTORIES if name not in ("device", "host")]
param_forwarding = pytest.mark.parametrize("factory", FORWARDING, ids=FORWARDING)


def drive(store, steps=6, seed=9, spill_every=None):
    """Run the training-step protocol with deterministic gradients."""
    rng = np.random.default_rng(seed)
    for step in range(steps):
        size = int(rng.integers(0, N_ROWS))
        ids = np.sort(rng.choice(N_ROWS, size=size, replace=False))
        store.stage(ids)
        store.unstage(ids)
        store.commit()
        store.return_grads(ids, rng.normal(size=(ids.size, store.dim)))
        if spill_every and (step + 1) % spill_every == 0 and hasattr(store, "spill"):
            store.spill()
    store.flush()


class TestZeroRowStores:
    """The degenerate shard every partitioner can emit (empty spatial
    cell, more shards than splats) must satisfy the same contract: the
    full step protocol, spill/page-in, and state round-trips are no-ops
    that neither raise nor leak accounting."""

    def make_empty_disk(self, tmp_path):
        tracker, ledger = MemoryTracker(), TransferLedger()
        host_tracker = MemoryTracker()
        store = DiskStore(
            _params(0), layout.ALL_BLOCK, ADAM, tracker, ledger,
            spill_path=str(tmp_path / "empty"), host_memory=host_tracker,
        )
        return Harness(
            store, tracker, ledger, exact=False, host_tracker=host_tracker
        )

    def test_protocol_spill_and_materialize(self, tmp_path):
        h = self.make_empty_disk(tmp_path)
        ids = np.empty(0, dtype=np.int64)
        for _ in range(3):
            h.store.stage(ids)
            h.store.unstage(ids)
            h.store.commit()
            h.store.return_grads(ids, np.empty((0, h.store.dim)))
            h.store.spill()
        assert h.store.materialize().shape == (0, layout.PARAM_DIM)
        h.store.flush()
        assert h.ledger.h2d_bytes == h.ledger.d2h_bytes == 0

    def test_state_dict_roundtrip(self, tmp_path):
        h = self.make_empty_disk(tmp_path)
        saved = {k: np.array(v) for k, v in h.store.state_dict().items()}
        fresh = self.make_empty_disk(tmp_path / "fresh")
        fresh.store.load_state_dict(saved)
        assert fresh.store.materialize().shape == (0, layout.PARAM_DIM)

    def test_accounting_stays_at_baseline(self, tmp_path):
        h = self.make_empty_disk(tmp_path)
        device_baseline = h.device_tracker.live_bytes
        host_baseline = h.host_tracker.live_bytes
        h.store.spill()
        h.store.materialize()
        h.store.flush()
        assert h.device_tracker.live_bytes == device_baseline
        assert h.host_tracker.live_bytes == host_baseline


class TestAdoptRoute:
    """The adopting placements really page in through ``adopt``, and the
    route moves nothing: state, ledger and pages equal those of the same
    placement paging in with the synchronous read."""

    @pytest.mark.parametrize("factory", ADOPTING, ids=ADOPTING)
    def test_every_page_in_is_an_adoption(self, tmp_path, factory):
        h = FACTORIES[factory](tmp_path / "adopt")
        twin = FACTORIES[factory.removesuffix("_adopting")](tmp_path / "read")
        for store in (h.store, twin.store):
            drive(store, spill_every=2)
        assert h.store.adoptions > 0
        assert h.store.adoptions == h.ledger.page_in_count
        assert h.ledger.counts() == twin.ledger.counts()
        assert_same_state(tree_state(h.store), tree_state(twin.store))
        for store in (h.store, twin.store):
            store.spill()
        for field, page in h.store.pages.items():
            want = twin.store.pages[field].read()
            assert page.read().tobytes() == want.tobytes(), field


#: every disk placement: a DiskStore always forwards and always defers
DISK = [name for name in FACTORIES if name.startswith("disk")]


def host_twin(store):
    """A HostStore in ``store``'s mode: forwarding, deferred, the same
    counter saturation and the same initial rows."""
    return HostStore(
        _params(), layout.ALL_BLOCK, ADAM, MemoryTracker(), TransferLedger(),
        forwarding=True, deferred=True, max_defer=store.optimizer.max_defer,
    )


class TestDiskPlacementIsPure:
    """The disk tier is pure placement: its trajectory is bit-identical
    to a HostStore in the same mode, spilled, evicted or adopted, so the
    deferred approximation is the only thing between it and the dense
    oracle."""

    @pytest.mark.parametrize("factory", DISK, ids=DISK)
    def test_final_state_equals_the_host_store(self, tmp_path, factory):
        h = FACTORIES[factory](tmp_path)
        twin = host_twin(h.store)
        drive(h.store, spill_every=2)
        drive(twin)
        assert h.ledger.page_in_count > 0  # the placement really paged
        np.testing.assert_array_equal(h.store.materialize(), twin.materialize())
        got, want = h.store.state_dict(), twin.state_dict()
        assert set(got) == set(want)
        for key in want:
            np.testing.assert_array_equal(
                np.asarray(got[key]), want[key], err_msg=key
            )

    @pytest.mark.parametrize("factory", DISK, ids=DISK)
    def test_mid_run_materialize_equals_the_host_store(self, tmp_path, factory):
        h = FACTORIES[factory](tmp_path)
        twin = host_twin(h.store)
        rng = np.random.default_rng(3)
        for _ in range(4):
            ids = np.sort(rng.choice(N_ROWS, size=7, replace=False))
            grads = rng.normal(size=(ids.size, h.store.dim))
            for s in (h.store, twin):
                s.stage(ids)
                s.unstage(ids)
                s.commit()
                s.return_grads(ids, grads)
            h.store.spill()
            np.testing.assert_array_equal(
                h.store.materialize(), twin.materialize()
            )


class TestTrajectoryMatchesOracle:
    """stage/return_grads/commit numerics equal a DeviceStore oracle."""

    @param_store
    def test_final_parameters(self, tmp_path, factory):
        h = FACTORIES[factory](tmp_path)
        oracle = make_device(tmp_path)
        drive(h.store)
        drive(oracle.store)
        got = h.store.materialize()
        want = oracle.store.materialize()
        if h.exact:
            np.testing.assert_array_equal(got, want)
        else:
            # deferred Adam differs only by the epsilon factoring of
            # Equation 3 (Table 3: quality impact nil)
            np.testing.assert_allclose(got, want, rtol=1e-7, atol=1e-9)

    @param_store
    def test_mid_run_materialize_includes_lazy_state(self, tmp_path, factory):
        """materialize() equals the oracle *between* steps too (pending
        gradients and deferred drift must be folded in)."""
        h = FACTORIES[factory](tmp_path)
        oracle = make_device(tmp_path)
        rng_a, rng_b = (np.random.default_rng(3) for _ in range(2))
        for _ in range(4):
            ids = np.sort(rng_a.choice(N_ROWS, size=7, replace=False))
            np.testing.assert_array_equal(
                ids, np.sort(rng_b.choice(N_ROWS, size=7, replace=False))
            )
            grads = rng_a.normal(size=(ids.size, h.store.dim))
            rng_b.normal(size=(ids.size, oracle.store.dim))  # keep in sync
            for s in (h.store, oracle.store):
                s.stage(ids)
                s.unstage(ids)
                s.commit()
                s.return_grads(ids, grads)
            tol = {} if h.exact else dict(rtol=1e-7, atol=1e-9)
            np.testing.assert_allclose(
                h.store.materialize(), oracle.store.materialize(),
                rtol=tol.get("rtol", 0), atol=tol.get("atol", 0),
            )


class TestUnsortedGradientIds:
    """``return_grads`` does not ask for sorted ids. A forwarding store
    looks its parked gradients up by binary search, so the rows it stages
    next must still be the rows the commit writes — with ids parked as
    given, the peek dropped the pending gradients (off by a full ``lr``
    step) while the commit applied them."""

    IDS = np.array([17, 5, 21, 2, 9])

    @param_store
    def test_staged_rows_equal_committed_rows(self, tmp_path, factory):
        h = FACTORIES[factory](tmp_path)
        grads = np.random.default_rng(11).normal(size=(self.IDS.size, h.store.dim))
        h.store.return_grads(self.IDS, grads)
        seen = np.sort(self.IDS)
        staged = h.store.stage(seen)
        h.store.unstage(seen)
        h.store.commit()
        np.testing.assert_array_equal(staged, h.store.materialize(seen))

    @param_store
    def test_same_step_as_sorted_ids(self, tmp_path, factory):
        h, ref = FACTORIES[factory](tmp_path), FACTORIES[factory](tmp_path / "ref")
        grads = np.random.default_rng(11).normal(size=(self.IDS.size, h.store.dim))
        order = np.argsort(self.IDS)
        h.store.return_grads(self.IDS, grads)
        ref.store.return_grads(self.IDS[order], grads[order])
        for s in (h.store, ref.store):
            s.flush()
        np.testing.assert_array_equal(
            h.store.materialize(), ref.store.materialize()
        )


def assert_same_state(got, want):
    """Two :func:`tree_state` dicts agree byte for byte."""
    assert set(got) == set(want)
    for key, value in want.items():
        assert got[key].dtype == value.dtype, key
        assert got[key].tobytes() == value.tobytes(), key


class TestTwoStagesOneStep:
    """A split view stages twice before the lazy commit (one stage per
    region). Whether a forwarding store peeks its staged rows or commits
    them early, the step it commits is the one step its gradients ask
    for, and every stage sees that step's values."""

    A = np.array([0, 2, 3, 5, 8, 9, 13, 17, 20])
    B = np.array([1, 3, 5, 9, 11, 17, 18, 23])  # overlaps A on 3, 5, 9, 17

    def _pending(self, tmp_path, factory, name):
        """A store mid-run with a pending step over most rows."""
        h = FACTORIES[factory](tmp_path / name)
        drive(h.store, steps=3)
        # rows 6 and 7 get no gradient: a peeked row inside each region
        # when the deferred counter is not saturated
        ids = np.setdiff1d(np.arange(N_ROWS), [6, 7, 21])
        grads = np.random.default_rng(4).normal(size=(ids.size, h.store.dim))
        h.store.return_grads(ids, grads)
        return h

    @param_forwarding
    def test_a_row_staged_twice_is_stepped_once(self, tmp_path, factory):
        h = self._pending(tmp_path, factory, "twice")
        twin = self._pending(tmp_path, factory, "twin")
        first = h.store.stage(self.A)
        second = h.store.stage(self.B)
        both = np.intersect1d(self.A, self.B)
        assert (
            first[np.searchsorted(self.A, both)].tobytes()
            == second[np.searchsorted(self.B, both)].tobytes()
        )
        for ids in (self.A, self.B):
            h.store.unstage(ids)
        h.store.commit()
        twin.store.commit()  # the step, never staged
        assert_same_state(tree_state(h.store), tree_state(twin.store))
        # and the staged values are what the step committed
        got = h.store.materialize(self.A)
        assert got.tobytes() == first.astype(got.dtype).tobytes()

    @param_forwarding
    def test_materialize_between_stage_and_commit(self, tmp_path, factory):
        h = self._pending(tmp_path, factory, "mid")
        twin = self._pending(tmp_path, factory, "twin")
        h.store.stage(self.A)
        want = twin.store.materialize()  # peeked through the pending step
        assert h.store.materialize().tobytes() == want.tobytes()
        assert h.store.materialize(self.B).tobytes() == want[self.B].tobytes()
        h.store.unstage(self.A)

    @param_forwarding
    def test_second_stage_out_of_memory(self, tmp_path, factory):
        h = self._pending(tmp_path, factory, "oom")
        twin = self._pending(tmp_path, factory, "twin")
        for store in (h.store, twin.store):
            store.stage(self.A)
        h.device_tracker.capacity_bytes = h.device_tracker.live_bytes
        with pytest.raises(MemoryError):
            h.store.stage(self.B)
        twin.store.stage(self.B)
        twin.store.unstage(self.B)
        for store in (h.store, twin.store):
            store.unstage(self.A)
            store.commit()
        assert_same_state(tree_state(h.store), tree_state(twin.store))

    @param_forwarding
    def test_flush_between_stage_and_commit(self, tmp_path, factory):
        h = self._pending(tmp_path, factory, "flush")
        twin = self._pending(tmp_path, factory, "twin")
        h.store.stage(self.A)
        h.store.unstage(self.A)
        for store in (h.store, twin.store):
            store.flush()
            store.commit()  # nothing left pending: a no-op
        assert_same_state(tree_state(h.store), tree_state(twin.store))
        assert h.store.materialize().tobytes() == twin.store.materialize().tobytes()


class TestFloat32ForwardedRows:
    """A float32 deferred forwarding store hands out the same float32 rows
    whether it commits the pending step's staged rows early
    (:class:`HostStore`) or peeks through the step (:class:`DiskStore`):
    the peek rounds to the model's dtype once, as the commit's write does,
    also when the gradients arrive in float64."""

    @staticmethod
    def _pair(tmp_path):
        p = _params().astype(np.float32)
        host = HostStore(
            p.copy(), layout.ALL_BLOCK, ADAM, MemoryTracker(), TransferLedger(),
            forwarding=True, deferred=True, max_defer=3,
        )
        disk = DiskStore(
            p.copy(), layout.ALL_BLOCK, ADAM, MemoryTracker(), TransferLedger(),
            spill_path=str(tmp_path / "float32"), host_memory=MemoryTracker(),
            max_defer=3,
        )
        return host, disk

    @staticmethod
    def _assert_same(got, want, what):
        assert got.dtype == want.dtype == np.float32, what
        assert got.tobytes() == want.tobytes(), what

    def test_stage_and_materialize_byte_equal(self, tmp_path):
        host, disk = self._pair(tmp_path)
        rng = np.random.default_rng(12)
        for step in range(8):
            ids = np.sort(rng.choice(N_ROWS, size=N_ROWS // 2, replace=False))
            self._assert_same(
                disk.materialize(), host.materialize(), f"materialize {step}"
            )
            self._assert_same(disk.stage(ids), host.stage(ids), f"stage {step}")
            self._assert_same(
                disk.materialize(ids), host.materialize(ids),
                f"materialize staged rows {step}",
            )
            grads = rng.normal(size=(ids.size, host.dim))
            for store in (host, disk):
                store.unstage(ids)
                store.commit()
                store.return_grads(ids, grads)
            if step % 3 == 2:
                disk.spill()
        for store in (host, disk):
            store.flush()
        self._assert_same(disk.materialize(), host.materialize(), "after flush")


def tree_state(store):
    """Every leaf's ``state_dict`` (copied), keyed ``{prefix}/{key}``."""
    return {
        f"{prefix}/{key}": np.array(value)
        for prefix, leaf, _ in store.leaves()
        for key, value in leaf.state_dict().items()
    }


def load_tree_state(store, saved):
    for prefix, leaf, _ in store.leaves():
        head = f"{prefix}/"
        leaf.load_state_dict(
            {k[len(head):]: v for k, v in saved.items() if k.startswith(head)}
        )


class TestStateDictRoundtrip:
    """state_dict/load_state_dict of every leaf is bit-exact into a fresh
    store (a composite has no state of its own: a checkpoint is its
    ``leaves()``)."""

    @param_store
    def test_roundtrip_bit_exact(self, tmp_path, factory):
        h = FACTORIES[factory](tmp_path)
        drive(h.store)
        saved = tree_state(h.store)

        fresh = FACTORIES[factory](tmp_path / "fresh")
        load_tree_state(fresh.store, saved)
        reloaded = tree_state(fresh.store)
        assert set(reloaded) == set(saved)
        for key, value in saved.items():
            np.testing.assert_array_equal(
                np.asarray(reloaded[key]), value, err_msg=key
            )
        np.testing.assert_array_equal(
            fresh.store.materialize(), h.store.materialize()
        )

    @param_store
    def test_loaded_store_continues_identically(self, tmp_path, factory):
        h = FACTORIES[factory](tmp_path)
        drive(h.store, steps=4)
        saved = tree_state(h.store)
        fresh = FACTORIES[factory](tmp_path / "fresh")
        load_tree_state(fresh.store, saved)
        drive(h.store, steps=3, seed=21)
        drive(fresh.store, steps=3, seed=21)
        np.testing.assert_array_equal(
            fresh.store.materialize(), h.store.materialize()
        )


def _camera(position, target, **kwargs):
    return Camera.look_at(position, target, width=32, height=24, **kwargs)


#: the three regimes of a cull over ``_params()``'s unit-normal cloud
CAMERAS = {
    "all": _camera((0.0, -40.0, 0.0), (0.0, 0.0, 0.0)),
    "part": _camera((0.0, 0.0, 0.0), (0.0, 3.0, 0.0), fov_x_deg=40.0),
    "none": _camera((0.0, -40.0, 0.0), (0.0, -80.0, 0.0)),
}
REGIME = {
    "all": lambda n: n == N_ROWS,
    "part": lambda n: 0 < n < N_ROWS,
    "none": lambda n: n == 0,
}


class TestVisible:
    """``visible(camera)`` is ``frustum_cull`` over the store's geometry,
    wherever the tree keeps it."""

    @param_store
    @pytest.mark.parametrize("view", CAMERAS)
    def test_equals_cull_of_materialized_geometry(self, tmp_path, factory, view):
        h = FACTORIES[factory](tmp_path)
        drive(h.store, steps=2)
        model = GaussianModel(h.store.materialize())
        want = frustum_cull(
            model.means, model.log_scales, model.quats, CAMERAS[view]
        )
        assert REGIME[view](want.num_visible)
        got = h.store.visible(CAMERAS[view])
        np.testing.assert_array_equal(got.valid_ids, want.valid_ids)
        assert got.num_visible == want.num_visible
        assert got.num_in_depth == want.num_in_depth
        assert got.num_total == N_ROWS

    @param_store
    @pytest.mark.parametrize("view", ["all", "part"])
    def test_kept_projection_renders_the_staged_rows(
        self, tmp_path, factory, view
    ):
        """A cull that keeps its projection (``keep="backward"``) hands
        on exactly what projecting the rows ``stage`` returns gives — or
        keeps none, where the store stages other geometric values than
        it culls (a forwarding host store stages the optimizer's peek of
        its pending step)."""
        h = FACTORIES[factory](tmp_path)
        drive(h.store, steps=2)
        ids = np.arange(N_ROWS)
        grads = np.random.default_rng(1).normal(size=(N_ROWS, h.store.dim))
        h.store.return_grads(ids, grads)
        camera = CAMERAS[view]
        cull = h.store.visible(camera, keep="backward")
        assert cull.num_visible >= 2
        assert (cull.screen is not None) == h.store.stages_culled_geometry
        staged = GaussianModel(h.store.stage(cull.valid_ids))
        h.store.unstage(cull.valid_ids)
        rows = np.arange(cull.num_visible)
        want = render(staged, camera, valid_ids=rows)
        got = render(staged, camera, valid_ids=rows, screen=cull.screen)
        assert got.image.tobytes() == want.image.tobytes()
        def screen(proj):  # means2d, conics, depths, radii
            rows = proj.rows
            return proj.means2d, proj.conics, rows.cam_points[:, 2], rows.radii

        for a, b in zip(screen(got.proj), screen(want.proj)):
            assert a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("view", CAMERAS)
    def test_sharded_counts_name_the_active_shards(self, tmp_path, view):
        store = make_sharded(tmp_path).store
        got = store.visible(CAMERAS[view])
        assert sum(got.shard_visible) == got.num_visible
        assert len(got.shard_visible) == store.num_shards
        split = list(store.split(got.valid_ids))
        assert got.active_shards == [k for k, _, _, _ in split]
        assert [got.shard_visible[k] for k, _, _, _ in split] == [
            sel.size for _, _, sel, _ in split
        ]


#: npz keys of a checkpoint, pinned: parent-commit checkpoints must load
#: into this tree and the reverse
_HEADER = ["version", "system", "iteration", "num_gaussians"]
CHECKPOINT_KEYS = {
    "gpu_only": _HEADER + ["params", "m", "v", "steps", "cols"],
    "baseline_offload": _HEADER + ["params", "m", "v", "steps", "cols"],
    "gsscale_no_deferred": _HEADER + [
        "geo_params", "geo_m", "geo_v", "geo_steps", "geo_cols",
        "host_params", "host_m", "host_v", "host_steps", "host_cols",
    ],
    "gsscale": _HEADER + [
        "geo_params", "geo_m", "geo_v", "geo_steps", "geo_cols",
        "host_params", "host_m", "host_v", "host_steps", "host_counter",
        "host_cols",
    ],
    "sharded": _HEADER + [
        "shard0_geo_params", "shard0_geo_m", "shard0_geo_v",
        "shard0_geo_steps", "shard0_geo_cols", "shard0_geo_rows",
        "shard0_host_params", "shard0_host_m", "shard0_host_v",
        "shard0_host_steps", "shard0_host_counter", "shard0_host_cols",
        "shard0_host_rows",
        "shard1_geo_params", "shard1_geo_m", "shard1_geo_v",
        "shard1_geo_steps", "shard1_geo_cols", "shard1_geo_rows",
        "shard1_host_params", "shard1_host_m", "shard1_host_v",
        "shard1_host_steps", "shard1_host_counter", "shard1_host_cols",
        "shard1_host_rows",
    ],
}
CHECKPOINT_KEYS["outofcore"] = CHECKPOINT_KEYS["sharded"]


class TestLeaves:
    """``leaves()`` is the one walk of the store tree: what a checkpoint
    is made of."""

    @param_store
    def test_leaves_tile_the_packed_matrix_once(self, tmp_path, factory):
        store = FACTORIES[factory](tmp_path).store
        leaves = list(store.leaves())
        prefixes = [prefix for prefix, _, _ in leaves]
        assert len(set(prefixes)) == len(prefixes)
        cover = np.zeros((store.num_rows, layout.PARAM_DIM), dtype=int)
        for _, leaf, rows in leaves:
            assert list(leaf.leaves()) == [("", leaf, None)]  # really a leaf
            rows = np.arange(store.num_rows) if rows is None else rows
            assert rows.size == leaf.num_rows
            cover[rows, leaf.block.sl] += 1
        np.testing.assert_array_equal(cover[:, store.block.sl], 1)
        assert cover.sum() == store.num_rows * store.dim

    def test_prefixes_are_the_checkpoint_names(self, tmp_path):
        assert [p for p, _, _ in make_device(tmp_path).store.leaves()] == [""]
        assert [p for p, _, _ in make_hybrid(tmp_path).store.leaves()] == [
            "geo", "host",
        ]
        sharded = make_sharded(tmp_path).store
        assert [p for p, _, _ in sharded.leaves()] == [
            f"shard{k}_{name}" for k in range(3) for name in ("geo", "host")
        ]
        for (_, _, rows), shard in zip(
            sharded.leaves(), np.repeat(np.arange(3), 2)
        ):
            np.testing.assert_array_equal(rows, sharded.shard_rows[shard])

    @pytest.mark.parametrize("system", SYSTEM_NAMES)
    def test_checkpoint_key_set_is_pinned(self, tmp_path, system):
        model = GaussianModel(_params(seed=6))
        config = GSScaleConfig(
            system=system, num_shards=2, ssim_lambda=0.0,
            spill_dir=str(tmp_path / "spill"),
        )
        saved = create_system(model.copy(), config)
        gt = np.random.default_rng(7).uniform(size=(24, 32, 3))
        for _ in range(2):
            saved.step(CAMERAS["all"], gt)
        path = str(tmp_path / "ckpt.npz")
        save_checkpoint(path, saved)
        with np.load(path) as data:
            assert sorted(data.files) == sorted(CHECKPOINT_KEYS[system])
        loaded = create_system(
            GaussianModel(_params(seed=6)),
            dataclasses.replace(config, spill_dir=str(tmp_path / "spill2")),
        )
        load_checkpoint(path, loaded)
        np.testing.assert_array_equal(
            loaded.materialized_model().params,
            saved.materialized_model().params,
        )


class TestAccountingConservation:
    """Ledger bytes and tracker charges return to baseline after flush."""

    @param_store
    def test_tracker_returns_to_baseline(self, tmp_path, factory):
        h = FACTORIES[factory](tmp_path)
        device_baseline = h.device_tracker.live_bytes
        drive(h.store)
        assert h.device_tracker.live_bytes == device_baseline
        for cat, live in h.device_tracker.live_by_category().items():
            if cat in ("staged_params", "staged_grads"):
                assert live == 0, cat

    @param_store
    def test_ledger_traffic_is_symmetric(self, tmp_path, factory):
        """Every staged byte comes back as a gradient byte, and every
        page-out has a matching page-in volume granularity."""
        h = FACTORIES[factory](tmp_path)
        drive(h.store)
        assert h.ledger.h2d_bytes == h.ledger.d2h_bytes
        state = 3 * layout.param_bytes(N_ROWS, h.store.dim)
        for traffic in (h.ledger.page_in_bytes, h.ledger.page_out_bytes):
            assert traffic % state == 0

    @param_store
    def test_host_tracker_bounded_by_residency(self, tmp_path, factory):
        h = FACTORIES[factory](tmp_path)
        if h.host_tracker is None:
            pytest.skip("placement has no host tier")
        drive(h.store, spill_every=2)
        state = 3 * layout.param_bytes(N_ROWS, h.store.dim)
        assert h.host_tracker.peak_bytes <= state + N_ROWS  # + counters
        h.store.spill()
        assert h.host_tracker.live_by_category()["host_resident_state"] == 0
