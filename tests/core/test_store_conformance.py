"""Store-conformance harness: one suite, every ParameterStore placement.

Five store implementations share the ``ParameterStore`` protocol
(Device/Host/Hybrid/Sharded/Disk). This suite runs the same contract
against each of them through parameterized factories:

* the ``stage -> unstage -> commit -> return_grads`` trajectory matches a
  :class:`DeviceStore` oracle driven with identical gradients (bit-exact
  for every placement without the deferred approximation, and within the
  epsilon-factoring tolerance for deferred ones);
* ``state_dict`` / ``load_state_dict`` round-trips bit-exactly into a
  freshly built store;
* tracker charges return to their resident baseline and ledger traffic
  stays symmetric after ``flush`` — placement changes accounting, never
  numerics, and never leaks.

Adding a new placement means adding a factory here; the contract comes for
free.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.stores import (
    DeviceStore,
    DiskStore,
    HostStore,
    HybridStore,
    ResidentSet,
    ShardedStore,
    _WriteBehindWriter,
)
from repro.core.systems import TransferLedger
from repro.gaussians import layout
from repro.optim.base import AdamConfig
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


def make_disk(tmp_path):
    tracker, ledger = MemoryTracker(), TransferLedger()
    host_tracker = MemoryTracker()
    store = DiskStore(
        _params(), layout.ALL_BLOCK, ADAM, tracker, ledger,
        spill_path=str(tmp_path / "conformance_disk"),
        host_memory=host_tracker, forwarding=True, deferred=True,
    )
    return Harness(
        store, tracker, ledger, exact=False, host_tracker=host_tracker
    )


def make_disk_spilling(tmp_path):
    """DiskStore under a budget-1 resident set plus a sibling store, so
    every few operations the store under test is forcibly spilled."""
    tracker, ledger = MemoryTracker(), TransferLedger()
    host_tracker = MemoryTracker()
    rset = ResidentSet(budget=1)
    store = DiskStore(
        _params(), layout.ALL_BLOCK, ADAM, tracker, ledger,
        spill_path=str(tmp_path / "conformance_spilling"),
        host_memory=host_tracker, resident_set=rset,
        forwarding=True, deferred=True,
    )
    return Harness(
        store, tracker, ledger, exact=False,
        host_tracker=host_tracker, resident_set=rset,
    )


def make_disk_f16(tmp_path):
    """DiskStore through the lossy float16 page codec: the conformance
    contract (protocol, accounting, round-trips) must hold regardless of
    what the codec does to spilled bytes. Quantized-trajectory tolerance
    is pinned separately in the deep out-of-core suite."""
    tracker, ledger = MemoryTracker(), TransferLedger()
    host_tracker = MemoryTracker()
    store = DiskStore(
        _params(), layout.ALL_BLOCK, ADAM, tracker, ledger,
        spill_path=str(tmp_path / "conformance_f16"),
        host_memory=host_tracker, forwarding=True, deferred=True,
        codec="float16",
    )
    return Harness(
        store, tracker, ledger, exact=False, host_tracker=host_tracker
    )


def make_disk_lossless(tmp_path):
    """DiskStore through the lossless (shuffle+zlib) codec under a
    budget-1 resident set: compression must be pure placement — the
    trajectory stays bit-exact against the dense oracle."""
    tracker, ledger = MemoryTracker(), TransferLedger()
    host_tracker = MemoryTracker()
    rset = ResidentSet(budget=1)
    store = DiskStore(
        _params(), layout.ALL_BLOCK, ADAM, tracker, ledger,
        spill_path=str(tmp_path / "conformance_lossless"),
        host_memory=host_tracker, resident_set=rset,
        forwarding=True, codec="lossless",
    )
    return Harness(
        store, tracker, ledger, exact=True,
        host_tracker=host_tracker, resident_set=rset,
    )


def make_disk_write_behind(tmp_path):
    """DiskStore with a write-behind writer: queued page-outs (and the
    re-adopt-on-page-in shortcut) must be invisible to the contract."""
    tracker, ledger = MemoryTracker(), TransferLedger()
    host_tracker = MemoryTracker()
    store = DiskStore(
        _params(), layout.ALL_BLOCK, ADAM, tracker, ledger,
        spill_path=str(tmp_path / "conformance_wb"),
        host_memory=host_tracker, forwarding=True,
        writer=_WriteBehindWriter(),
    )
    return Harness(
        store, tracker, ledger, exact=True, host_tracker=host_tracker
    )


FACTORIES = {
    "device": make_device,
    "host": make_host,
    "host_forwarding": make_host_forwarding,
    "host_deferred": make_host_deferred,
    "hybrid": make_hybrid,
    "sharded": make_sharded,
    "disk": make_disk,
    "disk_spilling": make_disk_spilling,
    "disk_f16": make_disk_f16,
    "disk_lossless": make_disk_lossless,
    "disk_write_behind": make_disk_write_behind,
}

param_store = pytest.mark.parametrize("factory", FACTORIES, ids=FACTORIES)


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


DISK_CODECS = ("raw", "float16", "lossless")


class TestZeroRowStores:
    """The degenerate shard every partitioner can emit (empty spatial
    cell, more shards than splats) must satisfy the same contract: the
    full step protocol, spill/page-in, and state round-trips are no-ops
    that neither raise nor leak accounting, under every page codec."""

    def make_empty_disk(self, tmp_path, codec):
        tracker, ledger = MemoryTracker(), TransferLedger()
        host_tracker = MemoryTracker()
        store = DiskStore(
            _params(0), layout.ALL_BLOCK, ADAM, tracker, ledger,
            spill_path=str(tmp_path / f"empty_{codec}"),
            host_memory=host_tracker, forwarding=True, codec=codec,
        )
        return Harness(
            store, tracker, ledger, exact=True, host_tracker=host_tracker
        )

    @pytest.mark.parametrize("codec", DISK_CODECS)
    def test_protocol_spill_and_materialize(self, tmp_path, codec):
        h = self.make_empty_disk(tmp_path, codec)
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

    @pytest.mark.parametrize("codec", DISK_CODECS)
    def test_state_dict_roundtrip(self, tmp_path, codec):
        h = self.make_empty_disk(tmp_path, codec)
        saved = {k: np.array(v) for k, v in h.store.state_dict().items()}
        fresh = self.make_empty_disk(tmp_path / "fresh", codec)
        fresh.store.load_state_dict(saved)
        assert fresh.store.materialize().shape == (0, layout.PARAM_DIM)

    @pytest.mark.parametrize("codec", DISK_CODECS)
    def test_accounting_stays_at_baseline(self, tmp_path, codec):
        h = self.make_empty_disk(tmp_path, codec)
        device_baseline = h.device_tracker.live_bytes
        host_baseline = h.host_tracker.live_bytes
        h.store.spill()
        h.store.materialize()
        h.store.flush()
        assert h.device_tracker.live_bytes == device_baseline
        assert h.host_tracker.live_bytes == host_baseline


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


class TestStateDictRoundtrip:
    """state_dict/load_state_dict is bit-exact into a fresh store."""

    @param_store
    def test_roundtrip_bit_exact(self, tmp_path, factory):
        h = FACTORIES[factory](tmp_path)
        drive(h.store)
        saved = {k: np.array(v) for k, v in h.store.state_dict().items()}

        fresh = FACTORIES[factory](tmp_path / "fresh")
        fresh.store.load_state_dict(saved)
        reloaded = fresh.store.state_dict()
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
        saved = {k: np.array(v) for k, v in h.store.state_dict().items()}
        fresh = FACTORIES[factory](tmp_path / "fresh")
        fresh.store.load_state_dict(saved)
        drive(h.store, steps=3, seed=21)
        drive(fresh.store, steps=3, seed=21)
        np.testing.assert_array_equal(
            fresh.store.materialize(), h.store.materialize()
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
