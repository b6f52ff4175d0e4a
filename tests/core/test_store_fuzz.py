"""Randomized protocol fuzz: stores vs an in-memory oracle.

Drives random interleavings of the store protocol — ``stage``/``unstage``
(once per step, or twice as a split view stages its two regions),
``return_grads``, ``commit``, ``materialize``, ``flush``, and
(for the disk tier) ``spill``/``page_in`` — at arbitrary points, for a
few hundred operations against an oracle holding the same state in plain
memory, asserting parameter arrays and optimizer state stay bit-identical
throughout. Placement and paging must be invisible to the math no matter
how the operations interleave.

The prefetch leg's ``preload``/``adopt`` route is a hypothesis state
machine (:class:`PreloadAdoptMachine`): every protocol call is its own
rule, so a snapshot can be taken and adopted with any sequence of other
calls — a spill, a page-in, an eviction by a sibling — in between.
"""

import shutil
import tempfile

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    Bundle,
    RuleBasedStateMachine,
    consumes,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.core.stores import (
    DeviceStore,
    DiskStore,
    HostStore,
    HybridStore,
    ResidentSet,
    ShardedStore,
)
from repro.core.systems import TransferLedger
from repro.gaussians import layout
from repro.optim.base import AdamConfig
from repro.sim.memory import MemoryTracker
from test_store_conformance import AdoptingDiskStore

N = 30
ADAM = AdamConfig(lr=5e-3)


def _params(seed):
    return np.random.default_rng(seed).normal(size=(N, layout.PARAM_DIM))


def _random_ids(rng, n=N):
    size = int(rng.integers(0, n + 1))
    return np.sort(rng.choice(n, size=size, replace=False))


class _ProtocolFuzzer:
    """Applies one random-op stream to a pair of protocol-equal stores."""

    def __init__(self, seed, subject, oracle, disk_ops=False, sibling=None):
        self.rng = np.random.default_rng(seed)
        self.subject = subject
        self.oracle = oracle
        self.ops = [
            self.op_step, self.op_step, self.op_step,  # weighted: common
            self.op_split_step,
            self.op_materialize, self.op_flush,
        ]
        if disk_ops:
            self.ops += [self.op_spill, self.op_page_in]
            if sibling is not None:
                # a neighbour paging in under the shared budget evicts
                # the subject wherever the stream happens to be
                self.ops.append(sibling.page_in)

    def both(self, fn):
        fn(self.subject)
        fn(self.oracle)

    def op_step(self):
        """One full training-step protocol round with shared gradients."""
        ids = _random_ids(self.rng)
        grads = self.rng.normal(size=(ids.size, layout.PARAM_DIM))
        returned = bool(self.rng.integers(0, 2))
        for store in (self.subject, self.oracle):
            store.stage(ids)
            store.unstage(ids, returned=returned)
            store.commit()
            store.return_grads(ids, grads)

    def op_split_step(self):
        """A split view's step: two regions staged back to back (their
        rows overlap at random), each staged value equal on both stores,
        then one lazy commit; the state is compared after the commit."""
        regions = [_random_ids(self.rng), _random_ids(self.rng)]
        grads_ids = np.union1d(*regions)
        grads = self.rng.normal(size=(grads_ids.size, layout.PARAM_DIM))
        for ids in regions:
            np.testing.assert_array_equal(
                self.subject.stage(ids), self.oracle.stage(ids)
            )
        for store in (self.subject, self.oracle):
            for ids in regions:
                store.unstage(ids)
            store.commit()
        self.op_materialize()
        for store in (self.subject, self.oracle):
            store.return_grads(grads_ids, grads)

    def op_materialize(self):
        ids = _random_ids(self.rng)
        np.testing.assert_array_equal(
            self.subject.materialize(ids), self.oracle.materialize(ids)
        )

    def op_flush(self):
        self.both(lambda s: s.flush())

    def op_spill(self):
        self.subject.spill()  # oracle has no disk tier: no-op there

    def op_page_in(self):
        self.subject.page_in()

    def check_clean_pages(self):
        """A resident store that reports clean — its next spill writes
        nothing — holds exactly what its pages read back as: byte-equal
        (``-0.0 != +0.0``), not merely equal."""
        disk = self.subject
        if not isinstance(disk, DiskStore) or not disk.is_resident:
            return
        if disk.is_dirty:
            return
        for field, page in disk.pages.items():
            held = np.ascontiguousarray(getattr(disk.optimizer, field))
            assert held.view(np.uint8).tobytes() == page.read().view(
                np.uint8
            ).tobytes(), field

    def run(self, rounds):
        for i in range(rounds):
            self.rng.choice(self.ops)()
            self.check_clean_pages()
            if i % 10 == 0:
                self.op_materialize()
        self.both(lambda s: s.flush())
        np.testing.assert_array_equal(
            self.subject.materialize(), self.oracle.materialize()
        )


def _fuzz_disk_store(tmp_path, seed, max_defer, budget, store_cls):
    """Fuzz a ``store_cls`` disk store against a HostStore in the disk
    tier's mode (forwarding, deferred, the same ``max_defer``) and return
    it; state is compared bit for bit."""
    tracker, ledger = MemoryTracker(), TransferLedger()
    rset = ResidentSet(1)
    disk = store_cls(
        _params(seed), layout.ALL_BLOCK, ADAM, tracker, ledger,
        spill_path=str(tmp_path / f"fuzz{seed}"),
        resident_set=rset, max_defer=max_defer,
    )
    sibling = None
    if budget == "shared":
        sibling = store_cls(
            _params(seed + 50), layout.ALL_BLOCK, ADAM, MemoryTracker(),
            TransferLedger(), spill_path=str(tmp_path / "sibling"),
            resident_set=rset, max_defer=max_defer,
        )
    host = HostStore(
        _params(seed), layout.ALL_BLOCK, ADAM, MemoryTracker(),
        TransferLedger(), forwarding=True, deferred=True, max_defer=max_defer,
    )
    _ProtocolFuzzer(
        seed, disk, host, disk_ops=True, sibling=sibling
    ).run(rounds=120)
    if sibling is not None:
        assert sibling.ledger.page_in_count > 0  # the neighbour did evict
    # optimizer state (not just parameters) must agree bit-for-bit
    a, b = disk.state_dict(), host.state_dict()
    assert set(a) == set(b)
    for key in a:
        np.testing.assert_array_equal(np.asarray(a[key]), b[key], err_msg=key)
    return disk


#: the deferred counter's saturation: the paper's 4-bit field, and 1, at
#: which every row a commit skips is restored by the next one
param_max_defer = pytest.mark.parametrize(
    "max_defer", [15, 1], ids=["deferred", "saturating"]
)


@pytest.mark.parametrize("seed", [0, 1, 2])
@param_max_defer
@pytest.mark.parametrize("budget", ["alone", "shared"])
def test_disk_store_matches_host_store(tmp_path, seed, max_defer, budget):
    """DiskStore under random spill/page-in interleavings —
    and, with a ``shared`` budget, evictions forced by a sibling store
    paging in through the same budget-1 resident set — is bit-identical
    to a forwarding, deferred HostStore: the disk tier is pure
    placement."""
    _fuzz_disk_store(tmp_path, seed, max_defer, budget, DiskStore)


@pytest.mark.parametrize("seed", [0, 1, 2])
@param_max_defer
@pytest.mark.parametrize("budget", ["alone", "shared"])
def test_adopting_disk_store_matches_host_store(
    tmp_path, seed, max_defer, budget
):
    """The same fuzz with every page-in, the implicit ones inside
    ``stage`` / ``commit`` / ``flush`` included, taken as a prefetch
    snapshot adopted instead of the synchronous read."""
    disk = _fuzz_disk_store(
        tmp_path, seed, max_defer, budget, AdoptingDiskStore
    )
    assert disk.adoptions > 0
    assert disk.reads == disk.adoptions  # the synchronous read never ran


@pytest.mark.parametrize("seed", [3, 4])
def test_sharded_hybrid_matches_device(seed):
    """A sharded composition of hybrid (device+forwarding-host) stores is
    bit-identical to one flat DeviceStore under random interleavings."""
    p = _params(seed)
    rows = [np.arange(k, N, 4) for k in range(4)]
    stores = []
    parent_tracker, parent_ledger = MemoryTracker(), TransferLedger()
    for r in rows:
        tracker = MemoryTracker(parent=parent_tracker)
        ledger = TransferLedger(parent=parent_ledger)
        geo = DeviceStore(
            p[r][:, layout.GEOMETRIC_SLICE], layout.GEOMETRIC_BLOCK, ADAM,
            tracker, label="geo",
        )
        host = HostStore(
            p[r][:, layout.NON_GEOMETRIC_SLICE], layout.NON_GEOMETRIC_BLOCK,
            ADAM, tracker, ledger, forwarding=True,
        )
        stores.append(HybridStore([geo, host]))
    sharded = ShardedStore(rows, stores)
    oracle = DeviceStore(p, layout.ALL_BLOCK, ADAM, MemoryTracker())
    _ProtocolFuzzer(seed, sharded, oracle).run(rounds=100)


@pytest.mark.parametrize("seed", [8, 9])
def test_sharded_deferred_matches_hybrid(seed):
    """The ``sharded`` tree (deferred host blocks, which commit their
    staged rows early) is bit-identical to one unsharded ``gsscale``
    tree under random interleavings: the deferred update is per row."""
    p = _params(seed)
    rows = [np.arange(k, N, 4) for k in range(4)]

    def hybrid(params, tracker, ledger):
        geo = DeviceStore(
            params[:, layout.GEOMETRIC_SLICE], layout.GEOMETRIC_BLOCK, ADAM,
            tracker, label="geo",
        )
        host = HostStore(
            params[:, layout.NON_GEOMETRIC_SLICE], layout.NON_GEOMETRIC_BLOCK,
            ADAM, tracker, ledger, forwarding=True, deferred=True,
        )
        return HybridStore([geo, host])

    parent_tracker, parent_ledger = MemoryTracker(), TransferLedger()
    sharded = ShardedStore(rows, [
        hybrid(
            p[r], MemoryTracker(parent=parent_tracker),
            TransferLedger(parent=parent_ledger),
        )
        for r in rows
    ])
    oracle = hybrid(p, MemoryTracker(), TransferLedger())
    _ProtocolFuzzer(seed, sharded, oracle).run(rounds=100)


@pytest.mark.parametrize("seed", [7])
def test_fuzz_is_deterministic(tmp_path, seed):
    """Same seed, same stream: the fuzzer itself is reproducible, so any
    failure it ever finds can be replayed."""
    finals = []
    for run in range(2):
        tracker, ledger = MemoryTracker(), TransferLedger()
        disk = DiskStore(
            _params(seed), layout.ALL_BLOCK, ADAM, tracker, ledger,
            spill_path=str(tmp_path / f"det{run}"),
        )
        host = HostStore(
            _params(seed), layout.ALL_BLOCK, ADAM, MemoryTracker(),
            TransferLedger(), forwarding=True, deferred=True,
        )
        _ProtocolFuzzer(seed, disk, host, disk_ops=True).run(rounds=60)
        finals.append(disk.materialize())
    np.testing.assert_array_equal(finals[0], finals[1])


ROW_BYTES = layout.param_bytes(1)
ROW_IDS = st.lists(
    st.integers(0, N - 1), unique=True, max_size=N
).map(lambda ids: np.array(sorted(ids), dtype=np.int64))


def _same_bytes(a, b):
    """Byte-equal, not merely equal: ``-0.0 != +0.0``."""
    a, b = np.ascontiguousarray(a), np.ascontiguousarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


class PreloadAdoptMachine(RuleBasedStateMachine):
    """One :class:`DiskStore` against a :class:`HostStore` oracle, one
    protocol call per rule, under a budget-1 :class:`ResidentSet` it
    shares with a sibling store (whose page-in evicts it).

    ``preload`` snapshots the spilled pages (several snapshots may be
    outstanding: the store does not limit them, though the prefetch
    slot holds one view's at a time); ``adopt`` installs one, which it must accept exactly when
    nothing paged the store in since it was taken. A page-in, or a
    page-in and a spill (the epoch check), makes the snapshot stale, and
    a rejected adopt changes nothing.
    Throughout: every resident ``materialize`` is byte-equal to the
    oracle's, each ledger's staging bytes equal the rows staged and
    returned, and the trackers hold exactly the open staging windows and
    the resident working set, so they return to their baseline.
    """

    snapshots = Bundle("snapshots")

    @initialize(seed=st.integers(0, 9))
    def build(self, seed):
        self.dir = tempfile.mkdtemp(prefix="gsscale-machine-")
        rset = ResidentSet(1)
        self.device, self.host_memory = MemoryTracker(), MemoryTracker()
        self.disk = DiskStore(
            _params(seed), layout.ALL_BLOCK, ADAM, self.device,
            TransferLedger(), spill_path=f"{self.dir}/subject",
            host_memory=self.host_memory, resident_set=rset,
        )
        self.sibling = DiskStore(
            _params(seed + 50), layout.ALL_BLOCK, ADAM, MemoryTracker(),
            TransferLedger(), spill_path=f"{self.dir}/sibling",
            resident_set=rset,
        )
        self.host = HostStore(
            _params(seed), layout.ALL_BLOCK, ADAM, MemoryTracker(),
            TransferLedger(), forwarding=True, deferred=True,
        )
        self.windows: list[np.ndarray] = []  # staged, not yet unstaged
        self.staged_rows = self.returned_rows = 0
        self.pending = False  # returned gradients awaiting commit

    def teardown(self):
        if hasattr(self, "dir"):
            shutil.rmtree(self.dir, ignore_errors=True)

    def both(self, fn):
        fn(self.disk)
        fn(self.host)

    @rule(ids=ROW_IDS)
    def stage(self, ids):
        _same_bytes(self.disk.stage(ids), self.host.stage(ids))
        self.windows.append(ids)
        self.staged_rows += ids.size

    @precondition(lambda self: self.windows)
    @rule(which=st.integers(min_value=0), returned=st.booleans())
    def unstage(self, which, returned):
        ids = self.windows.pop(which % len(self.windows))
        self.both(lambda s: s.unstage(ids, returned=returned))
        if returned:
            self.returned_rows += ids.size

    @precondition(lambda self: not self.windows)
    @rule()
    def commit(self):
        self.both(lambda s: s.commit())
        self.pending = False

    @precondition(lambda self: not self.windows and not self.pending)
    @rule(ids=ROW_IDS, seed=st.integers(0, 2**16))
    def return_grads(self, ids, seed):
        grads = np.random.default_rng(seed).normal(
            size=(ids.size, layout.PARAM_DIM)
        )
        self.both(lambda s: s.return_grads(ids, grads))
        self.pending = True

    @precondition(lambda self: not self.windows)
    @rule()
    def flush(self):
        self.both(lambda s: s.flush())
        self.pending = False
        a, b = self.disk.state_dict(), self.host.state_dict()
        assert set(a) == set(b)
        for key in a:
            _same_bytes(np.asarray(a[key]), b[key])

    @rule()
    def spill(self):
        self.disk.spill()

    @rule()
    def page_in(self):
        self.disk.page_in()

    @rule()
    def round_trip(self):
        """A page-in and a spill: a shard a step visits and evicts."""
        self.disk.page_in()
        self.disk.spill()

    @rule()
    def sibling_page_in(self):
        self.sibling.page_in()  # evicts the subject through the budget

    @precondition(lambda self: not self.disk.is_resident)
    @rule(target=snapshots)
    def preload(self):
        pre = self.disk.preload()
        assert pre is not None
        return pre, self.disk.ledger.page_in_count

    @rule(taken=consumes(snapshots))
    def adopt(self, taken):
        pre, page_ins = taken
        ledger = self.disk.ledger
        fresh = ledger.page_in_count == page_ins
        before = (dict(ledger.counts()), self.disk.is_resident)
        assert self.disk.adopt(pre) == fresh
        if fresh:
            assert self.disk.is_resident
            assert ledger.page_in_count == before[0]["page_in_count"] + 1
        else:
            assert (dict(ledger.counts()), self.disk.is_resident) == before

    @rule(ids=ROW_IDS)
    def materialize(self, ids):
        _same_bytes(self.disk.materialize(ids), self.host.materialize(ids))

    @invariant()
    def resident_state_is_the_oracles(self):
        # a spilled store is compared by the rules that page it in
        if self.disk.is_resident:
            _same_bytes(self.disk.materialize(), self.host.materialize())

    @invariant()
    def ledgers_meter_the_staged_rows(self):
        for store in (self.disk, self.host):
            assert store.ledger.h2d_bytes == self.staged_rows * ROW_BYTES
            assert store.ledger.d2h_bytes == self.returned_rows * ROW_BYTES

    @invariant()
    def trackers_return_to_baseline(self):
        windows = 2 * ROW_BYTES * sum(ids.size for ids in self.windows)
        assert self.device.live_bytes == windows
        assert self.host.memory.live_bytes == windows
        resident = self.disk._state_bytes() if self.disk.is_resident else 0
        # the deferred counters (1 byte a row) never spill
        assert self.host_memory.live_bytes == N + resident


TestPreloadAdoptMachine = PreloadAdoptMachine.TestCase
TestPreloadAdoptMachine.settings = settings(
    max_examples=100, stateful_step_count=50, deadline=None
)
