"""Storage integrity: checksummed pages, atomic writes, corrupt
checkpoints, and serving-page quarantine.

Silent disk corruption must never flow back into the math. Every spill
page, every sealed serving page, and every checkpoint
read must either verify or raise a typed error naming what broke — and
every write must be atomic, so a torn write can only ever leave the
*previous* bytes or a detectably-torn file, never a silent half-write.
"""

import gc
import os
import sys
import warnings
import zipfile

import numpy as np
import pytest

from repro.core import CorruptCheckpointError, CorruptPageError, pagecodec
from repro.core.checkpoint import (
    CheckpointReader,
    load_checkpoint,
    resume_model,
    save_checkpoint,
    validate_checkpoint,
)
from repro.core.integrity import (
    PAGE_MAGIC,
    atomic_savez,
    atomic_write_bytes,
    seal_page,
    unseal_page,
)
from repro.core.stores import DiskStore
from repro.core.systems import TransferLedger
from repro.core.trainer import Trainer
from repro.core.config import GSScaleConfig
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.faults import (
    Fault,
    FaultPlan,
    FileFault,
    InjectedFaultError,
    active_plan,
    corrupt_file,
    truncate_file,
)
from repro.gaussians import layout
from repro.optim.base import AdamConfig
from repro.serve import (
    PagedServingStore,
    PageQuarantinedError,
    RenderRequest,
    RenderService,
)
from repro.sim.memory import MemoryTracker

N = 24
ADAM = AdamConfig(lr=5e-3)


def _params(seed=0):
    return np.random.default_rng(seed).normal(size=(N, layout.PARAM_DIM))


def make_disk(tmp_path, name="spill"):
    return DiskStore(
        _params(), layout.ALL_BLOCK, ADAM, MemoryTracker(),
        TransferLedger(), spill_path=str(tmp_path / name),
    )


class TestSealedPages:
    def test_round_trip(self):
        payload = os.urandom(1000)
        assert unseal_page(seal_page(payload)) == payload

    def test_header_is_gsp1(self):
        sealed = seal_page(b"abc")
        assert sealed[:4] == PAGE_MAGIC

    def test_torn_page_detected(self):
        sealed = seal_page(os.urandom(1000))
        with pytest.raises(CorruptPageError, match="torn"):
            unseal_page(sealed[: len(sealed) // 2], "p.pagez")

    def test_bit_rot_detected(self):
        sealed = bytearray(seal_page(os.urandom(1000)))
        sealed[600] ^= 0xFF
        with pytest.raises(CorruptPageError, match="checksum"):
            unseal_page(bytes(sealed), "p.pagez")

    def test_wrong_magic_detected(self):
        with pytest.raises(CorruptPageError, match="magic"):
            unseal_page(b"JUNK" + bytes(20), "p.pagez")


class TestDiskStorePages:
    def test_raw_page_corruption_detected(self, tmp_path):
        store = make_disk(tmp_path)
        store.spill()
        corrupt_file(str(tmp_path / "spill.m.dat"), offset=64, length=16)
        with pytest.raises(CorruptPageError, match="spill.m.dat"):
            store.page_in()

    def test_misshapen_page_is_corrupt(self, tmp_path):
        """A page file that outgrew its mapping is a corrupt page naming
        its file, and the store stays spilled."""
        store = make_disk(tmp_path)
        store.spill()
        path = store.pages["params"].path
        with open(path, "ab") as fh:
            fh.write(bytes(2 * layout.PARAM_DIM * 8))
        ledger = store.ledger.counts()
        with pytest.raises(CorruptPageError) as info:
            store.page_in()
        assert info.value.path == path
        assert not store.is_resident
        assert store.ledger.counts() == ledger

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_page_is_its_array(self, tmp_path, dtype):
        """A spilled page file holds exactly its array's bytes, in the
        store's dtype, and a page-in reads them back."""
        store = DiskStore(
            _params().astype(dtype), layout.ALL_BLOCK, ADAM, MemoryTracker(),
            TransferLedger(), spill_path=str(tmp_path / "spill"),
        )
        ids = np.arange(0, N, 3)
        store.return_grads(ids, np.ones((ids.size, layout.PARAM_DIM), dtype))
        store.commit()  # live moments
        want = {
            f: getattr(store.optimizer, f).copy()
            for f in TestFailedPageOut.FIELDS
        }
        store.spill()
        for field, page in store.pages.items():
            with open(page.path, "rb") as fh:
                assert fh.read() == want[field].tobytes(), field
        store.page_in()
        for field, arr in want.items():
            got = getattr(store.optimizer, field)
            assert got.dtype == np.dtype(dtype)
            assert got.tobytes() == arr.tobytes(), field

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_a_preloaded_page_is_its_array(self, tmp_path, dtype):
        """The prefetch leg's snapshot of a spilled page is the array's
        bytes in the store's dtype, and adopting it installs them."""
        store = DiskStore(
            _params().astype(dtype), layout.ALL_BLOCK, ADAM, MemoryTracker(),
            TransferLedger(), spill_path=str(tmp_path / "spill"),
        )
        ids = np.arange(0, N, 3)
        store.return_grads(ids, np.ones((ids.size, layout.PARAM_DIM), dtype))
        store.commit()  # live moments
        want = {
            f: getattr(store.optimizer, f).copy()
            for f in TestFailedPageOut.FIELDS
        }
        store.spill()
        pre = store.preload()
        for field, arr in want.items():
            assert pre.arrays[field].dtype == np.dtype(dtype)
            assert pre.arrays[field].tobytes() == arr.tobytes(), field
        assert store.adopt(pre)
        for field, arr in want.items():
            assert getattr(store.optimizer, field).tobytes() == arr.tobytes()

    def test_a_corrupt_page_is_never_preloaded(self, tmp_path):
        """A snapshot of a corrupt page is refused on the lane (``None``,
        nothing installed), so the caller's synchronous page-in meets the
        corruption and names its file."""
        store = make_disk(tmp_path)
        store.spill()
        corrupt_file(str(tmp_path / "spill.v.dat"), offset=64, length=16)
        ledger = store.ledger.counts()
        assert store.preload() is None
        assert not store.is_resident
        assert store.ledger.counts() == ledger
        with pytest.raises(CorruptPageError, match="spill.v.dat"):
            store.page_in()

    def test_clean_spill_cycle_verifies(self, tmp_path):
        store = make_disk(tmp_path)
        before = store.materialize().copy()
        store.spill()
        store.page_in()
        np.testing.assert_array_equal(store.materialize(), before)


class TestAtomicWrites:
    def test_plain_write_lands(self, tmp_path):
        path = str(tmp_path / "out.bin")
        atomic_write_bytes(path, b"payload")
        with open(path, "rb") as fh:
            assert fh.read() == b"payload"
        assert not [f for f in os.listdir(tmp_path) if ".tmp" in f]

    def test_torn_write_is_durable_and_detected(self, tmp_path):
        # the injected tear mangles the temp file, *then* renames it —
        # exactly the bytes a mid-write crash makes durable
        path = str(tmp_path / "page.pagez")
        plan = FaultPlan(
            token_dir=str(tmp_path / "tokens"),
            file_faults=(FileFault(match="page.pagez", kind="torn"),),
        )
        sealed = seal_page(os.urandom(2000))
        with active_plan(plan):
            with pytest.raises(InjectedFaultError):
                atomic_write_bytes(path, sealed)
        assert os.path.exists(path)  # the tear landed (durable)
        with open(path, "rb") as fh:
            buf = fh.read()
        assert len(buf) < len(sealed)
        with pytest.raises(CorruptPageError, match="torn"):
            unseal_page(buf, path)

    def test_savez_appends_extension(self, tmp_path):
        path = atomic_savez(str(tmp_path / "ckpt"), {"a": np.arange(3)})
        assert path.endswith(".npz")
        assert np.array_equal(np.load(path)["a"], np.arange(3))


class TestFailedPageOut:
    """A page-out one of whose page writes fails — the first, the second
    or the last (the ``pager:page_out`` fault point, visited once per
    page before any byte moves) — has a defined outcome: nothing is lost,
    nothing is counted twice, and the next spill writes all three pages
    again."""

    FIELDS = ("params", "m", "v")

    @staticmethod
    def dirty_store(tmp_path):
        store = DiskStore(
            _params(), layout.ALL_BLOCK, ADAM, MemoryTracker(),
            TransferLedger(), spill_path=str(tmp_path / "spill"),
        )
        store.spill()  # the pages hold the initial state
        ids = np.arange(0, N, 2)
        store.return_grads(ids, np.ones((ids.size, layout.PARAM_DIM)))
        store.commit()  # pages in and updates rows: dirty
        assert store.is_resident and store.is_dirty
        return store

    def held(self, store):
        return {f: getattr(store.optimizer, f).copy() for f in self.FIELDS}

    @staticmethod
    def fail_page(tmp_path, field):
        """A plan that fails the write of ``field``'s page (the pages are
        written in :attr:`FIELDS` order)."""
        after = TestFailedPageOut.FIELDS.index(field)
        return active_plan(FaultPlan(
            token_dir=str(tmp_path / "fail"),
            faults=(Fault(point="pager:page_out", action="raise",
                          after=after),),
        ))

    @staticmethod
    def counting(tmp_path):
        """A plan whose every ``pager:page_out`` visit leaves a token."""
        token_dir = tmp_path / "count"
        plan = FaultPlan(
            token_dir=str(token_dir),
            faults=(Fault(point="pager:page_out", action="delay",
                          times=10**6),),
        )
        return active_plan(plan), lambda: len(os.listdir(token_dir))

    def assert_round_trips(self, store, want):
        """A page-in gives back ``want``, byte for byte."""
        store.page_in()
        for field in self.FIELDS:
            got = getattr(store.optimizer, field)
            assert got.tobytes() == want[field].tobytes(), field

    @pytest.mark.parametrize("field", FIELDS)
    def test_sync_spill_stays_resident_and_dirty(self, tmp_path, field):
        store = self.dirty_store(tmp_path)
        want = self.held(store)
        ledger = store.ledger.counts()
        host = store.host_memory.live_bytes
        epoch = store._spill_epoch
        with self.fail_page(tmp_path, field):
            with pytest.raises(InjectedFaultError):
                store.spill()
        assert store.is_resident and store.is_dirty
        assert store.ledger.counts() == ledger
        assert store.host_memory.live_bytes == host
        assert store._spill_epoch == epoch
        for field, arr in self.held(store).items():
            assert arr.tobytes() == want[field].tobytes(), field
        plan, visits = self.counting(tmp_path)
        with plan:
            store.spill()
        assert visits() == 3  # all three pages written
        assert store.ledger.page_out_count == ledger["page_out_count"] + 1
        self.assert_round_trips(store, want)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    scene = build_scene(
        SyntheticSceneConfig(
            num_points=80, width=24, height=18,
            num_train_cameras=2, num_test_cameras=1, seed=5,
        )
    )
    trainer = Trainer(
        scene.initial.copy(), GSScaleConfig(system="gpu_only")
    )
    trainer.train(scene.train_cameras, scene.train_images, 2)
    path = str(tmp_path_factory.mktemp("ckpt") / "model.npz")
    save_checkpoint(path, trainer.system)
    return path, trainer


class TestCorruptCheckpoints:
    def _copy(self, trained, tmp_path):
        src, _ = trained
        dst = str(tmp_path / "copy.npz")
        with open(src, "rb") as a, open(dst, "wb") as b:
            b.write(a.read())
        return dst

    def test_truncated_file_raises_typed_error(self, trained, tmp_path):
        dst = self._copy(trained, tmp_path)
        truncate_file(dst, keep_fraction=0.3)
        _, trainer = trained
        with pytest.raises(CorruptCheckpointError) as exc_info:
            load_checkpoint(dst, trainer.system)
        err = exc_info.value
        assert err.path == dst
        assert err.actual == os.path.getsize(dst)

    def test_reader_names_file_and_block(self, trained, tmp_path):
        # corrupt one member's compressed payload: open succeeds, the
        # block read must raise naming the file, the block, and sizes
        dst = self._copy(trained, tmp_path)
        info = zipfile.ZipFile(dst).infolist()
        member = next(m for m in info if "params" in m.filename)
        # land squarely inside the member's compressed payload: past the
        # 30-byte local header + filename, at the stream's midpoint
        payload_at = member.header_offset + 30 + len(member.filename)
        corrupt_file(
            dst,
            offset=payload_at + member.compress_size // 2,
            length=min(64, member.compress_size // 2),
        )
        reader = None
        try:
            reader = CheckpointReader(dst)
            failures = 0
            for block in reader.blocks():
                try:
                    reader.block_params(block)
                except CorruptCheckpointError as err:
                    failures += 1
                    assert err.path == dst
                    assert err.block
            assert failures >= 1
        except CorruptCheckpointError as err:
            # heavy corruption may already fail at open: still typed
            assert err.path == dst
        finally:
            if reader is not None:
                reader.close()
        # loading reads through the same reader: the header opens, and
        # the damaged member fails named
        _, trainer = trained
        with pytest.raises(CorruptCheckpointError) as exc_info:
            load_checkpoint(dst, trainer.system)
        assert exc_info.value.path == dst
        assert exc_info.value.block

    def test_validate_checkpoint(self, trained, tmp_path):
        src, _ = trained
        assert validate_checkpoint(src) is None
        assert validate_checkpoint(src, deep=True) is None
        missing = str(tmp_path / "nope.npz")
        assert "missing" in validate_checkpoint(missing)
        dst = self._copy(trained, tmp_path)
        truncate_file(dst, keep_fraction=0.2)
        assert validate_checkpoint(dst) is not None

    def test_garbage_file_raises_typed_error(self, trained, tmp_path):
        dst = str(tmp_path / "junk.npz")
        with open(dst, "wb") as fh:
            fh.write(os.urandom(256))
        _, trainer = trained
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(dst, trainer.system)
        with pytest.raises(CorruptCheckpointError):
            CheckpointReader(dst)

    @pytest.mark.parametrize("damage", ["torn", "truncated"])
    def test_unreadable_archive_closes_its_file(
        self, trained, tmp_path, monkeypatch, damage
    ):
        """A zip parse that fails must not leak the file handle. The
        warning of a leaked one is raised inside the file's finalizer,
        which reports it to ``sys.unraisablehook``."""
        dst = self._copy(trained, tmp_path)
        if damage == "torn":  # the end-of-central-directory record
            corrupt_file(dst, offset=os.path.getsize(dst) - 22, length=22)
        else:
            truncate_file(dst, keep_fraction=0.3)
        leaked = []
        monkeypatch.setattr(
            sys, "unraisablehook", lambda u: leaked.append(str(u.exc_value))
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error", ResourceWarning)
            gc.collect()
            assert validate_checkpoint(dst) is not None
            with pytest.raises(CorruptCheckpointError):
                CheckpointReader(dst)
            gc.collect()
        assert leaked == []


class TestServingQuarantine:
    @pytest.mark.parametrize("codec", ["raw", "float16"])
    def test_corrupt_page_quarantines_shard(
        self, trained, tmp_path, codec
    ):
        src, _ = trained
        page_dir = str(tmp_path / f"pages_{codec}")
        service = RenderService.from_checkpoint(
            src, host_budget_bytes=1 << 14, num_shards=4,
            page_dir=page_dir, codec=codec,
        )
        try:
            store = service.store
            pages = sorted(
                f for f in os.listdir(page_dir) if not f.endswith(".crc")
            )
            corrupt_file(
                os.path.join(page_dir, pages[0]), offset=128, length=32
            )
            shard = store.shards[0]
            shard.spill()  # drop the host copy: next touch re-reads disk
            with pytest.raises(PageQuarantinedError):
                shard.page_in()
            assert 0 in store.quarantined
            # later touches fail fast on the quarantine record
            with pytest.raises(PageQuarantinedError):
                shard.page_in()
        finally:
            service.close()

    @pytest.mark.parametrize("codec", ["raw", "float16"])
    def test_misshapen_page_quarantines_shard(self, trained, tmp_path, codec):
        """A shard page of the wrong shape is quarantined on its page-in
        like a bit-rotted one — not re-admitted and rolled back on every
        touch, and never handed out row by row."""
        src, _ = trained
        store = PagedServingStore.from_checkpoint(
            src, host_budget_bytes=1 << 14, num_shards=4,
            page_dir=str(tmp_path / "pages"), codec=codec,
        )
        try:
            shard = store.shards[0]
            path = shard.page_path
            if codec == "raw":  # the file outgrew its mapping
                with open(path, "ab") as fh:
                    fh.write(bytes(2 * layout.NON_GEOMETRIC_DIM * 8))
            else:
                stale = np.zeros((shard.num_rows - 2, layout.NON_GEOMETRIC_DIM))
                atomic_write_bytes(path, pagecodec.encode_page(stale))
            shard.spill()
            with pytest.raises(PageQuarantinedError, match=path):
                store.gather(store.shard_rows[0][:3])
            assert path in store.quarantined[0]
            assert not shard.is_resident
            with pytest.raises(PageQuarantinedError):
                shard.page_in()
        finally:
            store.close()

    @pytest.mark.parametrize("damage", ["corrupt", "torn"])
    def test_encoded_page_damage_quarantines_shard(
        self, trained, tmp_path, damage
    ):
        """A bit-rotted or torn float16 serving page fails its seal on the
        page-in: the shard is quarantined, and the cause is a
        :class:`CorruptPageError` naming the file."""
        src, _ = trained
        store = PagedServingStore.from_checkpoint(
            src, host_budget_bytes=1 << 14, num_shards=4,
            page_dir=str(tmp_path / "pages"), codec="float16",
        )
        try:
            shard = store.shards[1]
            path = shard.page_path
            assert path.endswith(".float16.pagez")
            if damage == "corrupt":
                corrupt_file(path, offset=32, length=8)
            else:
                truncate_file(path, keep_fraction=0.5)
            shard.spill()
            with pytest.raises(PageQuarantinedError) as info:
                shard.page_in()
            cause = info.value.__cause__
            assert isinstance(cause, CorruptPageError) and cause.path == path
            assert ("torn" if damage == "torn" else "checksum") in str(cause)
            assert not shard.is_resident and 1 in store.quarantined
        finally:
            store.close()

    def test_serving_keeps_the_stores_quarantine_record(
        self, trained, tmp_path
    ):
        src, _ = trained
        page_dir = str(tmp_path / "pages_stats")
        service = RenderService.from_checkpoint(
            src, host_budget_bytes=1 << 14, num_shards=4,
            page_dir=page_dir, codec="float16",
        )
        try:
            store = service.store
            store.quarantined[2] = "test-injected"
            scene_cam = _any_camera(service)
            resp = service.render(RenderRequest(camera=scene_cam))
            assert resp.status in ("ok", "error")
            if resp.status == "error":
                assert "quarantined" in resp.reason
            assert store.quarantined == {2: "test-injected"}
        finally:
            service.close()


class TestFaultedPageIn:
    """``PageFile``'s read path visits the ``pager:page_in`` fault point
    once per call, before any byte is read. A page-in it fails leaves
    nothing behind: the store stays as it was, and the next try reads
    what an unfaulted one would have."""

    @staticmethod
    def raising(tmp_path, **kw):
        return active_plan(FaultPlan(
            token_dir=str(tmp_path / "fail"),
            faults=(Fault(point="pager:page_in", action="raise", **kw),),
        ))

    def test_visited_once_per_page_read_before_the_read(self, tmp_path):
        token_dir = tmp_path / "count"
        plan = FaultPlan(
            token_dir=str(token_dir),
            faults=(Fault(point="pager:page_in", action="delay",
                          times=10**6),),
        )
        store = make_disk(tmp_path)
        store.spill()
        with active_plan(plan):
            store.page_in()
            assert len(os.listdir(token_dir)) == 3  # params, m, v
            store.page_in()  # resident: no read
            assert len(os.listdir(token_dir)) == 3
        store.spill()
        os.remove(store.pages["params"].path)
        with self.raising(tmp_path):  # fires before the missing file
            with pytest.raises(InjectedFaultError):
                store.page_in()

    @pytest.mark.parametrize("codec", ["raw", "float16"])
    def test_serving_page_in(self, trained, tmp_path, codec):
        src, _ = trained
        n = resume_model(src).num_gaussians
        budget = layout.param_bytes(n, layout.GEOMETRIC_DIM) + 2 * (
            layout.param_bytes(-(-n // 4), layout.NON_GEOMETRIC_DIM)
        )
        faulted, twin = (
            PagedServingStore.from_checkpoint(
                src, budget, num_shards=4, page_dir=str(tmp_path / name),
                codec=codec,
            )
            for name in ("faulted", "twin")
        )
        try:
            assert faulted.resident_budget == 2
            faulted.gather(faulted.shard_rows[0][:4])  # one slot left free
            resident = faulted.resident_set.resident
            host = faulted.host_memory
            peak, live = host.peak_bytes, host.live_bytes
            ledger = faulted.ledger.counts()
            rows = faulted.shard_rows[1][::-3]
            with self.raising(tmp_path):
                with pytest.raises(InjectedFaultError):
                    faulted.gather(rows)
            assert not faulted.shards[1].is_resident
            assert faulted.resident_set.resident == resident
            assert (host.peak_bytes, host.live_bytes) == (peak, live)
            assert faulted.ledger.counts() == ledger
            assert not faulted.quarantined
            assert faulted.gather(rows).tobytes() == twin.gather(rows).tobytes()
        finally:
            faulted.close()
            twin.close()

    @pytest.mark.parametrize("field", TestFailedPageOut.FIELDS)
    def test_disk_store_page_in(self, tmp_path, field):
        """One of three page reads fails — the first, the second or the
        last: the store stays spilled with its accounting untouched, and
        the retry installs the state an unfaulted page-in installs."""
        faulted, twin = (
            TestFailedPageOut.dirty_store(tmp_path / name)
            for name in ("faulted", "twin")
        )
        for store in (faulted, twin):
            store.spill()
        ledger = faulted.ledger.counts()
        host = faulted.host_memory
        peak, live = host.peak_bytes, host.live_bytes
        epoch = faulted._spill_epoch
        after = TestFailedPageOut.FIELDS.index(field)
        with self.raising(tmp_path, after=after):
            with pytest.raises(InjectedFaultError):
                faulted.page_in()
        assert not faulted.is_resident
        assert faulted.ledger.counts() == ledger
        assert (host.peak_bytes, host.live_bytes) == (peak, live)
        assert faulted._spill_epoch == epoch
        faulted.page_in()
        twin.page_in()
        assert faulted.ledger.counts() == twin.ledger.counts()
        for field in TestFailedPageOut.FIELDS:
            got = getattr(faulted.optimizer, field)
            assert got.tobytes() == getattr(twin.optimizer, field).tobytes()


def _any_camera(service):
    from repro.cameras.camera import Camera

    return Camera.look_at(
        [0.0, 0.0, 4.0], [0.0, 0.0, 0.0], width=24, height=18
    )
