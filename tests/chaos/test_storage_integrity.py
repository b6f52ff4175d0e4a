"""Storage integrity: checksummed pages, atomic writes, corrupt
checkpoints, and serving-page quarantine.

Silent disk corruption must never flow back into the math. Every spill
page (raw or encoded), every sealed serving page, and every checkpoint
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

from repro.core import CorruptCheckpointError, CorruptPageError
from repro.core.checkpoint import (
    CheckpointReader,
    load_checkpoint,
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
from repro.core.stores import DiskStore, _WriteBehindWriter
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
from repro.serve import PageQuarantinedError, RenderRequest, RenderService
from repro.sim.memory import MemoryTracker

N = 24
ADAM = AdamConfig(lr=5e-3)


def _params(seed=0):
    return np.random.default_rng(seed).normal(size=(N, layout.PARAM_DIM))


def make_disk(tmp_path, codec="raw", name="spill"):
    return DiskStore(
        _params(), layout.ALL_BLOCK, ADAM, MemoryTracker(),
        TransferLedger(), spill_path=str(tmp_path / name),
        forwarding=True, codec=codec,
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
        store = make_disk(tmp_path, codec="raw")
        store.spill()
        corrupt_file(str(tmp_path / "spill.m.dat"), offset=64, length=16)
        with pytest.raises(CorruptPageError, match="spill.m.dat"):
            store.page_in()

    @pytest.mark.parametrize("codec", ["lossless", "float16"])
    def test_encoded_page_corruption_detected(self, tmp_path, codec):
        store = make_disk(tmp_path, codec=codec)
        store.spill()
        path = str(tmp_path / f"spill.params.{codec}.pagez")
        corrupt_file(path, offset=32, length=8)
        with pytest.raises(CorruptPageError, match="params"):
            store.page_in()

    @pytest.mark.parametrize("codec", ["lossless", "float16"])
    def test_encoded_torn_page_detected(self, tmp_path, codec):
        store = make_disk(tmp_path, codec=codec)
        store.spill()
        path = str(tmp_path / f"spill.v.{codec}.pagez")
        truncate_file(path, keep_fraction=0.5)
        with pytest.raises(CorruptPageError, match="torn"):
            store.page_in()

    def test_clean_spill_cycle_verifies(self, tmp_path):
        store = make_disk(tmp_path, codec="lossless")
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
    """A page-out whose second page write fails (the ``pager:page_out``
    fault point, visited once per page before any byte moves) has a
    defined outcome: nothing is lost, nothing is counted twice, and the
    next spill writes all three pages again."""

    FIELDS = ("params", "m", "v")

    @staticmethod
    def dirty_store(tmp_path, codec, writer=None):
        store = DiskStore(
            _params(), layout.ALL_BLOCK, ADAM, MemoryTracker(),
            TransferLedger(), spill_path=str(tmp_path / "spill"),
            forwarding=True, deferred=True, codec=codec, writer=writer,
        )
        store.spill()  # the pages hold the initial state
        if writer is not None:
            writer.drain()
        ids = np.arange(0, N, 2)
        store.return_grads(ids, np.ones((ids.size, layout.PARAM_DIM)))
        store.commit()  # pages in and updates rows: dirty
        assert store.is_resident and store.is_dirty
        return store

    def held(self, store):
        return {f: getattr(store.optimizer, f).copy() for f in self.FIELDS}

    @staticmethod
    def fail_second_page(tmp_path):
        return active_plan(FaultPlan(
            token_dir=str(tmp_path / "fail"),
            faults=(Fault(point="pager:page_out", action="raise", after=1),),
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
        """A page-in gives back ``want`` as the codec stores it."""
        store.page_in()
        for field in self.FIELDS:
            page = store.pages[field]
            expect = store.codec.decode_page(
                store.codec.encode_page(want[field]), page.shape, page.dtype
            )
            got = getattr(store.optimizer, field)
            assert got.tobytes() == expect.tobytes(), field

    @pytest.mark.parametrize("codec", ["raw", "lossless", "float16"])
    def test_sync_spill_stays_resident_and_dirty(self, tmp_path, codec):
        store = self.dirty_store(tmp_path, codec)
        want = self.held(store)
        ledger = store.ledger.counts()
        host = store.host_memory.live_bytes
        epoch = store._spill_epoch
        written = store.sync_spill_bytes
        with self.fail_second_page(tmp_path):
            with pytest.raises(InjectedFaultError):
                store.spill()
        assert store.is_resident and store.is_dirty
        assert store.ledger.counts() == ledger
        assert store.host_memory.live_bytes == host
        assert store._spill_epoch == epoch
        assert store.sync_spill_bytes == written
        for field, arr in self.held(store).items():
            assert arr.tobytes() == want[field].tobytes(), field
        plan, visits = self.counting(tmp_path)
        with plan:
            store.spill()
        assert visits() == 3  # all three pages written
        assert store.ledger.page_out_count == ledger["page_out_count"] + 1
        self.assert_round_trips(store, want)

    @pytest.mark.parametrize("codec", ["raw", "lossless", "float16"])
    def test_write_behind_error_surfaces_at_drain(self, tmp_path, codec):
        writer = _WriteBehindWriter()
        try:
            store = self.dirty_store(tmp_path, codec, writer)
            want = self.held(store)
            with self.fail_second_page(tmp_path):
                store.spill()  # queued: the write fails on the writer
                with pytest.raises(InjectedFaultError):
                    writer.drain()
            count = store.ledger.page_out_count
            store.page_in()  # re-adopts the pages that never landed
            assert store.is_dirty
            self.assert_round_trips(store, want)
            plan, visits = self.counting(tmp_path)
            with plan:
                store.spill()
                writer.drain()
            assert visits() == 3  # all three pages written
            # that page-out was counted when it was first spilled
            assert store.ledger.page_out_count == count
            self.assert_round_trips(store, want)
        finally:
            writer.close()


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

    def test_quarantine_count_surfaces_in_serve_stats(
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
            assert service.stats.quarantined_pages == 1
        finally:
            service.close()


def _any_camera(service):
    from repro.cameras.camera import Camera

    return Camera.look_at(
        [0.0, 0.0, 4.0], [0.0, 0.0, 0.0], width=24, height=18
    )
