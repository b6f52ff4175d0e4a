"""Serving-store tests: paged placement changes accounting, never pixels.

The acceptance bar for the paged tier: a model larger than the host byte
budget serves with every tracked host byte under the budget (capacity-
enforced, not just reported), page traffic quantized in whole shard
pages on the ledger's disk channel, and gathers bit-identical to the
in-memory store.
"""

import contextlib
import os
import signal

import numpy as np
import pytest

from repro.core import GSScaleConfig, create_system, pagecodec
from repro.core.checkpoint import CheckpointReader, resume_model, save_checkpoint
from repro.core.splitting import spatial_partition
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import layout
from repro.serve import InMemoryServingStore, PagedServingStore


@pytest.fixture(scope="module")
def scene():
    return build_scene(
        SyntheticSceneConfig(
            num_points=240, width=36, height=28,
            num_train_cameras=6, num_test_cameras=2,
            altitude=12.0, seed=11,
        )
    )


def tight_budget(n: int, num_shards: int = 4, shards_resident: int = 1) -> int:
    """Geometry + ``shards_resident`` worst-case shard pages."""
    worst = -(-n // num_shards)
    return layout.param_bytes(n, layout.GEOMETRIC_DIM) + (
        shards_resident * layout.param_bytes(worst, layout.NON_GEOMETRIC_DIM)
    )


class TestInMemoryStore:
    def test_gather_and_geometry_match_model(self, scene):
        model = scene.oracle
        store = InMemoryServingStore.from_model(model)
        ids = np.arange(0, model.num_gaussians, 3)
        assert np.array_equal(store.gather(ids), model.params[ids])
        means, log_scales, quats = store.geometry()
        assert np.array_equal(means, model.means)
        assert np.array_equal(log_scales, model.log_scales)
        assert np.array_equal(quats, model.quats)

    def test_copy_decouples_from_model(self, scene):
        model = scene.oracle.copy()
        store = InMemoryServingStore.from_model(model)
        model.params[:] = 0.0
        assert not np.array_equal(store.params, model.params)

    def test_rejects_wrong_width(self):
        with pytest.raises(ValueError, match="params"):
            InMemoryServingStore(np.zeros((4, 10)))


class TestPagedStore:
    def test_gather_bit_identical_to_in_memory(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        paged = PagedServingStore.from_model(model, tight_budget(n))
        rng = np.random.default_rng(0)
        for _ in range(4):
            ids = np.sort(rng.choice(n, size=60, replace=False))
            assert np.array_equal(paged.gather(ids), model.params[ids])
        in_memory = InMemoryServingStore.from_model(model)
        for ids in (
            rng.choice(n, size=90, replace=False),  # unsorted
            np.empty(0, dtype=np.int64),
            np.arange(n),
        ):
            got = paged.gather(ids)
            assert got.tobytes() == in_memory.gather(ids).tobytes()
        paged.close()

    @pytest.mark.parametrize("n, num_shards", [(240, 1), (3, 8)])
    def test_gather_bytes_equal_in_memory_any_shard_count(
        self, scene, n, num_shards
    ):
        """One shard, and more shards than rows (empty shards)."""
        model = scene.oracle.select(np.arange(n))
        paged = PagedServingStore.from_model(
            model, tight_budget(n, num_shards=num_shards),
            num_shards=num_shards,
        )
        in_memory = InMemoryServingStore.from_model(model)
        rng = np.random.default_rng(3)
        for ids in (
            rng.choice(n, size=max(n // 3, 1), replace=False),  # unsorted
            np.empty(0, dtype=np.int64),
            np.arange(n),
        ):
            got = paged.gather(ids)
            assert got.tobytes() == in_memory.gather(ids).tobytes()
        paged.close()

    @pytest.mark.parametrize(
        "rows",
        [
            [[0, 1], [1, 2]],  # row 1 twice, row 3 in no shard
            [[0, 0], [2, 3]],  # a row repeated inside one shard
            [[0, 1], [2, 4]],  # an id >= N
            [[0, 1], [-1, 3]],  # a negative id
        ],
    )
    def test_shard_rows_must_tile(self, rows):
        """A partition that does not tile the rows is rejected up front —
        served, a row in no shard would gather uninitialised memory."""
        geo = np.zeros((4, layout.GEOMETRIC_DIM))
        with pytest.raises(
            ValueError, match="shard rows must tile 0..N-1 exactly once"
        ):
            PagedServingStore(geo, [np.array(r) for r in rows], 1 << 20)

    def test_budget_enforced_while_model_larger(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        budget = tight_budget(n)
        paged = PagedServingStore.from_model(model, budget)
        assert paged.model_bytes > budget  # the model cannot be hosted whole
        rng = np.random.default_rng(1)
        for _ in range(6):
            ids = np.sort(rng.choice(n, size=80, replace=False))
            paged.gather(ids)
            assert paged.host_memory.live_bytes <= budget
        # tracker-verified: capacity equals the budget, so an accounting
        # bug would have raised MemoryError above
        assert paged.host_memory.capacity_bytes == budget
        assert paged.host_memory.peak_bytes <= budget
        paged.close()

    def test_page_traffic_quantized_on_ledger(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        paged = PagedServingStore.from_model(model, tight_budget(n))
        assert paged.resident_budget == 1
        paged.gather(np.arange(n))  # touches every shard, in shard order
        ledger = paged.ledger
        sizes = [
            layout.param_bytes(int(r.size), layout.NON_GEOMETRIC_DIM)
            for r in paged.shard_rows
        ]
        # each shard pages in exactly once; all but the last spill to make
        # room for the next — whole shard pages, nothing partial
        assert ledger.page_in_count == len(sizes)
        assert ledger.page_in_bytes == sum(sizes)
        assert ledger.page_out_count == len(sizes) - 1
        assert ledger.page_out_bytes == sum(sizes[:-1])
        paged.close()

    def test_lru_revisit_does_not_repage(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        paged = PagedServingStore.from_model(
            model, tight_budget(n, shards_resident=4)
        )
        assert paged.resident_budget == 4
        ids = paged.shard_rows[0][:10]
        paged.gather(ids)
        pages = paged.ledger.page_in_count
        paged.gather(ids)  # resident: a touch, not a page-in
        assert paged.ledger.page_in_count == pages
        paged.close()

    def test_budget_too_small_raises(self, scene):
        model = scene.oracle
        with pytest.raises(ValueError, match="host budget"):
            PagedServingStore.from_model(
                model, layout.param_bytes(model.num_gaussians, layout.GEOMETRIC_DIM)
            )

    def test_explicit_page_dir_is_used(self, scene, tmp_path):
        model = scene.oracle
        paged = PagedServingStore.from_model(
            model, tight_budget(model.num_gaussians),
            page_dir=str(tmp_path / "pages"),
        )
        # one file per shard, nothing beside it
        assert len(os.listdir(tmp_path / "pages")) == len(paged.shards)
        paged.close()


class TestPagedStoreCodecs:
    """Compressed serving pages: the float16 codec changes bytes on disk
    and the served values only within half-precision tolerance — and the
    ledger's disk channel meters the encoded size next to the
    fp32-equivalent accounting."""

    def test_float16_gather_tolerance_geometry_exact(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        paged = PagedServingStore.from_model(
            model, tight_budget(n), codec="float16"
        )
        ids = np.arange(n)
        got = paged.gather(ids)
        # geometric columns never touch the codec: bit-exact
        np.testing.assert_array_equal(
            got[:, layout.GEOMETRIC_SLICE],
            model.params[:, layout.GEOMETRIC_SLICE],
        )
        np.testing.assert_allclose(
            got[:, layout.NON_GEOMETRIC_SLICE],
            model.params[:, layout.NON_GEOMETRIC_SLICE],
            rtol=2e-3, atol=1e-6,
        )
        paged.close()

    def test_float16_gather_decodes_rows_as_the_whole_page(self, scene):
        """A resident float16 page stays encoded: a gather of any subset
        — unsorted, repeated, across shards that evict one another —
        returns the rows the whole decoded page holds, byte for byte."""
        model = scene.oracle
        n = model.num_gaussians
        paged = PagedServingStore.from_model(
            model, tight_budget(n, shards_resident=2), codec="float16"
        )
        assert paged.resident_budget == 2 < len(paged.shards)
        # every page decoded whole, scattered back to global row order
        decoded = np.empty((n, layout.NON_GEOMETRIC_DIM))
        for shard, rows in zip(paged.shards, paged.shard_rows):
            decoded[rows] = shard.page.read()
        rng = np.random.default_rng(5)
        pages = paged.ledger.page_in_count
        for size in (1, 37, 150, 3 * n):
            ids = rng.integers(0, n, size)  # unsorted, with repeats
            got = paged.gather(ids)
            assert got[:, layout.NON_GEOMETRIC_SLICE].tobytes() == (
                decoded[ids].tobytes()
            )
        assert paged.ledger.page_out_count > 0  # pages were evicted
        assert paged.ledger.page_in_count > pages
        paged.close()

    def test_disk_channel_meters_encoded_bytes(self, scene):
        model = scene.oracle
        n = model.num_gaussians
        stores = {
            name: PagedServingStore.from_model(
                model, tight_budget(n), codec=name
            )
            for name in ("raw", "float16")
        }
        try:
            for s in stores.values():
                s.gather(np.arange(n))  # page every shard in once
            raw, f16 = (stores[k].ledger for k in ("raw", "float16"))
            # accounting side is placement-independent
            assert f16.page_in_bytes == raw.page_in_bytes
            # raw: both sides agree; f16: ~2x (2 bytes/value + a 2-byte
            # per-column scale header)
            assert raw.page_in_disk_bytes == raw.page_in_bytes
            assert 1.5 < f16.page_in_bytes / f16.page_in_disk_bytes <= 2.0
        finally:
            for s in stores.values():
                s.close()


#: ``(num_shards, resident pages)``: every budget from one page to all
SHARDINGS = [
    (shards, resident)
    for shards in (1, 2, 3, 5, 8)
    for resident in sorted({1, 2, shards})
    if resident <= shards
]


class TestTickGather:
    """A serving tick's gather (``gather_tick``) pages exactly as
    ``gather`` does — the same page-ins, ledger, counters and resident
    set, even when the union spills a shard part-way through — and hands
    back the same values: every column but the SH decoded for every row,
    the SH decoded only for the rows asked for, each byte-equal to
    ``gather``'s."""

    @staticmethod
    def state(store):
        return (
            store.ledger.counts(),
            store.rows_gathered,
            store.shards_touched,
            [shard.index for shard in store.resident_set.resident],
            store.host_memory.live_by_category(),
            store.host_memory.peak_bytes,
        )

    @pytest.mark.parametrize("codec", ["raw", "float16"])
    def test_pages_and_values_equal_the_eager_gather(self, scene, codec):
        model = scene.oracle
        n = model.num_gaussians
        eager, tick = (
            PagedServingStore.from_model(
                model, tight_budget(n, shards_resident=2), codec=codec
            )
            for _ in range(2)
        )
        rng = np.random.default_rng(9)
        warm = np.sort(rng.choice(n, size=20, replace=False))
        union = np.sort(rng.choice(n, size=3 * n // 4, replace=False))
        try:
            for store in (eager, tick):
                store.gather(warm)  # some shards resident, in LRU order
            before = eager.ledger.page_out_count
            full = eager.gather(union)
            rows = tick.gather_tick(union)
            # the union touches every shard, over a budget of two: the
            # gather spills shards it already read
            assert eager.shards_touched - 1 > eager.resident_budget
            assert eager.ledger.page_out_count > before
            assert self.state(tick) == self.state(eager)

            head = full[:, : layout.OPACITY_SLICE.stop]
            assert rows.head.tobytes() == head.tobytes()
            assert rows.num_gaussians == union.size and rows.shaded == 0
            sh = full[:, layout.SH_SLICE]
            for pick in (
                np.array([0]), np.array([3, 1]),
                np.sort(rng.choice(union.size, 25, replace=False)),
                np.arange(union.size),
            ):
                got = rows.sh[pick]
                assert got.shape == (pick.size, 16, 3)
                assert got.dtype == full.dtype
                assert got.tobytes() == sh[pick].tobytes()
            assert rows.shaded == 1 + 2 + 25 + union.size
            assert self.state(tick) == self.state(eager)  # decoding pages nothing
        finally:
            eager.close()
            tick.close()

    def test_in_memory_tick_is_the_gather(self, scene):
        model = scene.oracle
        store = InMemoryServingStore.from_model(model)
        ids = np.arange(0, model.num_gaussians, 4)
        rows = store.gather_tick(ids)
        assert store.rows_gathered == ids.size
        assert np.array_equal(rows.means, model.means[ids])
        assert np.array_equal(rows.opacity_logits, model.opacity_logits[ids])
        assert np.array_equal(rows.sh[np.array([2, 0])], model.sh[ids[[2, 0]]])


class TestAnyShardingServesTheSameBytes:
    """Whatever the shard count and however many pages the budget holds,
    a gather returns the model as its pages store it — the model itself
    under ``raw``, each shard page rounded once under ``float16`` — and
    the tracked host bytes stay under the budget."""

    @staticmethod
    def stored(model, codec, shard_rows):
        """The model through the codec, shard page by shard page, with no
        store method involved (a raw page is its array)."""
        params = model.params.copy()
        if codec == "raw":
            return params
        ng = layout.NON_GEOMETRIC_SLICE
        for rows in shard_rows:
            page = params[rows][:, ng]
            params[rows, ng] = pagecodec.decode(
                pagecodec.encode(page), page.shape, params.dtype
            )
        return params

    @pytest.mark.parametrize("codec", ["raw", "float16"])
    @pytest.mark.parametrize(
        "shards, resident", SHARDINGS,
        ids=[f"{k}shards-{r}resident" for k, r in SHARDINGS],
    )
    def test_gather_is_the_stored_model(self, scene, codec, shards, resident):
        model = scene.oracle
        n = model.num_gaussians
        worst = max(r.size for r in spatial_partition(model.means, shards))
        budget = layout.param_bytes(n, layout.GEOMETRIC_DIM) + (
            resident * layout.param_bytes(worst, layout.NON_GEOMETRIC_DIM)
        )
        paged = PagedServingStore.from_model(
            model, budget, num_shards=shards, codec=codec
        )
        try:
            assert paged.resident_budget == resident
            want = self.stored(model, paged.codec, paged.shard_rows)
            if codec == "raw":
                assert want.tobytes() == model.params.tobytes()
            rng = np.random.default_rng(shards * 10 + resident)
            for ids in (
                np.arange(n),
                rng.integers(0, n, 50),  # unsorted, with repeats
                np.empty(0, dtype=np.int64),
                *paged.shard_rows[::-1],  # one shard at a time
            ):
                assert paged.gather(ids).tobytes() == want[ids].tobytes()
            assert paged.host_memory.peak_bytes <= budget
        finally:
            paged.close()


@contextlib.contextmanager
def alarm_after(seconds: int):
    """Fail (rather than hang the suite) if the body runs too long."""

    def on_alarm(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestFailedPageIn:
    @pytest.mark.parametrize("codec", ["raw", "float16"])
    def test_read_error_leaves_the_resident_set_as_it_found_it(
        self, scene, codec
    ):
        """A page-in that fails for a non-integrity reason (the page file
        is gone) propagates, registers nothing, and the next gather of
        another shard returns — an admitted-but-never-read shard cannot
        be spilled, so it would wedge every later admit."""
        model = scene.oracle
        paged = PagedServingStore.from_model(
            model, tight_budget(model.num_gaussians), codec=codec
        )
        assert paged.resident_budget == 1
        os.remove(paged.shards[0].page_path)
        with pytest.raises(OSError):
            paged.gather(paged.shard_rows[0][:5])
        assert all(s.is_resident for s in paged.resident_set.resident)
        assert not paged.quarantined  # not an integrity failure
        rows = paged.shard_rows[1][:5]
        with alarm_after(5):
            gathered = paged.gather(rows)
        if codec == "float16":
            # lossy: the served columns are the page's, not the model's
            geo = layout.GEOMETRIC_SLICE
            assert np.array_equal(gathered[:, geo], model.params[rows, geo])
            ng = layout.NON_GEOMETRIC_SLICE
            page = paged.shards[1].page.read()
            assert gathered[:, ng].tobytes() == page[:5].tobytes()
        else:
            assert np.array_equal(gathered, model.params[rows])
        paged.close()


class TestCheckpointOpen:
    @pytest.fixture(scope="class")
    def checkpoint(self, scene, tmp_path_factory):
        cfg = GSScaleConfig(
            system="outofcore", num_shards=4, resident_shards=1,
            scene_extent=scene.extent, mem_limit=1.0, seed=0,
            engine="vectorized",
        )
        system = create_system(scene.initial.copy(), cfg)
        for i in range(6):
            system.step(scene.train_cameras[i % 6], scene.train_images[i % 6])
        path = str(tmp_path_factory.mktemp("ck") / "serve_ck.npz")
        save_checkpoint(path, system)
        system.finalize()
        return path

    def test_reader_blocks_cover_all_columns(self, checkpoint):
        with CheckpointReader(checkpoint) as reader:
            cols = np.zeros(layout.PARAM_DIM, dtype=np.int64)
            for info in reader.blocks():
                rows = (
                    reader.num_gaussians if info.rows is None else info.rows.size
                )
                cols[info.start : info.stop] += rows
            assert (cols == reader.num_gaussians).all()

    def test_assemble_matches_resume_model(self, checkpoint):
        ref = resume_model(checkpoint)
        with CheckpointReader(checkpoint) as reader:
            geo = reader.assemble_columns(layout.GEOMETRIC_SLICE)
            sh = reader.assemble_columns(layout.SH_SLICE)
        assert np.array_equal(geo, ref.params[:, layout.GEOMETRIC_SLICE])
        assert np.array_equal(sh, ref.params[:, layout.SH_SLICE])

    def test_assemble_uncovered_columns_raises(self, checkpoint, tmp_path):
        with CheckpointReader(checkpoint) as reader:
            with pytest.raises(ValueError, match="cover"):
                reader.assemble_columns(slice(0, layout.PARAM_DIM + 1))

    def test_paged_from_checkpoint_matches_resume(self, checkpoint):
        ref = resume_model(checkpoint)
        n = ref.num_gaussians
        paged = PagedServingStore.from_checkpoint(
            checkpoint, tight_budget(n), num_shards=4
        )
        ids = np.arange(n)
        assert np.array_equal(paged.gather(ids), ref.params[ids])
        assert paged.host_memory.peak_bytes <= paged.host_memory.capacity_bytes
        paged.close()

    def test_paged_from_checkpoint_with_float16_codec(self, checkpoint):
        """Opening a trained checkpoint straight into float16 serving
        pages: gathers match ``resume_model`` exactly on the geometry and
        within half precision elsewhere, and the disk channel meters the
        encoded pages."""
        ref = resume_model(checkpoint)
        n = ref.num_gaussians
        paged = PagedServingStore.from_checkpoint(
            checkpoint, tight_budget(n), num_shards=4, codec="float16"
        )
        got = paged.gather(np.arange(n))
        geo, ng = layout.GEOMETRIC_SLICE, layout.NON_GEOMETRIC_SLICE
        assert np.array_equal(got[:, geo], ref.params[:, geo])
        np.testing.assert_allclose(
            got[:, ng], ref.params[:, ng], rtol=2e-3, atol=1e-6
        )
        assert paged.ledger.page_in_disk_bytes < paged.ledger.page_in_bytes
        paged.close()

    @pytest.mark.parametrize("codec", ["raw", "float16"])
    def test_one_fill_path(self, checkpoint, tmp_path, codec):
        """A checkpoint streamed block by block and the resumed model
        written whole fill byte-identical page files."""
        ref = resume_model(checkpoint)
        budget = tight_budget(ref.num_gaussians)
        stores = [
            PagedServingStore.from_checkpoint(
                checkpoint, budget, num_shards=4,
                page_dir=str(tmp_path / "ckpt"), codec=codec,
            ),
            PagedServingStore.from_model(
                ref, budget, num_shards=4,
                page_dir=str(tmp_path / "model"), codec=codec,
            ),
        ]
        try:
            pages = []
            for store in stores:
                files = {}
                for shard in store.shards:
                    with open(shard.page_path, "rb") as fh:
                        files[os.path.basename(shard.page_path)] = fh.read()
                pages.append(files)
            assert pages[0] == pages[1]
        finally:
            for store in stores:
                store.close()

    def test_render_service_forwards_codec(self, checkpoint):
        """``RenderService.from_checkpoint(codec=...)`` reaches the paged
        store — the serving entry point can select compressed pages."""
        from repro.serve import RenderService

        ref = resume_model(checkpoint)
        service = RenderService.from_checkpoint(
            checkpoint, host_budget_bytes=tight_budget(ref.num_gaussians),
            num_shards=4, codec="float16",
        )
        try:
            assert service.store.codec == "float16"
            n = ref.num_gaussians
            gathered = service.store.gather(np.arange(n))
            geo = layout.GEOMETRIC_SLICE
            assert np.array_equal(gathered[:, geo], ref.params[:, geo])
        finally:
            service.store.close()

    def test_from_checkpoint_respects_shard_count(self, checkpoint):
        ref = resume_model(checkpoint)
        paged = PagedServingStore.from_checkpoint(
            checkpoint, tight_budget(ref.num_gaussians, num_shards=2),
            num_shards=2,
        )
        assert len(paged.shards) == 2
        assert np.array_equal(
            paged.gather(np.arange(ref.num_gaussians)), ref.params
        )
        paged.close()


class TestEmptyShards:
    """More shards than splats: the partitioner pads empty shards, whose
    zero-row pages must build, seal, page, and gather under every codec
    (regression guard for the patch pipeline's tiny-cell outputs)."""

    @pytest.mark.parametrize("codec", ("raw", "float16"))
    def test_paged_store_with_empty_shards(self, scene, codec):
        model = scene.oracle.select(np.arange(3))
        paged = PagedServingStore.from_model(
            model, tight_budget(3, num_shards=8), num_shards=8, codec=codec
        )
        assert len(paged.shards) == 8
        assert any(r.size == 0 for r in paged.shard_rows)
        gathered = paged.gather(np.arange(3))
        geo = layout.GEOMETRIC_SLICE
        ng = layout.NON_GEOMETRIC_SLICE
        assert np.array_equal(gathered[:, geo], model.params[:, geo])
        if codec == "float16":  # lossy on the paged block, by design
            np.testing.assert_allclose(
                gathered[:, ng], model.params[:, ng], rtol=2e-3, atol=1e-6
            )
        else:
            assert np.array_equal(gathered[:, ng], model.params[:, ng])
        assert paged.gather(np.empty(0, dtype=np.int64)).shape == (
            0,
            layout.PARAM_DIM,
        )
        paged.close()

    def test_in_memory_store_empty_gather(self, scene):
        store = InMemoryServingStore.from_model(scene.oracle)
        ids = np.empty(0, dtype=np.int64)
        assert store.gather(ids).shape == (0, layout.PARAM_DIM)
