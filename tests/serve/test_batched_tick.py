"""The three-phase serving tick: cull all, gather once, composite each.

What batching may change is *accounting* — one gather per tick group for
the sorted union of its frames' visible rows, each shard paged at most
once, resident pages first — never pixels, and never containment: a
corrupt page fails exactly the frames that touch its shard.
"""

import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cameras.camera import Camera
from repro.core import pagecodec
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.faults import corrupt_file
from repro.gaussians import layout
from repro.gaussians.model import GaussianModel
from repro.render import frustum_cull
from repro.serve import (
    FrameTask,
    InMemoryServingStore,
    LODLevel,
    LODSet,
    PagedServingStore,
    RenderRequest,
    RenderService,
    farm,
)
from repro.serve.farm import render_frame, render_frames, visible_ids

NUM_SHARDS = 8


@pytest.fixture(scope="module")
def model():
    """Small splats over a 20 x 20 site, so a low top-down camera sees a
    few shards and different cameras see different ones."""
    scene = build_scene(
        SyntheticSceneConfig(
            num_points=320, width=32, height=24, num_train_cameras=2,
            num_test_cameras=1, altitude=12.0, seed=13,
        )
    )
    model = scene.oracle.copy()
    model.log_scales[:] -= np.log(5.0)
    return model


def cameras(seed: int, count: int) -> list[Camera]:
    rng = np.random.default_rng(seed)
    cams = []
    for _ in range(count):
        x, y = rng.uniform(-7.0, 7.0, size=2)
        cams.append(
            Camera.look_at(
                np.array([x, y, 8.0]), np.array([x + 0.3, y, 0.0]),
                width=32, height=24, fov_x_deg=50.0,
            )
        )
    return cams


def budget(n: int, pages: int) -> int:
    worst = -(-n // NUM_SHARDS)
    return layout.param_bytes(n, layout.GEOMETRIC_DIM) + pages * (
        layout.param_bytes(worst, layout.NON_GEOMETRIC_DIM)
    )


def paged(model, pages: int, codec: str = "float16", page_dir=None):
    return PagedServingStore.from_model(
        model, budget(model.num_gaussians, pages), num_shards=NUM_SHARDS,
        codec=codec, page_dir=page_dir,
    )


def stored_params(model, store: PagedServingStore) -> np.ndarray:
    """The model as the store holds it: non-geometric columns through
    the page codec, shard by shard (no store method involved)."""
    params = model.params.copy()
    if store.codec == "float16":
        for rows in store.shard_rows:
            page = params[rows][:, layout.NON_GEOMETRIC_SLICE]
            params[rows, layout.NON_GEOMETRIC_SLICE] = pagecodec.decode(
                pagecodec.encode(page), page.shape, params.dtype
            )
    return params


def shard_of(store: PagedServingStore) -> np.ndarray:
    owner = np.empty(store.num_rows, dtype=np.int64)
    for k, rows in enumerate(store.shard_rows):
        owner[rows] = k
    return owner


# -- the store: one gather pays exactly the touched pages that were out -----


class TestGatherOrderIndependence:
    @pytest.fixture(scope="class")
    def stores(self, model):
        built = {
            (codec, pages): paged(model, pages, codec)
            for codec in ("raw", "float16")
            for pages in range(1, NUM_SHARDS + 1)
        }
        yield built
        for store in built.values():
            store.close()

    @settings(max_examples=60, deadline=None)
    @given(
        codec=st.sampled_from(["raw", "float16"]),
        pages=st.integers(1, NUM_SHARDS),
        seed=st.integers(0, 10_000),
    )
    def test_equals_in_memory_and_pages_in_only_what_was_out(
        self, model, stores, codec, pages, seed
    ):
        store = stores[codec, pages]
        assert store.resident_budget == pages
        rng = np.random.default_rng(seed)
        for shard in store.shards:
            shard.spill()
        warm = rng.permutation(NUM_SHARDS)[: rng.integers(0, pages + 1)]
        for k in warm:
            store.shards[k].page_in()
        n = store.num_rows
        ids = rng.choice(n, size=rng.integers(0, n + 1), replace=False)
        if rng.random() < 0.7:
            ids.sort()  # what the frame path sends; any order must work

        resident_before = {s.index for s in store.shards if s.is_resident}
        assert resident_before == set(warm.tolist())
        touched = set(shard_of(store)[ids].tolist())
        page_ins = store.ledger.page_in_count
        visits = store.shards_touched
        rows = store.gather(ids)

        reference = InMemoryServingStore(stored_params(model, store), copy=False)
        assert np.array_equal(rows, reference.gather(ids))
        assert store.ledger.page_in_count - page_ins == len(
            touched - resident_before
        )
        assert store.shards_touched - visits == len(touched)
        assert store.host_memory.live_bytes <= store.host_memory.capacity_bytes

    def test_never_evicts_a_page_it_is_about_to_read(self, model):
        """The access pattern LRU cannot serve in index order: shards
        0..K-1 against K-1 pages, twice. Resident-first pays one page-in
        on the second pass; index order would pay all K again."""
        store = paged(model, NUM_SHARDS - 1)
        ids = np.arange(store.num_rows)
        store.gather(ids)
        assert store.ledger.page_in_count == NUM_SHARDS
        store.gather(ids)
        assert store.ledger.page_in_count == NUM_SHARDS + 1
        store.close()

    def test_row_cap_is_the_page_budget(self, model):
        store = paged(model, 3)
        largest = max(r.size for r in store.shard_rows)
        assert store.max_gather_rows == 3 * largest
        assert InMemoryServingStore.from_model(model).max_gather_rows is None
        store.close()


# -- the cull: only the rows the level keeps ---------------------------------


class TestLevelSubsetCull:
    @pytest.mark.parametrize("seed", range(6))
    def test_equals_filtered_whole_model_cull(self, model, seed):
        store = InMemoryServingStore.from_model(model)
        lod_set = LODSet.build(model.params)
        means, log_scales, quats = store.geometry()
        for camera in cameras(seed, 3):
            whole = frustum_cull(means, log_scales, quats, camera).valid_ids
            for lod in range(lod_set.num_levels):
                task = FrameTask(camera, lod, lod_set.sh_degree(lod))
                ids = visible_ids(store, lod_set.drop_level, task)
                assert np.array_equal(ids, lod_set.filter_ids(whole, lod))

    def test_every_serving_path_culls_to_the_filtered_whole_model_set(
        self, model, monkeypatch
    ):
        """Inline batch and single frame, on either placement, all go
        through the one cull, and on every level it names the
        whole-model set."""
        lod_set = LODSet.build(model.params)
        drop = lod_set.drop_level
        memory = InMemoryServingStore.from_model(model)
        store = paged(model, 3, codec="raw")
        seen = []
        real = farm._cull_frame

        def spy(*args):
            ids, _, _, projected = out = real(*args)
            seen.append((ids, projected))
            return out

        monkeypatch.setattr(farm, "_cull_frame", spy)
        paths = [
            (memory, lambda task: render_frames(memory, drop, [task])),
            (store, lambda task: render_frames(store, drop, [task])),
            (store, lambda task: render_frame(store, drop, task)),
        ]
        try:
            for camera in cameras(9, 2):
                whole = frustum_cull(*memory.geometry(), camera).valid_ids
                assert whole.size
                for lod in range(lod_set.num_levels):
                    task = FrameTask(camera, lod, lod_set.sh_degree(lod))
                    want = lod_set.filter_ids(whole, lod)
                    for placed, run in paths:
                        seen.clear()
                        before = placed.rows_projected
                        run(task)
                        (ids, projected), = seen
                        assert np.array_equal(ids, want)
                        assert placed.rows_projected - before == projected
        finally:
            store.close()

    def test_sparse_view_projects_few_rows_never_fewer_than_visible(
        self, model, monkeypatch
    ):
        """The exact test sees the candidates, not the model: fewer rows
        than the store holds, and every visible one among them."""
        handed = []
        real = farm.frustum_cull

        def spy(means, log_scales, quats, camera, **kwargs):
            handed.append(means.shape[0])
            return real(means, log_scales, quats, camera, **kwargs)

        store = InMemoryServingStore.from_model(model)
        lod_set = LODSet.build(model.params)
        for camera in cameras(10, 4):
            whole = frustum_cull(*store.geometry(), camera).valid_ids
            for lod in (0, 2):
                visible = lod_set.filter_ids(whole, lod).size
                before = store.rows_projected
                with monkeypatch.context() as patch:
                    patch.setattr(farm, "frustum_cull", spy)
                    handed.clear()
                    ids = visible_ids(
                        store, lod_set.drop_level,
                        FrameTask(camera, lod, lod_set.sh_degree(lod)),
                    )
                assert ids.size == visible
                assert len(handed) == 1
                assert visible <= handed[0] < store.num_rows // 2
                assert store.rows_projected - before == handed[0]

    def test_rows_on_the_near_plane_keep_the_whole_model_verdict(self):
        """A float32 model with rows on the near plane up to rounding:
        BLAS rounds the depth product differently over a gathered subset,
        so near/far is decided once, on the whole arrays — a level's
        frame and a full-detail frame agree with the whole-model cull
        row for row."""
        rng = np.random.default_rng(0)
        camera = Camera.look_at(
            [3.0, -7.0, 2.0], [0.5, 0.2, 0.1], width=64, height=48,
            near=0.5, far=50.0,
        )
        n = 4000
        for _ in range(10):
            cam_points = np.column_stack(
                [rng.uniform(-0.1, 0.1, size=(n, 2)), np.full(n, camera.near)]
            )
            params = np.zeros((n, layout.PARAM_DIM), dtype=np.float32)
            params[:, layout.MEAN_SLICE] = (
                cam_points - camera.world_to_cam_trans
            ) @ camera.world_to_cam_rot
            params[:, layout.SCALE_SLICE] = np.log(0.01)
            params[:, layout.QUAT_SLICE.start] = 1.0
            store = InMemoryServingStore(params, copy=False)
            whole = frustum_cull(*store.geometry(), camera).valid_ids
            assert 0 < whole.size < n  # the plane does cut the rows
            drop = rng.integers(1, 4, size=n).astype(np.int16)
            for lod in range(3):
                ids = visible_ids(store, drop, FrameTask(camera, lod, 0))
                assert np.array_equal(ids, whole[drop[whole] > lod])

    def test_empty_level_and_missing_array(self, model):
        store = InMemoryServingStore.from_model(model)
        camera = cameras(0, 1)[0]
        whole = frustum_cull(*store.geometry(), camera).valid_ids
        # a ladder whose level 1 keeps nothing at all
        levels = (LODLevel(3, 1.0), LODLevel(0, 1e-9))
        empty = LODSet(levels, np.ones(store.num_rows, dtype=np.int16))
        assert visible_ids(store, empty.drop_level, FrameTask(camera, 1, 0)).size == 0
        assert np.array_equal(
            visible_ids(store, empty.drop_level, FrameTask(camera, 0, 3)), whole
        )
        # no drop-level array: every task is full detail, whatever its lod
        assert np.array_equal(
            visible_ids(store, None, FrameTask(camera, 2, 1)), whole
        )


# -- the tick: batched == one by one == in memory -----------------------------


def requests_for(cams, lods):
    return [RenderRequest(camera=c, lod=lod) for c, lod in zip(cams, lods)]


class TestBatchedTick:
    def test_k_frame_tick_matches_single_ticks_and_in_memory(self, model):
        lod_set = LODSet.build(model.params)
        cams = cameras(1, 6)
        lods = [0, 0, 2, 1, 0, 3]
        batched = RenderService(
            paged(model, NUM_SHARDS // 2), lod_set=lod_set, cache_bytes=0
        )
        single = RenderService(
            paged(model, NUM_SHARDS // 2), lod_set=lod_set, cache_bytes=0
        )
        memory = RenderService(
            GaussianModel(stored_params(model, batched.store)),
            lod_set=lod_set, cache_bytes=0,
        )
        try:
            got = batched.serve(requests_for(cams, lods))
            one_by_one = [
                single.render(r) for r in requests_for(cams, lods)
            ]
            reference = memory.serve(requests_for(cams, lods))
            assert [r.status for r in got] == ["ok"] * 6
            for a, b, c in zip(got, one_by_one, reference):
                assert np.array_equal(a.image, b.image)
                assert np.array_equal(a.image, c.image)
            # one gather for the tick: every shard visited at most once,
            # paged in at most once (the store was cold: exactly once)
            store = batched.store
            assert store.page_ins == store.shards_touched <= NUM_SHARDS
            assert single.store.shards_touched > store.shards_touched
            assert store.rows_gathered < single.store.rows_gathered
            assert memory.store.page_ins == memory.store.shards_touched == 0
        finally:
            for service in (batched, single, memory):
                service.close()

    def test_later_ticks_page_in_only_what_was_not_resident(self, model):
        store = paged(model, NUM_SHARDS - 2)
        service = RenderService(store, cache_bytes=0)
        owner = shard_of(store)
        try:
            for seed in (2, 3, 4, 5):
                cams = cameras(seed, 2)
                resident = {s.index for s in store.shards if s.is_resident}
                union = np.unique(np.concatenate([
                    visible_ids(store, None, FrameTask(cam, 0, 3))
                    for cam in cams
                ]))
                assert union.size <= store.max_gather_rows  # one group
                touched = set(owner[union].tolist())
                before = store.page_ins
                service.serve(requests_for(cams, [0, 0]))
                assert store.page_ins - before == len(touched - resident)
            assert store.page_ins < store.shards_touched
        finally:
            service.close()

    def test_union_over_the_row_cap_is_split_and_still_identical(
        self, model, monkeypatch
    ):
        store = paged(model, NUM_SHARDS // 2)
        cap = store.max_gather_rows
        sizes = []
        gather = store.gather_tick  # the tick's gather primitive
        monkeypatch.setattr(
            store, "gather_tick",
            lambda ids: (sizes.append(ids.size), gather(ids))[1],
        )
        cams = cameras(5, 8)
        tasks = [FrameTask(cam, 0, 3) for cam in cams]
        frame_rows = [visible_ids(store, None, t).size for t in tasks]
        assert np.unique(
            np.concatenate([visible_ids(store, None, t) for t in tasks])
        ).size > cap  # the tick's union does not fit
        images = render_frames(store, None, tasks)
        assert 1 < len(sizes) < len(tasks)  # split, yet still batched
        assert all(
            size <= cap or size in frame_rows for size in sizes
        )  # only a frame that is over the cap alone may exceed it
        reference = InMemoryServingStore(stored_params(model, store), copy=False)
        for task, image in zip(tasks, images):
            assert np.array_equal(image, render_frame(reference, None, task))
        store.close()

    def test_render_frame_is_render_frames_of_one_task(self, model):
        store = InMemoryServingStore.from_model(model)
        lod_set = LODSet.build(model.params)
        tasks = [
            FrameTask(cam, lod, lod_set.sh_degree(lod))
            for cam, lod in zip(cameras(6, 3), (0, 2, 1))
        ]
        batch = render_frames(store, lod_set.drop_level, tasks)
        for task, image in zip(tasks, batch):
            assert np.array_equal(
                image, render_frame(store, lod_set.drop_level, task)
            )
        assert render_frames(store, lod_set.drop_level, []) == []


# -- containment: a bad page fails the frames that touch it, no others -------


class TestContainment:
    @pytest.mark.parametrize("codec", ["raw", "float16"])
    def test_corrupt_shard_fails_exactly_the_frames_touching_it(
        self, model, tmp_path, codec
    ):
        page_dir = str(tmp_path / "pages")
        store = paged(model, NUM_SHARDS // 2, codec, page_dir=page_dir)
        clean = RenderService(
            paged(model, NUM_SHARDS // 2, codec), cache_bytes=0
        )
        service = RenderService(store, cache_bytes=0)
        bad = 3
        corrupt_file(store.shards[bad].page_path, offset=128, length=32)
        suffix = ".dat" if codec == "raw" else ".pagez"
        assert os.path.basename(store.shards[bad].page_path).endswith(suffix)
        owner = shard_of(store)
        cams = cameras(7, 8)
        touches = [
            bad in owner[visible_ids(store, None, FrameTask(cam, 0, 3))]
            for cam in cams
        ]
        assert any(touches) and not all(touches)
        try:
            got = service.serve(requests_for(cams, [0] * 8))
            want = clean.serve(requests_for(cams, [0] * 8))
            for hit, resp, ref in zip(touches, got, want):
                if hit:
                    assert resp.status == "error" and resp.image is None
                    assert "Quarantin" in resp.reason
                else:
                    assert resp.status == "ok"
                    assert np.array_equal(resp.image, ref.image)
            assert service.stats.render_errors == sum(touches)
            assert set(store.quarantined) == {bad}
        finally:
            service.close()
            clean.close()

