"""The sharded cull's candidate gate and the owner map that splits rows.

``ShardedStore.visible`` runs the exact test only on the shards the
candidate bound cannot clear, and over all of a gated-in shard's rows: the
result must be byte-equal to the ungated union of per-shard
``frustum_cull`` calls. ``ShardedStore.split`` reads one owner map built
at construction (a :class:`repro.core.splitting.ShardMap`): per shard it
must hand out exactly the ``(sel, local)`` pair :func:`members`, a
per-shard binary search, computes.
"""

import numpy as np
import pytest

from repro.cameras import Camera
from repro.core.splitting import ShardMap, spatial_partition
from repro.core.stores import DeviceStore, HybridStore, ShardedStore
from repro.gaussians import layout
from repro.optim.base import AdamConfig
from repro.render import culling, frustum_cull
from repro.sim.memory import MemoryTracker

NUM_SHARDS = 16
HALF = 10.0  # the site is the square [-HALF, HALF]^2 near z = 0


def members(ids: np.ndarray, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Oracle: ``(sel, local)``, the positions within ``ids`` of the
    members of a shard whose sorted global row ids are ``rows``, and their
    shard-local row indices — one binary search per shard."""
    if rows.size == 0 or ids.size == 0:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    pos = np.searchsorted(rows, ids)
    pos = np.clip(pos, 0, rows.size - 1)
    hit = rows[pos] == ids
    sel = np.nonzero(hit)[0]
    return sel, pos[sel]


def site_params(n, dtype, seed=0):
    rng = np.random.default_rng(seed)
    params = np.zeros((n, layout.PARAM_DIM))
    params[:, layout.MEAN_SLICE] = np.column_stack([
        rng.uniform(-HALF, HALF, size=(n, 2)), rng.uniform(-0.2, 0.2, n),
    ])
    params[:, layout.SCALE_SLICE] = np.log(rng.uniform(0.02, 0.2, (n, 3)))
    params[:, layout.QUAT_SLICE] = rng.normal(size=(n, 4))
    params[:, layout.OPACITY_SLICE] = rng.normal(size=(n, 1))
    return params.astype(dtype)


def sharded_store(params, num_shards=NUM_SHARDS):
    """A ShardedStore over a spatial partition, each shard a hybrid of a
    geometric and a non-geometric placement, as the sharded system
    builds it."""
    rows = spatial_partition(params[:, layout.MEAN_SLICE], num_shards)
    adam = AdamConfig(lr=1e-3)
    stores = []
    for r in rows:
        tracker = MemoryTracker()
        sub = params[r]
        geo = DeviceStore(
            sub[:, layout.GEOMETRIC_SLICE], layout.GEOMETRIC_BLOCK, adam,
            tracker, label="geo",
        )
        host = DeviceStore(
            sub[:, layout.NON_GEOMETRIC_SLICE], layout.NON_GEOMETRIC_BLOCK,
            adam, tracker, label="host",
        )
        stores.append(HybridStore([geo, host]))
    return ShardedStore(rows, stores)


def down(x, y, altitude, fov=60.0, near=0.01):
    return Camera.look_at(
        [x, y, altitude], [x, y, 0.0], up=(0.0, 1.0, 0.0), width=64,
        height=48, fov_x_deg=fov, near=near,
    )


CAMERAS = {
    # the whole site in view: every shard holds a visible row
    "all": down(0.0, 0.0, 30.0, fov=90.0),
    # a quarter of the site
    "part": down(5.0, 5.0, 6.0),
    # everything behind the camera: no row in depth range
    "none_behind": Camera.look_at(
        [0.0, 0.0, 8.0], [0.0, 0.0, 40.0], up=(0.0, 1.0, 0.0), width=64,
        height=48,
    ),
    # the site in depth range but far off to the side of the image
    "none_aside": Camera.look_at(
        [3 * HALF, 0.0, 3.0], [3 * HALF, HALF, 3.0], width=64, height=48,
        near=1.0,
    ),
    # a narrow view straight down onto one corner of the site
    "corner": down(-HALF + 1.5, -HALF + 1.5, 2.0, fov=40.0),
    # the near plane at z ~ 0 slices the rows of every shard below
    "near_slice": down(-2.0, 3.0, 3.0, near=2.98),
}


def ungated(store, camera):
    """The union of plain per-shard exact culls."""
    results = [frustum_cull(*s.geometry(), camera) for s in store.stores]
    parts = [rows[r.valid_ids] for rows, r in zip(store.shard_rows, results)]
    return (
        np.sort(np.concatenate(parts)),
        sum(r.num_in_depth for r in results),
        tuple(r.num_visible for r in results),
    )


def assert_gate_is_invisible(store, camera):
    got = store.visible(camera)
    valid, num_in_depth, shard_visible = ungated(store, camera)
    assert got.valid_ids.dtype == valid.dtype == np.int64
    assert got.valid_ids.tobytes() == valid.tobytes()
    assert got.num_in_depth == num_in_depth
    assert got.shard_visible == shard_visible
    assert got.num_total == store.num_rows
    assert got.num_visible == valid.size
    assert set(got.active_shards) <= set(got.exact_shards)
    assert list(got.exact_shards) == sorted(set(got.exact_shards))
    return got


class TestGate:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("view", sorted(CAMERAS))
    def test_gated_union_is_the_ungated_union(self, view, dtype):
        store = sharded_store(site_params(6000, dtype))
        got = assert_gate_is_invisible(store, CAMERAS[view])
        if view == "all":
            assert len(got.active_shards) == NUM_SHARDS
        if view.startswith("none"):
            assert got.num_visible == 0
        if view == "none_behind":
            assert got.num_in_depth == 0 and got.exact_shards == ()
        if view == "none_aside":
            assert got.num_in_depth > 0
        if view == "near_slice":
            assert 0 < got.num_in_depth < store.num_rows

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_exact_test_runs_once_per_exact_shard(self, monkeypatch, dtype):
        store = sharded_store(site_params(6000, dtype))
        calls = []
        real = culling.frustum_cull

        def spy(*args, **kwargs):
            calls.append(args[0].shape[0])
            return real(*args, **kwargs)

        monkeypatch.setattr(culling, "frustum_cull", spy)
        for view, camera in CAMERAS.items():
            calls.clear()
            got = assert_gate_is_invisible(store, camera)
            assert len(calls) == len(got.exact_shards), view
            # a gated-in shard is culled over all of its rows
            assert calls == [store.shard_rows[k].size for k in got.exact_shards]

    def test_corner_view_projects_a_few_shards(self):
        store = sharded_store(site_params(6000, np.float64))
        got = assert_gate_is_invisible(store, CAMERAS["corner"])
        assert len(got.active_shards) == 1
        assert set(got.active_shards) <= set(got.exact_shards)
        assert len(got.exact_shards) < NUM_SHARDS

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_undecidable_rows_keep_their_shard_exact(self, dtype):
        params = site_params(6000, dtype)
        camera = CAMERAS["corner"]
        clean = sharded_store(params).visible(camera)
        far = [k for k in range(NUM_SHARDS) if k not in clean.exact_shards]
        store = sharded_store(params)  # same partition: same means
        rng = np.random.default_rng(1)
        # a NaN or infinite extent on a finite mean in depth range: the
        # bound cannot clear it, so its shard goes to the exact test
        bad_scale = {far[0]: np.nan, far[-1]: np.inf}
        for k, value in bad_scale.items():
            geo = store.stores[k].children[0].params
            geo[rng.integers(geo.shape[0]), 3 + int(rng.integers(3))] = value
        # NaN / inf centres fail the depth test in both stages
        for k in far[1:3]:
            geo = store.stores[k].children[0].params
            geo[rng.integers(geo.shape[0]), int(rng.integers(3))] = np.nan
            geo[rng.integers(geo.shape[0]), int(rng.integers(3))] = -np.inf
        with np.errstate(all="ignore"):
            got = assert_gate_is_invisible(store, camera)
        assert set(bad_scale) <= set(got.exact_shards)
        # every view, the non-finite rows in place
        with np.errstate(all="ignore"):
            for view_camera in CAMERAS.values():
                assert_gate_is_invisible(store, view_camera)


class TestOwnerMap:
    @pytest.fixture(scope="class")
    def store(self):
        return sharded_store(site_params(3000, np.float64), num_shards=7)

    def assert_split_is_members(self, store, ids):
        yielded = {k: (sel, local) for k, _, sel, local in store.split(ids)}
        for k, rows in enumerate(store.shard_rows):
            sel, local = members(ids, rows)
            if not sel.size:
                assert k not in yielded
                continue
            got_sel, got_local = yielded[k]
            assert got_sel.dtype == sel.dtype and got_local.dtype == local.dtype
            assert got_sel.tobytes() == sel.tobytes()
            assert got_local.tobytes() == local.tobytes()

    @pytest.mark.parametrize("seed", range(4))
    def test_random_ids(self, store, seed):
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, store.num_rows))
        ids = rng.choice(store.num_rows, size=size, replace=False)
        self.assert_split_is_members(store, ids)  # in random order
        self.assert_split_is_members(store, np.sort(ids))

    def test_empty_ids(self, store):
        assert list(store.split(np.empty(0, dtype=np.int64))) == []
        self.assert_split_is_members(store, np.empty(0, dtype=np.int64))

    def test_all_rows(self, store):
        self.assert_split_is_members(store, np.arange(store.num_rows))

    def test_one_shard_only(self, store):
        ids = store.shard_rows[3]
        assert [k for k, *_ in store.split(ids)] == [3]
        self.assert_split_is_members(store, ids)
        self.assert_split_is_members(store, ids[::-1].copy())

    def test_return_grads_ticks_every_shard(self, store):
        ids = store.shard_rows[2][:5]
        steps = [s.children[0].optimizer.step_count for s in store.stores]
        store.return_grads(ids, np.zeros((ids.size, store.dim)))
        after = [s.children[0].optimizer.step_count for s in store.stores]
        assert after == [n + 1 for n in steps]

    def test_rows_must_tile(self):
        stores = [
            DeviceStore(
                np.zeros((2, layout.PARAM_DIM)), layout.ALL_BLOCK,
                AdamConfig(lr=1e-3), MemoryTracker(),
            )
            for _ in range(2)
        ]
        with pytest.raises(ValueError, match="tile"):
            ShardedStore([np.array([0, 1]), np.array([1, 2])], stores)

    def test_negative_row_is_rejected(self):
        stores = [
            DeviceStore(
                np.zeros((2, layout.PARAM_DIM)), layout.ALL_BLOCK,
                AdamConfig(lr=1e-3), MemoryTracker(),
            )
            for _ in range(2)
        ]
        with pytest.raises(ValueError, match="tile 0..N-1 exactly once"):
            ShardedStore([np.array([0, 1]), np.array([-1, 2])], stores)


def shard_map_partitions():
    """``name -> shard rows``: one shard, seven spatial shards, and more
    shards than rows (the partitioner pads empty ones)."""
    params = site_params(3000, np.float64)
    return {
        "k1": [np.arange(3000)],
        "k7": spatial_partition(params[:, layout.MEAN_SLICE], 7),
        "empty-shards": spatial_partition(params[:3, layout.MEAN_SLICE], 8),
    }


def shard_map_ids(n, name):
    rng = np.random.default_rng(5)
    return {
        "unsorted": rng.choice(n, size=max(n // 3, 1), replace=False),
        "sorted": np.sort(rng.choice(n, size=max(n // 2, 1), replace=False)),
        "empty": np.empty(0, dtype=np.int64),
        "all": np.arange(n),
    }[name]


class TestShardMap:
    @pytest.mark.parametrize("ids_name", ["unsorted", "sorted", "empty", "all"])
    @pytest.mark.parametrize("partition", ["k1", "k7", "empty-shards"])
    def test_split_is_members(self, partition, ids_name):
        shard_map = ShardMap(shard_map_partitions()[partition])
        ids = shard_map_ids(shard_map.num_rows, ids_name)
        parts = shard_map.split(ids)
        assert len(parts) == len(shard_map.rows)
        for rows, (got_sel, got_local) in zip(shard_map.rows, parts):
            sel, local = members(ids, rows)
            assert got_sel.dtype == sel.dtype and got_local.dtype == local.dtype
            assert got_sel.tobytes() == sel.tobytes()
            assert got_local.tobytes() == local.tobytes()
