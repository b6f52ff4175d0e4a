"""Numerics contract fact 8: a view is projected once. The exact cull
hands the projection of the rows it keeps (``CullResult.screen``) on to
``render()``, which keeps it as ``ProjectionResult.rows`` in place of
projecting them again. That is bit-identical by construction — everything after the
camera-space centres is per row (numerics contract fact 6), and the
centres' product over two rows or more is a gemm whose row does not
depend on the other rows (fact 8) — so a handed-on render must equal a
fresh one by ``tobytes()`` on every cull path: ``render(model, camera)``,
a store's ``visible``, the sharded union, the out-of-core cull cache, and
a whole training run."""

import numpy as np
import pytest

from repro import GSScaleConfig, Trainer
from repro.cameras import Camera
from repro.core.splitting import spatial_partition
from repro.core.stores import DeviceStore, HostStore, HybridStore, ShardedStore
from repro.core.systems import TransferLedger, create_system
from repro.datasets import SyntheticSceneConfig, build_scene
from repro.gaussians import GaussianModel, layout
from repro.optim.base import AdamConfig
from repro.render import RasterConfig, culling, projection, render, render_backward
from repro.sim.memory import MemoryTracker

CFG = RasterConfig(engine="vectorized")
DTYPES = [np.float32, np.float64]


def site_params(n, dtype, seed=0, spread=4.0):
    """``n`` rows over a square site near ``z = 0``."""
    rng = np.random.default_rng(seed)
    params = np.zeros((n, layout.PARAM_DIM))
    params[:, layout.MEAN_SLICE] = np.column_stack([
        rng.uniform(-spread, spread, size=(n, 2)), rng.uniform(-0.2, 0.2, n),
    ])
    params[:, layout.SCALE_SLICE] = np.log(rng.uniform(0.02, 0.2, (n, 3)))
    params[:, layout.QUAT_SLICE] = rng.normal(size=(n, 4))
    params[:, layout.OPACITY_SLICE] = rng.normal(size=(n, 1))
    params[:, layout.SH_SLICE] = rng.normal(0.0, 0.3, (n, layout.SH_DIM))
    return params.astype(dtype)


def down(x, y, altitude, fov=60.0):
    return Camera.look_at(
        [x, y, altitude], [x, y, 0.0], up=(0.0, 1.0, 0.0), width=48,
        height=32, fov_x_deg=fov,
    )


def tilted(fov):
    """A camera over the site's centre whose rotation has no zero
    entries, so a product's rounding depends on how it is computed."""
    return Camera.look_at(
        [0.31, -0.47, 3.0], [0.013, 0.021, 0.0], width=48, height=32,
        fov_x_deg=fov,
    )


def place_gemv_row(params, camera, row=0):
    """Move ``row`` into the middle of ``camera``'s view, to a spot where
    numpy's one-row product (a gemv, fact 2) rounds its camera-space
    centre, and from it the pixel centre, differently from a product over
    all the rows, so that a render handed the wrong one of the two shows
    it (on a BLAS where no spot differs, the last one tried)."""
    rng = np.random.default_rng(row)
    means = params[:, layout.MEAN_SLICE]

    def pixel(cam_point):
        x, y, z = cam_point
        return np.array([camera.fx * x / z + camera.cx, camera.fy * y / z + camera.cy])

    for _ in range(500):
        means[row] = rng.uniform(-0.3, 0.3, 3)
        whole = projection.camera_points(means, camera)[row]
        alone = projection.camera_points(means[row : row + 1], camera)[0]
        if pixel(whole).tobytes() != pixel(alone).tobytes():
            break
    return params


def one_row_in_view(params):
    """Put row 0 alone under a narrow camera: every other row stays in
    depth range but off the image, so the cull's product runs over all
    rows and keeps one."""
    params = params.copy()
    x = layout.MEAN_SLICE.start
    params[:, x] = 3.0 + np.abs(params[:, x])
    camera = tilted(20.0)
    return place_gemv_row(params, camera), camera


def outputs(model, camera, valid_ids=None, screen=None):
    """Image, screen geometry and gradients of one render + backward (no
    backward of an empty view: training renders none)."""
    res = render(model, camera, valid_ids=valid_ids, config=CFG, screen=screen)
    proj = res.proj
    out = [
        res.image, proj.means2d, proj.conics, proj.rows.cam_points[:, 2],
        proj.rows.radii,
    ]
    if res.valid_ids.size:
        grad = np.random.default_rng(3).normal(size=res.image.shape)
        back = render_backward(model, camera, res, grad.astype(model.dtype))
        out += [back.param_grads, back.mean2d_abs]
    return res.valid_ids, out


def assert_bytes_equal(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.dtype == b.dtype and a.shape == b.shape
        assert a.tobytes() == b.tobytes()


def fresh(params, ids, camera):
    """The render the hand-on replaces: the compact visible rows,
    projected afresh."""
    compact = GaussianModel(params[ids])
    return outputs(compact, camera, np.arange(ids.size))[1]


def handed(params, cull, camera):
    compact = GaussianModel(params[cull.valid_ids])
    return outputs(compact, camera, np.arange(cull.num_visible), cull.screen)[1]


# -- fact 8: the camera-space gemm -------------------------------------------


@pytest.mark.parametrize("dtype", DTYPES)
@pytest.mark.parametrize("n", [1, 2, 3, 7, 64, 257, 8193, 30_000])
def test_camera_points_of_a_subset_are_the_rows_of_the_whole(dtype, n):
    """``camera_points(A)[rows] == camera_points(A[rows])`` for any two
    rows or more, sorted or not, from contiguous arrays and from strided
    column views. (One row is a gemv, fact 2: the cull hands no one-row
    product on and ``render`` projects a one-row view afresh.)"""
    rng = np.random.default_rng(n)
    camera = Camera.look_at([3.0, -9.0, 4.0], [0.2, 0.1, 0.0], width=64, height=48)
    packed = (rng.normal(size=(n, layout.PARAM_DIM)) * 10).astype(dtype)
    views = {
        "contiguous": np.ascontiguousarray(packed[:, layout.MEAN_SLICE]),
        "column view": packed[:, layout.MEAN_SLICE],
        "reversed view": packed[::-1, 3:6],
    }
    for name, means in views.items():
        whole = projection.camera_points(means, camera)
        subsets = [np.arange(n)]
        for _ in range(6):
            if n >= 2:
                k = int(rng.integers(2, n + 1))
                rows = rng.choice(n, size=k, replace=False)
                subsets += [rows, np.sort(rows)]
        for rows in subsets:
            sub = projection.camera_points(means[rows], camera)
            assert whole[rows].tobytes() == sub.tobytes(), (name, rows.size)


# -- every cull path ---------------------------------------------------------


def views(dtype):
    """``(name, params, camera)``: the view shapes a hand-on must cover."""
    params = site_params(300, dtype)
    lone, lone_cam = one_row_in_view(params)
    return [
        ("empty", params, down(40.0, 40.0, 3.0)),
        ("single_row", lone, lone_cam),
        ("all_kept", params, down(0.0, 0.0, 30.0, fov=90.0)),
        ("part", params, down(2.0, 2.0, 3.0)),
    ]


def check_view(name, params, camera, cull):
    """The cull's hand-on renders like a fresh projection — and is
    really handed on wherever two rows or more are visible."""
    if name == "empty":
        assert cull.num_visible == 0
    if name == "single_row":
        assert cull.num_visible == 1 and cull.num_in_depth > 1
    if name == "all_kept":
        assert cull.num_visible == params.shape[0]
    if cull.num_visible >= 2:
        assert cull.screen is not None and len(cull.screen) == cull.num_visible
    assert_bytes_equal(
        handed(params, cull, camera), fresh(params, cull.valid_ids, camera)
    )


@pytest.fixture(params=[None, 64], ids=["one_block", "blocks_of_64"])
def block_rows(request, monkeypatch):
    """The cull's row blocks as they are, and cut small enough that the
    300-row views cross several block boundaries."""
    if request.param is not None:
        monkeypatch.setattr(culling, "BLOCK_ROWS", request.param)
    return request.param


@pytest.mark.parametrize("dtype", DTYPES)
def test_render_of_the_whole_model_hands_on(dtype, block_rows):
    for name, params, camera in views(dtype):
        ids, got = outputs(GaussianModel(params), camera)
        assert_bytes_equal(got, fresh(params, ids, camera))
        if name == "all_kept":
            assert ids.size == params.shape[0]


@pytest.mark.parametrize("dtype", DTYPES)
def test_multi_block_view_at_the_real_block_size(dtype):
    n = 2 * culling.BLOCK_ROWS + 7
    params = site_params(n, dtype, seed=1, spread=6.0)
    camera = down(0.0, 0.0, 12.0, fov=70.0)
    cull = culling.frustum_cull(
        params[:, layout.MEAN_SLICE], params[:, layout.SCALE_SLICE],
        params[:, layout.QUAT_SLICE], camera, keep="backward",
    )
    assert cull.num_in_depth > culling.BLOCK_ROWS
    check_view("multi_block", params, camera, cull)


def hybrid_store(params, forwarding=False):
    """A store that culls its geometric child, as ``gsscale`` builds it;
    ``forwarding`` puts the geometric columns behind a forwarding host
    store instead of a device store."""
    adam, tracker = AdamConfig(lr=1e-3), MemoryTracker()
    if forwarding:
        geo = HostStore(
            params[:, layout.GEOMETRIC_SLICE], layout.GEOMETRIC_BLOCK, adam,
            tracker, TransferLedger(), forwarding=True,
        )
    else:
        geo = DeviceStore(
            params[:, layout.GEOMETRIC_SLICE], layout.GEOMETRIC_BLOCK, adam,
            tracker, label="geo",
        )
    host = DeviceStore(
        params[:, layout.NON_GEOMETRIC_SLICE], layout.NON_GEOMETRIC_BLOCK,
        adam, tracker, label="host",
    )
    return HybridStore([geo, host])


def sharded_store(params, num_shards=8):
    rows = spatial_partition(params[:, layout.MEAN_SLICE], num_shards)
    return ShardedStore(rows, [hybrid_store(params[r]) for r in rows])


@pytest.mark.parametrize("dtype", DTYPES)
def test_store_cull_hands_on(dtype, block_rows):
    for name, params, camera in views(dtype):
        cull = hybrid_store(params).visible(camera, keep="backward")
        check_view(name, params, camera, cull)


@pytest.mark.parametrize("dtype", DTYPES)
def test_sharded_union_hands_on_in_id_order(dtype, block_rows):
    for name, params, camera in views(dtype):
        cull = sharded_store(params).visible(camera, keep="backward")
        check_view(name, params, camera, cull)


@pytest.mark.parametrize("dtype", DTYPES)
def test_a_shard_with_one_row_in_depth_range_hands_nothing_on(dtype):
    """A shard whose product ran over one row (a gemv) cannot hand its
    row on, and the union then projects afresh."""
    camera = tilted(90.0)
    params = place_gemv_row(site_params(300, dtype), camera)
    rows = [np.array([0]), np.arange(1, 300)]
    store = ShardedStore(rows, [hybrid_store(params[r]) for r in rows])
    cull = store.visible(camera, keep="backward")
    assert 0 in cull.valid_ids and cull.num_visible >= 2
    assert cull.screen is None
    assert_bytes_equal(
        handed(params, cull, camera), fresh(params, cull.valid_ids, camera)
    )


def test_a_forwarding_geometric_store_keeps_nothing():
    """A forwarding host store stages the optimizer's peek, not the rows
    it culls, so its cull hands nothing on."""
    params = site_params(300, np.float64)
    camera = down(2.0, 2.0, 3.0)
    assert hybrid_store(params).visible(camera, keep="backward").screen is not None
    store = hybrid_store(params, forwarding=True)
    assert not store.stages_culled_geometry
    cull = store.visible(camera, keep="backward")
    assert cull.num_visible >= 2 and cull.screen is None


@pytest.mark.parametrize("dtype", DTYPES)
def test_out_of_core_cull_cache_hands_on(dtype, tmp_path, block_rows):
    for name, params, camera in views(dtype):
        system = create_system(
            GaussianModel(params),
            GSScaleConfig(
                system="outofcore", num_shards=4, resident_shards=2,
                spill_dir=str(tmp_path / name), engine="vectorized",
            ),
        )
        try:
            system.prefetch(camera)
            cull = system._cull(camera)  # the prefetch's cached cull
            check_view(name, params, camera, cull)
        finally:
            system.finalize()


def test_keep_is_checked():
    params = site_params(10, np.float64)
    with pytest.raises(ValueError, match="keep"):
        culling.frustum_cull(
            params[:, 0:3], params[:, 3:6], params[:, 6:10],
            down(0.0, 0.0, 3.0), keep="everything",
        )


def test_a_screen_only_hand_on_renders_forward():
    """Serving keeps no backward context: the render is the same image."""
    params = site_params(300, np.float32)
    camera = down(2.0, 2.0, 3.0)
    geometry = params[:, 0:3], params[:, 3:6], params[:, 6:10]
    cull = culling.frustum_cull(*geometry, camera, keep="screen")
    assert cull.screen.jacobians is None and cull.screen.cov3d_ctx is None
    compact = GaussianModel(params[cull.valid_ids])
    ids = np.arange(cull.num_visible)
    got = render(compact, camera, valid_ids=ids, config=CFG, screen=cull.screen)
    want = render(compact, camera, valid_ids=ids, config=CFG)
    assert got.image.tobytes() == want.image.tobytes()


# -- whole training runs -----------------------------------------------------


@pytest.mark.parametrize(
    "system",
    ["gpu_only", "baseline_offload", "gsscale", "gsscale_no_deferred",
     "sharded", "outofcore"],
)
def test_training_is_bit_identical_with_and_without_the_hand_on(
    system, monkeypatch, tmp_path
):
    """Every system's losses and final parameters, handed on (the image
    splits too: ``mem_limit`` is low) against a run whose renders all
    project afresh."""
    scene = build_scene(SyntheticSceneConfig(
        num_points=300, width=48, height=36, num_train_cameras=6,
        num_test_cameras=2, altitude=9.0, seed=5,
    ))

    def run(spill):
        trainer = Trainer(scene.initial.copy(), GSScaleConfig(
            system=system, scene_extent=scene.extent, ssim_lambda=0.0,
            mem_limit=0.3, engine="vectorized", spill_dir=str(spill),
        ))
        history = trainer.train(
            scene.train_cameras, scene.train_images, iterations=8
        )
        return [s.loss for s in history.steps], trainer.system.materialized_model()

    handed_on = []
    real = projection.project

    def counting(*args, screen=None, **kwargs):
        handed_on.append(screen is not None)
        return real(*args, screen=screen, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(projection, "project", counting)
        losses, model = run(tmp_path / "a")
    assert all(handed_on) and handed_on

    def afresh(*args, screen=None, **kwargs):
        return real(*args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(projection, "project", afresh)
        want_losses, want_model = run(tmp_path / "b")
    assert np.array(losses).tobytes() == np.array(want_losses).tobytes()
    assert model.params.tobytes() == want_model.params.tobytes()
