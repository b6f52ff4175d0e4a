"""Numerics contract fact 6: the exact cull's block walk. ``frustum_cull``
projects its rows in blocks of ``culling.BLOCK_ROWS`` through
``projection.project_rows``, the function the render's
``projection.project`` runs over all rows at once. Every op in it is per
row, so the walk must match the whole-array projection byte for byte
wherever the blocks are cut."""

import numpy as np
import pytest

from repro.cameras import Camera
from repro.gaussians import covariance
from repro.render import culling, frustum_cull, projection

B = culling.BLOCK_ROWS


def packed_geometry(n, dtype, seed=0):
    """``(means, log_scales, quats)`` as strided column views of one
    packed ``(n, 10)`` matrix, like ``ParameterStore.geometry()``; one row
    in eight has a quaternion below the ``1e-12`` normalisation floor."""
    rng = np.random.default_rng(seed)
    packed = np.empty((n, 10))
    packed[:, 0:3] = rng.uniform([-8, -8, 0], [8, 8, 2], size=(n, 3))
    packed[:, 3:6] = rng.normal(np.log(0.15), 0.7, size=(n, 3))
    packed[:, 6:10] = rng.normal(size=(n, 4))
    packed[::8, 6:10] *= 1e-14
    packed = packed.astype(dtype)
    return packed[:, 0:3], packed[:, 3:6], packed[:, 6:10]


CAMERAS = {
    # sees every row in depth range, about half of them on the image
    "outside": Camera.look_at(
        [0.0, -20.0, 9.0], [3.0, 0.0, 0.0], width=64, height=48,
        fov_x_deg=35.0,
    ),
    # stands in the slab: the near plane cuts the rows
    "inside": Camera.look_at(
        [0.5, -1.0, 1.0], [4.0, 3.0, 0.5], width=64, height=48, near=0.2
    ),
}


def walk(monkeypatch, geometry, camera):
    """``frustum_cull``'s result and the ``ScreenRows`` of each block."""
    blocks = []
    real = projection.project_rows

    def spy(*args):
        blocks.append(real(*args))
        return blocks[-1]

    with monkeypatch.context() as patch:
        patch.setattr(culling.projection, "project_rows", spy)
        result = frustum_cull(*geometry, camera)
    return result, blocks


def in_depth(geometry, camera):
    """The rows ``frustum_cull`` projects, taken as it takes them:
    gathered when the near/far test drops some, in place otherwise."""
    means = geometry[0]
    rot = camera.world_to_cam_rot.astype(means.dtype)
    trans = camera.world_to_cam_trans.astype(means.dtype)
    depths = means @ rot.T[:, 2] + trans[2]
    ids = np.flatnonzero((depths > camera.near) & (depths < camera.far))
    if ids.size < means.shape[0]:
        geometry = tuple(a[ids] for a in geometry)
    return ids, geometry


@pytest.mark.parametrize("view", sorted(CAMERAS))
@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("n", [1, B - 1, B, B + 1, 2 * B + 7])
def test_walk_is_byte_equal_to_the_whole_array_projection(
    monkeypatch, n, dtype, view
):
    camera = CAMERAS[view]
    geometry = packed_geometry(n, dtype, seed=n)
    result, blocks = walk(monkeypatch, geometry, camera)
    ids, rows = in_depth(geometry, camera)
    assert result.num_in_depth == ids.size
    assert [b.x.size for b in blocks] == [
        min(B, ids.size - lo) for lo in range(0, ids.size, B)
    ]
    if not blocks:
        assert result.valid_ids.size == 0
        return

    means, log_scales, quats = rows
    whole = projection.project_rows(
        projection.camera_points(means, camera), log_scales, quats, camera
    )
    for f in ("x", "y", "radii", "valid"):
        got = np.concatenate([getattr(b, f) for b in blocks])
        want = getattr(whole, f)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    gx, gy, gr = whole.x, whole.y, whole.radii
    keep = (
        whole.valid
        & (gx + gr > 0) & (gx - gr < camera.width)
        & (gy + gr > 0) & (gy - gr < camera.height)
    )
    assert result.valid_ids.tobytes() == ids[keep].tobytes()


def test_scenes_exercise_the_near_plane_and_the_image_bounds():
    """The fixtures do what the test above needs of them."""
    geometry = packed_geometry(2 * B + 7, np.float64, seed=2 * B + 7)
    outside = frustum_cull(*geometry, CAMERAS["outside"])
    inside = frustum_cull(*geometry, CAMERAS["inside"])
    assert outside.num_in_depth == outside.num_total > outside.num_visible
    assert B < inside.num_in_depth < inside.num_total


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_syrk_and_gemm_give_the_same_covariance(dtype):
    """Fact 6: ``F @ F^T`` on one buffer goes to BLAS syrk, ``F`` times a
    contiguous copy of ``F^T`` to gemm; ``build_covariance`` takes the
    second for speed, which is only sound because the bits agree."""
    rng = np.random.default_rng(6)
    for n in (1, 3, 1000, 40_000):
        factor = (
            rng.normal(size=(n, 3, 3))
            * np.exp(rng.uniform(-8, 8, size=(n, 1, 3)))
        ).astype(dtype)
        syrk = factor @ np.swapaxes(factor, -1, -2)
        gemm = factor @ np.ascontiguousarray(np.swapaxes(factor, -1, -2))
        assert syrk.tobytes() == gemm.tobytes()

    log_scales = rng.normal(-2.0, 1.0, size=(5000, 3)).astype(dtype)
    quats = rng.normal(size=(5000, 4)).astype(dtype)
    cov, ctx = covariance.build_covariance(log_scales, quats)
    factor = ctx["factor"]
    assert cov.tobytes() == (factor @ np.swapaxes(factor, -1, -2)).tobytes()
