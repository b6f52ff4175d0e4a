"""Numerics contract fact 10: a stacked small product equals its flat or
contiguous form. The EWA projection computes four expressions by numpy's
faster routes — ``J @ W`` as one flat ``(2M, 3) @ (3, 3)`` gemm,
``M Sigma M^T`` against a contiguous copy of ``M^T``, the quaternion
norm as an explicit left-to-right sum, and ``V = R S`` as a flat
``(M, 9)`` product — and its backward two more (``J W`` and ``dL/dM
W^T`` as flat gemms); each is only sound because it gives the bytes
of the expression it replaced. The old expressions are kept here as
oracles and compared by ``tobytes()``: sizes 0 to 30k, float32 and
float64, contiguous, strided, reversed and column-view inputs, and
quaternion components at zero, ``-0.0``, subnormal, huge, ``inf`` and
``NaN``. A BLAS or numpy on which a route differs fails here first."""

import inspect
import itertools
import textwrap

import numpy as np
import pytest

from repro.cameras import Camera
from repro.gaussians import covariance, quaternion
from repro.render import projection

DTYPES = [np.float32, np.float64]
SIZES = [0, 1, 2, 3, 7, 1000, 8192, 30_000]
LAYOUTS = ["contiguous", "columns", "reversed", "strided"]

#: a camera whose rotation has no zero entry, so every product's rounding
#: depends on how it is computed
CAMERA = Camera.look_at(
    [0.31, -0.47, 3.0], [0.013, 0.021, 0.0], width=48, height=32, fov_x_deg=60.0
)


# -- the expressions the projection used to compute ----------------------------


def old_normalize(quats, eps=1e-12):
    return quats / np.maximum(np.linalg.norm(quats, axis=-1, keepdims=True), eps)


def old_normalize_backward(quats, grad_unit, eps=1e-12):
    norms = np.maximum(np.linalg.norm(quats, axis=-1, keepdims=True), eps)
    unit = quats / norms
    inner = np.sum(unit * grad_unit, axis=-1, keepdims=True)
    return (grad_unit - unit * inner) / norms


def old_build_covariance(log_scales, quats):
    scales = np.exp(log_scales)
    rot = quaternion.to_rotation_matrix(old_normalize(quats))
    factor = rot * scales[:, None, :]
    return factor @ np.ascontiguousarray(np.swapaxes(factor, -1, -2)), factor


#: ``project_backward``'s flat routes and the stacked products they
#: replaced
BACKWARD_ROUTES = (
    ("(jac.reshape(-1, 3) @ rot).reshape(jac.shape)", "jac @ rot"),
    ("(grad_m.reshape(-1, 3) @ rot.T).reshape(grad_m.shape)", "grad_m @ rot.T"),
)


def old_project_backward():
    """``project_backward`` with its stacked products put back: the
    function's own source with each flat route replaced by the
    expression it replaced."""
    source = textwrap.dedent(inspect.getsource(projection.project_backward))
    for new, old in BACKWARD_ROUTES:
        assert source.count(new) == 1, new
        source = source.replace(new, old)
    namespace = dict(vars(projection))
    exec(source, namespace)
    return namespace["project_backward"]


def old_cov2d(jac, cov_world, rot):
    m = jac @ rot
    cov2d = m @ cov_world @ np.swapaxes(m, -1, -2)
    cov2d[:, 0, 0] += projection.EPS_2D
    cov2d[:, 1, 1] += projection.EPS_2D
    return cov2d


# -- inputs ------------------------------------------------------------------


def laid_out(values, layout):
    """``values`` (``(n, k)``) as the layout names it: a fresh array, a
    column view of a wider packed matrix, a reversed view, or every
    other row of a twice-as-long matrix."""
    n, k = values.shape
    if layout == "contiguous":
        return values.copy()
    if layout == "columns":
        packed = np.zeros((n, k + 5), values.dtype)
        packed[:, 2 : 2 + k] = values
        return packed[:, 2 : 2 + k]
    if layout == "reversed":
        return values[::-1].copy()[::-1]
    doubled = np.zeros((2 * n, k), values.dtype)
    doubled[::2] = values
    return doubled[::2]


def geometry(n, dtype, seed=0):
    """Camera-space centres in front of :data:`CAMERA`, log scales and
    raw quaternions whose per-row magnitude spans ``1e-8`` to ``1e8``."""
    rng = np.random.default_rng(seed)
    cam_points = np.column_stack([
        rng.uniform(-2, 2, size=(n, 2)), rng.uniform(0.5, 9.0, size=n)
    ]).astype(dtype)
    log_scales = rng.normal(np.log(0.1), 1.0, size=(n, 3)).astype(dtype)
    quats = (
        rng.normal(size=(n, 4)) * 10.0 ** rng.uniform(-8, 8, size=(n, 1))
    ).astype(dtype)
    return cam_points, log_scales, quats


def special_quats(dtype):
    """Every 4-tuple of zero, ``-0.0``, subnormal, tiny, ordinary, huge,
    largest finite, ``inf`` and ``NaN`` components (both signs)."""
    fi = np.finfo(dtype)
    values = [
        0.0, -0.0, fi.smallest_subnormal, -fi.tiny / 4, 1e-30, 1.0, -3.5,
        1e30, -fi.max, fi.max / 2, np.inf, -np.inf, np.nan, -np.nan,
    ]
    return np.array(list(itertools.product(values, repeat=4)), dtype=dtype)


def assert_same_bytes(got, want, what):
    assert got.dtype == want.dtype, f"{what}: dtype {got.dtype} != {want.dtype}"
    assert got.shape == want.shape, f"{what}: shape {got.shape} != {want.shape}"
    assert got.tobytes() == want.tobytes(), f"{what}: bytes differ"


# -- the routes ----------------------------------------------------------------


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_project_rows_gives_the_old_bytes(dtype, n, layout):
    """Every field ``project_rows`` computes from the rewritten
    expressions — the 3D covariance and its context, the 2D covariance,
    radii and validity — equals what the old expressions give for the
    same rows."""
    cam_points, log_scales, quats = (
        laid_out(a, layout) for a in geometry(n, dtype, seed=n)
    )
    rows = projection.project_rows(cam_points, log_scales, quats, CAMERA)

    cov_world, factor = old_build_covariance(log_scales, quats)
    assert_same_bytes(rows.cov3d_mats, cov_world, "cov3d")
    assert_same_bytes(rows.cov3d_ctx["factor"], factor, "factor")
    assert_same_bytes(rows.cov3d_ctx["unit"], old_normalize(quats), "unit")

    rot = CAMERA.world_to_cam_rot.astype(dtype)
    cov2d = old_cov2d(rows.jacobians, cov_world, rot)
    assert_same_bytes(rows.cov2d, cov2d, "cov2d")
    radii, valid = projection._splat_radii(cov2d)
    assert_same_bytes(rows.radii, radii, "radii")
    assert_same_bytes(rows.valid, valid, "valid")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_flat_jw_and_contiguous_mt_give_the_stacked_bytes(dtype, n):
    """The two products on their own, over dense operands with no zero
    entry (a perspective Jacobian has two): ``J W`` as one flat gemm over
    ``2M`` rows equals ``M`` stacked ``(2, 3) @ (3, 3)`` products, and
    ``(M Sigma) M^T`` with a contiguous ``M^T`` equals the transposed
    view's product — one row (``2M = 2``) included."""
    rng = np.random.default_rng(n + 1)
    jac = (
        rng.normal(size=(n, 2, 3)) * 10.0 ** rng.uniform(-4, 4, size=(n, 1, 1))
    ).astype(dtype)
    sigma = rng.normal(size=(n, 3, 3)).astype(dtype)
    sigma = sigma @ np.ascontiguousarray(np.swapaxes(sigma, -1, -2))
    rot = CAMERA.world_to_cam_rot.astype(dtype)

    m = (jac.reshape(-1, 3) @ rot).reshape(jac.shape)
    assert_same_bytes(m, jac @ rot, "J W")
    flat = (m @ sigma) @ np.ascontiguousarray(np.swapaxes(m, -1, -2))
    assert_same_bytes(flat, m @ sigma @ np.swapaxes(m, -1, -2), "M Sigma M^T")


@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_backward_flat_products_give_the_stacked_bytes(dtype, n):
    """The backward's ``J W`` and ``dL/dM W^T`` as flat ``(2M, 3)`` gemms
    equal the stacked products on dense operands — and so does ``M^T G
    M`` against a contiguous copy of ``M^T``, which the backward does not
    take: on its ``(3, 2)`` left operand it measured no faster."""
    rng = np.random.default_rng(n + 3)
    jac = (
        rng.normal(size=(n, 2, 3)) * 10.0 ** rng.uniform(-4, 4, size=(n, 1, 1))
    ).astype(dtype)
    grad_m = rng.normal(size=(n, 2, 3)).astype(dtype)
    grad_cov2d = rng.normal(size=(n, 2, 2)).astype(dtype)
    rot = CAMERA.world_to_cam_rot.astype(dtype)
    m = (jac.reshape(-1, 3) @ rot).reshape(jac.shape)
    assert_same_bytes(m, jac @ rot, "J W")
    assert_same_bytes(
        (grad_m.reshape(-1, 3) @ rot.T).reshape(grad_m.shape),
        grad_m @ rot.T, "dL/dM W^T",
    )
    mt = np.swapaxes(m, -1, -2)
    assert_same_bytes(
        np.ascontiguousarray(mt) @ grad_cov2d @ m, mt @ grad_cov2d @ m,
        "M^T G M",
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7, 1000, 8192])
@pytest.mark.parametrize("dtype", DTYPES)
def test_project_backward_gives_the_old_bytes(dtype, n):
    """Every gradient ``project_backward`` returns equals what the same
    function with its stacked products gives, on a real projection's
    context and random upstream gradients."""
    rng = np.random.default_rng(n + 4)
    cam_points, log_scales, quats = geometry(n, dtype, seed=n + 5)
    rot = CAMERA.world_to_cam_rot.astype(dtype)
    means = (cam_points - CAMERA.world_to_cam_trans.astype(dtype)) @ rot
    sh = rng.normal(0.0, 0.3, size=(n, 48)).astype(dtype)
    result = projection.project(
        means, log_scales, quats, rng.normal(size=n).astype(dtype), sh, CAMERA
    )
    args = (means, log_scales, quats, sh, CAMERA, result)
    grads = dict(
        grad_means2d=rng.normal(size=(n, 2)).astype(dtype),
        grad_conics=rng.normal(size=(n, 3)).astype(dtype),
        grad_colors=rng.normal(size=(n, 3)).astype(dtype),
        grad_opacities=rng.normal(size=n).astype(dtype),
    )
    got = projection.project_backward(*args, **grads)
    want = old_project_backward()(*args, **grads)
    for name in ("means", "log_scales", "quats", "opacity_logits", "sh"):
        assert_same_bytes(getattr(got, name), getattr(want, name), name)


@pytest.mark.parametrize("layout", LAYOUTS)
@pytest.mark.parametrize("n", SIZES)
@pytest.mark.parametrize("dtype", DTYPES)
def test_normalize_gives_the_norm_bytes(dtype, n, layout):
    quats = laid_out(geometry(n, dtype, seed=n + 2)[2], layout)
    assert_same_bytes(quaternion.normalize(quats), old_normalize(quats), "unit")
    grad = np.random.default_rng(n).normal(size=(n, 4)).astype(dtype)
    assert_same_bytes(
        quaternion.normalize_backward(quats, grad),
        old_normalize_backward(quats, grad),
        "normalize backward",
    )


@pytest.mark.parametrize("dtype", DTYPES)
def test_normalize_of_special_components(dtype):
    """Zero, signed zero, subnormal, overflowing, infinite and NaN
    components round, overflow and propagate exactly as the norm's
    reduction does — ``NaN`` payloads and signs included."""
    quats = special_quats(dtype)
    grad = np.random.default_rng(7).normal(size=quats.shape).astype(dtype)
    with np.errstate(all="ignore"):
        assert_same_bytes(
            quaternion._norms(quats),
            np.linalg.norm(quats, axis=-1, keepdims=True),
            "norms",
        )
        assert_same_bytes(
            quaternion.normalize(quats), old_normalize(quats), "unit"
        )
        assert_same_bytes(
            quaternion.normalize_backward(quats, grad),
            old_normalize_backward(quats, grad),
            "normalize backward",
        )
        log_scales = np.zeros((quats.shape[0], 3), dtype)
        cov, ctx = covariance.build_covariance(log_scales, quats)
        want_cov, want_factor = old_build_covariance(log_scales, quats)
    assert_same_bytes(ctx["factor"], want_factor, "factor")
    assert_same_bytes(cov, want_cov, "cov3d")


@pytest.mark.parametrize("dtype", DTYPES)
def test_factor_of_extreme_scales(dtype):
    """``V = R S`` as a flat ``(M, 9)`` product with tiled scales equals
    the broadcast over the inner axis where ``exp`` under- and overflows
    and ``R`` holds ``inf`` / ``NaN`` from an infinite quaternion."""
    rng = np.random.default_rng(8)
    n = 4096
    log_scales = rng.uniform(-800, 800, size=(n, 3)).astype(dtype)
    quats = rng.normal(size=(n, 4)).astype(dtype)
    quats[::5, 1] = np.inf
    with np.errstate(all="ignore"):
        _, ctx = covariance.build_covariance(log_scales, quats)
        _, want = old_build_covariance(log_scales, quats)
    assert_same_bytes(ctx["factor"], want, "factor")
