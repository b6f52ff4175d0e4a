"""Numerics contract fact 11: a forward-only render shades only the
splats its pair table composites.

``render(..., screen=)`` with a screen kept without the backward context
(serving's ``keep="screen"`` cull) hands the ``vectorized`` engine a
colour function instead of a colour array; the engine calls it once,
with the sorted distinct splat ids of the occlusion-pruned intersection
table, and the render reads only those rows of ``model.sh``. The image
and the final transmittance must be the bytes of the eager path,
whatever the prune, the raster dtype, the row subset or the number of
rows shaded; the ``reference`` engine and a render with the backward
context stay eager.
"""

import numpy as np
import pytest

from repro.cameras import Camera
from repro.gaussians import GaussianModel, layout
from repro.render import RasterConfig, frustum_cull, render
from repro.render.engine import visible_intersections
from repro.render.rasterize import config_bboxes

CAMERA = Camera.look_at(
    [0.31, -0.47, 3.0], [0.013, 0.021, 0.0], width=48, height=32,
    fov_x_deg=60.0,
)


class SpiedModel(GaussianModel):
    """A model that records every ``sh[rows]`` read."""

    def __init__(self, params):
        super().__init__(params)
        self.reads = []

    @property
    def sh(self):
        whole, reads = super().sh, self.reads

        class Rows:
            def __getitem__(self, rows):
                reads.append(np.array(rows))
                return whole[rows]

        return Rows()


def site(n, seed, scale_lo, scale_hi, logit=None):
    """``n`` rows over a 4 x 4 site in front of :data:`CAMERA`; a fixed
    ``logit`` makes them that opaque."""
    rng = np.random.default_rng(seed)
    params = np.zeros((n, layout.PARAM_DIM))
    params[:, layout.MEAN_SLICE] = np.column_stack([
        rng.uniform(-2.0, 2.0, (n, 2)), rng.uniform(-0.5, 0.5, n),
    ])
    params[:, layout.SCALE_SLICE] = np.log(rng.uniform(scale_lo, scale_hi, (n, 3)))
    params[:, layout.QUAT_SLICE] = rng.normal(size=(n, 4))
    params[:, layout.OPACITY_SLICE] = (
        rng.normal(size=(n, 1)) if logit is None else logit
    )
    params[:, layout.SH_SLICE] = rng.normal(0.0, 0.3, (n, layout.SH_DIM))
    return params


SCENES = {
    # large near-opaque splats: most tiles go opaque part-way down
    "occluded": site(200, 1, 0.8, 1.5, logit=6.0),
    # small translucent splats: no tile saturates
    "open": site(300, 0, 0.02, 0.2),
}


def table_ids(result, config):
    """Sorted distinct splat ids of the render's pruned table, rebuilt
    from its projection."""
    proj = result.proj
    dtype = np.dtype(config.dtype) if config.dtype else proj.means2d.dtype
    bboxes = config_bboxes(
        proj.means2d, proj.rows.radii, CAMERA.width, CAMERA.height, config
    )
    _, sid, _, _ = visible_intersections(
        proj.means2d.astype(dtype), proj.conics.astype(dtype),
        proj.opacities.astype(dtype), bboxes,
        np.argsort(proj.rows.cam_points[:, 2], kind="stable"),
        CAMERA.width, CAMERA.height, config, 16,
    )
    return np.unique(sid)


def both_paths(scene, config, subset=None):
    """``(forward-only, eager, model)`` renders of one view: the first
    from a ``keep="screen"`` cull's hand-on, the second projected afresh
    with every colour computed."""
    model = SpiedModel(SCENES[scene])
    cull = frustum_cull(
        model.means, model.log_scales, model.quats, CAMERA, keep="screen"
    )
    ids, screen = cull.valid_ids, cull.screen
    if subset is not None:
        rows = subset(ids.size)
        ids, screen = ids[rows], screen.take(rows, context=False)
    lazy = render(model, CAMERA, valid_ids=ids, config=config, screen=screen)
    eager = render(GaussianModel(model.params), CAMERA, valid_ids=ids,
                   config=config)
    return lazy, eager, model


def assert_same_frame(lazy, eager):
    for got, want in (
        (lazy.image, eager.image),
        (lazy.raster.final_transmittance, eager.raster.final_transmittance),
    ):
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("dtype", ["float32", "float64"])
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_shades_only_the_pruned_table_and_renders_the_same_bytes(scene, dtype):
    config = RasterConfig(engine="vectorized", dtype=dtype)
    lazy, eager, model = both_paths(scene, config)
    assert_same_frame(lazy, eager)
    counts = lazy.raster.counts
    if scene == "occluded":
        assert counts.pruned_isects > 0 and counts.splats < lazy.valid_ids.size
    else:
        assert counts.pruned_isects == 0
    shaded = table_ids(lazy, config)
    # one read, of the table's rows, as model rows
    assert len(model.reads) == 1
    assert np.array_equal(model.reads[0], lazy.valid_ids[shaded])
    assert shaded.size == counts.splats
    # proj.colors holds the shaded rows, with the eager bits, and 0 else
    colors = lazy.proj.colors
    assert colors[shaded].tobytes() == eager.proj.colors[shaded].tobytes()
    rest = np.setdiff1d(np.arange(colors.shape[0]), shaded)
    assert not colors[rest].any()


@pytest.mark.parametrize(
    "subset",
    [
        pytest.param(lambda n: np.arange(0, n, 2), id="lod-every-other"),
        pytest.param(lambda n: np.array([n // 2]), id="one-row"),
        pytest.param(lambda n: np.array([n // 3, n // 2]), id="two-rows"),
    ],
)
@pytest.mark.parametrize("scene", sorted(SCENES))
def test_a_row_subset_renders_the_same_bytes(scene, subset):
    config = RasterConfig(engine="vectorized")
    lazy, eager, model = both_paths(scene, config, subset)
    assert_same_frame(lazy, eager)
    shaded = table_ids(lazy, config)
    assert len(model.reads) == 1 and model.reads[0].size == shaded.size
    if lazy.valid_ids.size <= 2:
        assert shaded.size == lazy.valid_ids.size  # a one- / two-row set


@pytest.mark.parametrize("scene", sorted(SCENES))
def test_the_reference_engine_stays_eager(scene):
    config = RasterConfig(engine="reference")
    lazy, eager, model = both_paths(scene, config)
    assert_same_frame(lazy, eager)
    assert lazy.proj.shade is None
    assert len(model.reads) == 1
    assert np.array_equal(model.reads[0], lazy.valid_ids)


def test_a_render_with_the_backward_context_stays_eager():
    model = SpiedModel(SCENES["occluded"])
    res = render(model, CAMERA, config=RasterConfig(engine="vectorized"))
    assert res.proj.shade is None and res.proj.clamp_mask is not None
    assert len(model.reads) == 1
    assert np.array_equal(model.reads[0], res.valid_ids)
