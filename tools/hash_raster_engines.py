"""Hash the ``vectorized`` raster engine's forward + backward outputs.

Usage (once per checkout, then diff the two outputs)::

    PYTHONPATH=<checkout>/src python tools/hash_raster_engines.py > hashes.txt
    PYTHONPATH=src python tools/hash_raster_engines.py --check

Prints one line per configuration — fixture x schedule (``vectorized``
saved and rebuilt, and ``vectorized-blocks``: its forward cut into blocks
of 64 cells for 2 CPUs) x {float64, float32} x {``alpha_min`` default, 0}
— with two sha256 columns, ``fwd=`` over image and final transmittance
and ``bwd=`` over the five gradient arrays, and on float64 lines ``ref=``,
each gradient array's max-abs distance from the ``reference`` loop. The
engine runs one pair kernel (``docs/raster_engines.md``); a change to it
that is meant to keep numerics must leave every column it does not
re-base equal to the parent commit's — the parity suites' ``atol=1e-9``
would not notice a last-bit change — and a change that re-bases one
(moving the per-splat factors out of the pair sums re-based ``bwd=``)
must leave ``ref=`` where it was. Uses only
names both sides of such a diff have: ``vectorized-blocks`` needs
``engine.BLOCK_CELLS`` and ``pool.usable_cpus`` and is not printed for a
checkout without them.

The ``cull`` lines that follow hash the geometric side in front of the
rasterizer on a 30k-row scene — more than three of the exact cull's row
blocks — held as strided column views of one packed matrix, like a
store's ``geometry()``: per view and dtype, ``valid_ids=`` of
``frustum_cull``, and ``means2d=`` (``x`` and ``y`` stacked) / ``radii=``
of ``project_rows(camera_points(...))`` over all rows — the projection
``render`` runs on rows it is not handed. One view stands inside the
scene, so its near plane cuts the rows and the cull gathers; the others
see every row in depth range. They call nothing but those functions, so
the tool can run against an older checkout's ``src`` and the lines can be
diffed.

The ``handon`` lines render the same views of a whole model over that
scene (random opacities and SH), float64 and float32: ``image=`` and
``grads=`` (the packed backward gradients) of ``render(model, camera)``,
whose cull hands the kept rows' projection on to the render. A checkout
whose ``render`` takes no ``screen`` prints none of them. The render's
projection is read in either layout: one record (``proj.rows``, the
cull's ``ScreenRows``, beside the stacked centres and conics) or an older
checkout's separate geometry record.

``--check`` asserts the equalities that hold inside one checkout and
prints nothing else: every line repeats (a second run gives the same two
digests), ``vectorized`` saved and rebuilt agree on all seven arrays,
``vectorized-blocks`` equals ``vectorized`` on both digests, and each
view's ``frustum_cull`` keeps exactly the rows that one ``project_rows``
over the rows in depth range, gathered whole, puts on the image, and each
``handon`` view's image, ``means2d``, conics, depths, radii and packed
gradients equal, by ``tobytes()``, those of ``render`` over the compact
visible rows with ``valid_ids=arange``, which projects afresh.
"""

import hashlib
import inspect
import sys
from contextlib import contextmanager
from dataclasses import replace

import numpy as np

from repro import pool
from repro.cameras import Camera
from repro.gaussians import GaussianModel, layout
from repro.render import RasterConfig, engine, frustum_cull, render, render_backward
from repro.render.engine import get_backward, get_forward
from repro.render.projection import camera_points, project_rows

GRADS = ("means2d", "conics", "colors", "opacities", "mean2d_abs")
BG = np.array([0.2, 0.5, 0.8])


def make_splats(n, width, height, seed, opacity_lo=0.05):
    """The random anisotropic splats of ``tests/render``'s parity suites."""
    rng = np.random.default_rng(seed)
    means2d = rng.uniform([-6, -6], [width + 6, height + 6], size=(n, 2))
    sx = rng.uniform(0.8, 4.0, size=n)
    sy = rng.uniform(0.8, 4.0, size=n)
    theta = rng.uniform(0, np.pi, size=n)
    cth, sth = np.cos(theta), np.sin(theta)
    inv_a, inv_b = 1 / sx**2, 1 / sy**2
    conics = np.stack(
        [cth**2 * inv_a + sth**2 * inv_b, cth * sth * (inv_a - inv_b),
         sth**2 * inv_a + cth**2 * inv_b], axis=1)
    colors = rng.uniform(0, 1, size=(n, 3))
    opacities = rng.uniform(opacity_lo, 1.0, size=n)
    depths = rng.uniform(1, 30, size=n)
    radii = 3 * np.maximum(sx, sy)
    return means2d, conics, colors, opacities, depths, radii


def make_occluded(n, w, h, near=16, seed=7):
    """:func:`make_splats` behind ``near`` wide, mostly opaque splats, so
    the occlusion prune fires (694 of 1042 intersections at these sizes)."""
    far = make_splats(n, w, h, seed)
    rng = np.random.default_rng(seed + 1)
    sig = rng.uniform(400.0, 800.0, size=near)
    front = (
        rng.uniform([0, 0], [w, h], size=(near, 2)),
        np.stack([1 / sig**2, np.zeros(near), 1 / sig**2], axis=1),
        rng.uniform(0, 1, size=(near, 3)),
        rng.uniform(0.85, 1.0, size=near),
        rng.uniform(0.1, 12.0, size=near),  # interleaved with the far splats
        3 * sig,
    )
    return tuple(np.concatenate([a, b]) for a, b in zip(front, far))


FIXTURES = {
    "s40": (make_splats(40, 32, 24, 0), 32, 24),
    "s150": (make_splats(150, 70, 50, 1), 70, 50),
    "s400": (make_splats(400, 96, 80, 2), 96, 80),
    "occ300": (make_occluded(300, 64, 48), 64, 48),
}

#: Whether this checkout cuts the vectorized forward into blocks and
#: pins the block threads to the CPU count.
HAS_BLOCKS = hasattr(engine, "BLOCK_CELLS") and hasattr(pool, "usable_cpus")

#: Whether this checkout's ``render`` takes the cull's projection on.
HAS_HANDON = "screen" in inspect.signature(render).parameters


@contextmanager
def small_blocks(cells=64, cpus=2):
    """The vectorized forward in blocks of ``cells`` cells — every tile
    row of the fixtures is a block of its own — for ``cpus`` CPUs: the
    ``s150`` and ``s400`` views (four and five tile rows) run on the block
    threads, the two shorter ones stay one block."""
    saved = engine.BLOCK_CELLS, pool.usable_cpus
    engine.BLOCK_CELLS = cells
    pool.usable_cpus = lambda: cpus
    try:
        yield
    finally:
        engine.BLOCK_CELLS, pool.usable_cpus = saved


def digest(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        a = np.ascontiguousarray(a)
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()[:32]


class Run:
    """One configuration's outputs: the two digest columns and, against
    ``ref`` (the ``reference`` loop's gradients, float64 lines only),
    the distances."""

    def __init__(self, label, res, grads, ref=None):
        self.label = label
        self.grads = [getattr(grads, f) for f in GRADS]
        self.fwd = digest(res.image, res.final_transmittance)
        self.bwd = digest(*self.grads)
        self.line = f"{label} fwd={self.fwd} bwd={self.bwd}"
        if ref is not None:
            self.line += " ref=" + ",".join(
                f"{f}:{np.abs(g - r).max():.1e}"
                for f, g, r in zip(GRADS, self.grads, ref)
            )


def fixture_runs(fname):
    """Every configuration of one fixture, in print order."""
    splats, w, h = FIXTURES[fname]
    grad = np.random.default_rng(11).normal(size=(h, w, 3))
    m2, con, col, op, dep, rad = splats

    def run(label, cfg, ref=None, **res_changes):
        res = get_forward(cfg.engine)(
            m2, con, col, op, dep, rad, w, h, background=BG, config=cfg)
        grads = get_backward(cfg.engine)(
            m2, con, col, op, replace(res, **res_changes), grad,
            background=BG, config=cfg)
        return Run(label, res, grads, ref)

    for dtype in (None, "float32"):
        for amin_name, amin in (("def", None), ("0", 0.0)):
            def config(**kw):
                cfg = RasterConfig(dtype=dtype, **kw)
                return cfg if amin is None else replace(cfg, alpha_min=amin)

            ref = None
            if dtype is None:
                ref = run("", config(engine="reference")).grads
            tail = f"{dtype or 'float64'} amin={amin_name}"
            cfg = config(engine="vectorized")
            yield run(f"{fname} vectorized {tail}", cfg, ref=ref)
            # the rebuild fallback of the saved table
            yield run(
                f"{fname} vectorized {tail} rebuilt", cfg, ref=ref,
                saved=None)
            if HAS_BLOCKS:
                with small_blocks():
                    blocks = run(
                        f"{fname} vectorized-blocks {tail}", cfg, ref=ref)
                yield blocks


def make_cull_scene(n=30_000, seed=5):
    """``n`` splats over a 40 x 40 x 4 slab, packed ``(n, 10)`` like the
    geometric block of a store; some quaternions lie below the ``1e-12``
    normalisation floor."""
    rng = np.random.default_rng(seed)
    packed = np.empty((n, 10))
    packed[:, 0:3] = rng.uniform([-20, -20, 0], [20, 20, 4], size=(n, 3))
    packed[:, 3:6] = rng.normal(np.log(0.2), 0.6, size=(n, 3))
    packed[:, 6:10] = rng.normal(size=(n, 4))
    packed[rng.random(n) < 0.01, 6:10] *= 1e-14
    return packed


def cull_views():
    """Four views that see every row in depth range, one inside the
    slab (the near plane cuts it) and one whose far plane cuts it."""
    return [
        Camera.look_at([0, -45, 30], [0, 0, 0], width=96, height=64,
                       fov_x_deg=30.0),
        Camera.look_at([30, 30, 12], [-5, -5, 0], width=64, height=64,
                       fov_x_deg=40.0),
        Camera.look_at([-60, 5, 8], [0, 0, 2], width=128, height=48,
                       fov_x_deg=25.0),
        Camera.look_at([0, 0, 80], [6, 1, 0], width=80, height=80,
                       fov_x_deg=20.0),
        Camera.look_at([2, -3, 2], [10, 4, 1], width=64, height=48),
        Camera.look_at([-35, -35, 10], [0, 0, 0], width=96, height=72,
                       fov_x_deg=35.0, far=45.0),
    ]


def unblocked_cull(means, log_scales, quats, camera):
    """``frustum_cull``'s verdict from one ``project_rows`` over the
    rows in depth range: gathered whole when the near/far test drops
    some, read in place when it drops none."""
    rot = camera.world_to_cam_rot.astype(means.dtype)
    trans = camera.world_to_cam_trans.astype(means.dtype)
    depths = means @ rot.T[:, 2] + trans[2]
    ids = np.flatnonzero((depths > camera.near) & (depths < camera.far))
    if ids.size < means.shape[0]:
        means, log_scales, quats = means[ids], log_scales[ids], quats[ids]
    rows = project_rows(camera_points(means, camera), log_scales, quats, camera)
    x, y, r = rows.x, rows.y, rows.radii
    keep = (
        rows.valid
        & (x + r > 0) & (x - r < camera.width)
        & (y + r > 0) & (y - r < camera.height)
    )
    return ids[keep]


def cull_runs():
    """``(label, line, walk == unblocked)`` per view and dtype."""
    packed = make_cull_scene()
    for dtype in ("float64", "float32"):
        matrix = packed.astype(dtype)
        geometry = matrix[:, 0:3], matrix[:, 3:6], matrix[:, 6:10]
        for i, camera in enumerate(cull_views()):
            ids = frustum_cull(*geometry, camera).valid_ids
            means, log_scales, quats = geometry
            rows = project_rows(
                camera_points(means, camera), log_scales, quats, camera
            )
            means2d = np.stack([rows.x, rows.y], axis=-1)
            label = f"cull v{i} {dtype}"
            line = (
                f"{label} valid_ids={digest(ids)}"
                f" means2d={digest(means2d)} radii={digest(rows.radii)}"
            )
            same = np.array_equal(ids, unblocked_cull(*geometry, camera))
            yield label, line, same


def handon_model(packed, dtype, seed=6):
    """A whole model over the cull scene's geometry: random opacities
    and SH coefficients beside the packed geometric columns."""
    rng = np.random.default_rng(seed)
    params = np.empty((packed.shape[0], layout.PARAM_DIM))
    params[:, layout.GEOMETRIC_SLICE] = packed
    params[:, layout.OPACITY_SLICE] = rng.normal(0.0, 1.0, (packed.shape[0], 1))
    params[:, layout.SH_SLICE] = rng.normal(0.0, 0.3, (packed.shape[0], layout.SH_DIM))
    return GaussianModel(params.astype(dtype))


def handon_outputs(model, camera, valid_ids, grad_seed):
    """Image, screen geometry and packed gradients of one render."""
    cfg = RasterConfig(engine="vectorized")
    res = render(model, camera, valid_ids=valid_ids, config=cfg)
    grad = np.random.default_rng(grad_seed).normal(size=res.image.shape)
    back = render_backward(model, camera, res, grad.astype(model.dtype))
    return res.valid_ids, [
        res.image, *screen_columns(res.proj), back.param_grads,
    ]


def screen_columns(proj):
    """``means2d``, conics, depths and radii of a render's projection:
    from the one record, or from the separate geometry record of a
    checkout from before it."""
    old = getattr(proj, "geom", None)
    if old is not None:
        return [old.means2d, old.conics, old.depths, old.radii]
    rows = proj.rows
    return [proj.means2d, proj.conics, rows.cam_points[:, 2], rows.radii]


def handon_runs():
    """``(label, line, handed on == fresh)`` per cull view and dtype:
    ``render(model, camera)``, which culls and hands the kept rows'
    projection on, against ``render`` of the compact visible rows with
    ``valid_ids=arange``, which projects them afresh."""
    if not HAS_HANDON:
        return
    packed = make_cull_scene()
    for dtype in ("float64", "float32"):
        model = handon_model(packed, dtype)
        for i, camera in enumerate(cull_views()):
            ids, handed = handon_outputs(model, camera, None, i)
            compact = GaussianModel(model.params[ids])
            _, fresh = handon_outputs(compact, camera, np.arange(ids.size), i)
            label = f"handon v{i} {dtype}"
            line = (
                f"{label} image={digest(handed[0])}"
                f" grads={digest(handed[-1])}"
            )
            same = all(a.tobytes() == b.tobytes() for a, b in zip(handed, fresh))
            yield label, line, same


def check(runs, again, culls, culls_again, handons):
    """The within-checkout equalities; returns the failures."""
    failures = []
    by_label = {r.label: r for r in runs}
    for first, second in zip(runs, again):
        if (first.fwd, first.bwd) != (second.fwd, second.bwd):
            failures.append(f"{first.label}: a second run differs")
    for (label, line, same), (_, line_again, _) in zip(culls, culls_again):
        if line != line_again:
            failures.append(f"{label}: a second run differs")
        if not same:
            failures.append(f"{label}: differs from the unblocked cull")
    for label, _, same in handons:
        if not same:
            failures.append(f"{label}: the handed-on render differs from a fresh one")
    for label, run in by_label.items():
        if label.endswith(" rebuilt"):
            saved = by_label[label[: -len(" rebuilt")]]
            if (run.fwd, run.bwd) != (saved.fwd, saved.bwd):
                failures.append(f"{label}: differs from the saved table's")
        if " vectorized-blocks " in label:
            vec = by_label[label.replace(" vectorized-blocks ", " vectorized ")]
            if (run.fwd, run.bwd) != (vec.fwd, vec.bwd):
                failures.append(f"{label}: differs from vectorized")
    return failures


def main(argv):
    runs = [r for fname in FIXTURES for r in fixture_runs(fname)]
    culls = list(cull_runs())
    handons = list(handon_runs())
    if argv[1:] == ["--check"]:
        again = [r for fname in FIXTURES for r in fixture_runs(fname)]
        failures = check(runs, again, culls, list(cull_runs()), handons)
        total = len(runs) + len(culls) + len(handons)
        print("\n".join(failures) or f"ok: {total} lines")
        return 1 if failures else 0
    lines = [r.line for r in runs] + [
        line for _, line, _ in culls + handons
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
