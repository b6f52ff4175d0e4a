"""Seeded input generation: sites, models, capture sets, client sessions.

Everything here is a pure function of its arguments — the same seed gives
the same inputs. The *site plan* (terrain shape, building footprints and
heights) is fixed; the seed draws what a capture of that site would
differ in: every point's position on the terrain and the building shells,
every colour and SH coefficient, the perturbation of the initial model,
and the clients' paths. Point density, depth complexity and the camera
layout therefore keep the same statistics from seed to seed, so the work
a workload does (visible splats per view, intersections per splat, shards
touched per step) is a property of the workload and not of the seed —
which is what lets runs on different seeds share one regression bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.cameras import Camera, trajectories
from repro.gaussians import GaussianModel, layout
from repro.render import RasterConfig, render

#: every render the benchmark issues itself (targets, references) uses the
#: engine the workloads train with
RASTER = RasterConfig(engine="vectorized")

#: building base colours, cycled over the building grid
PALETTE = np.array(
    [
        [0.70, 0.45, 0.35], [0.55, 0.55, 0.60], [0.75, 0.70, 0.55],
        [0.45, 0.50, 0.65], [0.65, 0.40, 0.45], [0.60, 0.65, 0.50],
        [0.50, 0.45, 0.40],
    ]
)


@dataclass(frozen=True)
class SiteSpec:
    """A square ``[-extent, extent]^2`` terrain with box buildings.

    Attributes:
        extent: half-width of the site in world units.
        num_points: size of the point cloud (== Gaussians in the models).
        buildings_per_side: buildings stand on a regular B x B grid.
    """

    extent: float
    num_points: int
    buildings_per_side: int = 5


def _terrain_height(xy: np.ndarray, extent: float) -> np.ndarray:
    """The fixed heightfield: four sinusoids, amplitude under one unit."""
    k = np.pi / extent
    x, y = xy[:, 0], xy[:, 1]
    return 0.25 * (
        np.sin(0.9 * k * x + 0.4)
        + np.sin(1.7 * k * y + 1.3)
        + np.sin(1.1 * k * (x + y) + 2.1)
        + np.sin(0.6 * k * (x - y) + 0.2)
    )


def make_site(spec: SiteSpec, rng: np.random.Generator):
    """Coloured point cloud ``(points, colors)`` of one capture of the site."""
    e, n = spec.extent, spec.num_points
    side = spec.buildings_per_side
    n_building = n // 3
    n_terrain = n - n_building

    # terrain samples are stratified — one per cell of a g x g grid,
    # jittered inside it, the remainder anywhere — so local density (and
    # with it every median cut and visible count) barely moves with the seed
    g = int(np.sqrt(n_terrain))
    cells = np.stack(np.meshgrid(np.arange(g), np.arange(g), indexing="ij"), -1)
    grid_xy = (cells.reshape(-1, 2) + rng.random((g * g, 2))) * (2.0 * e / g) - e
    xy = np.concatenate([grid_xy, rng.uniform(-e, e, size=(n_terrain - g * g, 2))])
    z = _terrain_height(xy, e)
    ground = np.clip(
        0.35 + 0.25 * z[:, None] + rng.normal(scale=0.05, size=(n_terrain, 3)),
        0.0,
        1.0,
    )
    ground[:, 1] = np.clip(ground[:, 1] + 0.15, 0.0, 1.0)
    points = [np.column_stack([xy, z])]
    colors = [ground]

    # building shells; footprint and height follow a fixed pattern over
    # the grid (world units, independent of the site's extent)
    cell = 2.0 * e / side
    per = n_building // side**2
    for b in range(side**2):
        count = per if b < side**2 - 1 else n_building - per * (side**2 - 1)
        gx, gy = divmod(b, side)
        cx = -e + (gx + 0.5) * cell
        cy = -e + (gy + 0.5) * cell
        w = cell * (0.18 + 0.04 * ((gx + 2 * gy) % 3))
        d = cell * (0.18 + 0.04 * ((2 * gx + gy) % 3))
        h = 1.4 + 0.2 * ((3 * gx + 5 * gy) % 4)
        pts = np.column_stack(
            [
                rng.uniform(cx - w, cx + w, size=count),
                rng.uniform(cy - d, cy + d, size=count),
                rng.uniform(0.0, h, size=count),
            ]
        )
        face = rng.integers(0, 3, size=count)
        side_pick = rng.random(count) < 0.5
        pts[face == 0, 0] = np.where(side_pick[face == 0], cx - w, cx + w)
        pts[face == 1, 1] = np.where(side_pick[face == 1], cy - d, cy + d)
        pts[face == 2, 2] = h
        points.append(pts)
        colors.append(
            np.clip(
                PALETTE[b % len(PALETTE)] + rng.normal(scale=0.05, size=(count, 3)),
                0.0,
                1.0,
            )
        )
    return np.concatenate(points), np.concatenate(colors)


def make_models(
    spec: SiteSpec, rng: np.random.Generator
) -> tuple[GaussianModel, GaussianModel]:
    """``(oracle, initial)``: the scene the targets are rendered from, and
    the degraded model training starts at (same splat count: positions
    and colours perturbed, scales inflated, opacity reset low — the
    SfM-initialisation stand-in)."""
    points, colors = make_site(spec, rng)
    oracle = GaussianModel.from_point_cloud(
        points, colors, initial_opacity=0.8, scale_multiplier=1.2,
        dtype=np.float64,
    )
    n = oracle.num_gaussians
    oracle.sh[:, 1:4, :] = rng.normal(scale=0.05, size=(n, 3, 3))

    initial = oracle.copy()
    initial.means[...] += rng.normal(scale=0.005 * spec.extent, size=(n, 3))
    initial.log_scales[...] += np.log(1.25)
    initial.opacity_logits[...] = np.log(0.1 / 0.9)
    initial.sh[:, 0, :] += rng.normal(scale=0.35, size=(n, 3))
    initial.sh[:, 1:, :] = 0.0
    return oracle, initial


def target_images(oracle: GaussianModel, cameras: list[Camera]) -> list[np.ndarray]:
    """Ground-truth images: the oracle rendered from every camera."""
    return [render(oracle, cam, config=RASTER).image for cam in cameras]


def sweep_cameras(
    extent: float,
    altitude: float,
    rows: int,
    cols: int,
    width: int,
    height: int,
    fov_x_deg: float,
    tilt: float,
    span: float = 0.8,
) -> list[Camera]:
    """Lawnmower capture sweep over the inner ``span`` of the site."""
    return trajectories.aerial_grid(
        extent=span * extent,
        altitude=altitude,
        rows=rows,
        cols=cols,
        width=width,
        height_px=height,
        fov_x_deg=fov_x_deg,
        tilt=tilt,
        far=20.0 * extent,
    )


#: clients walk above the rooftops and see this share of the extent ahead
EYE_HEIGHT = 5.0
VIEW_DISTANCE = 0.7


def walk_session(
    extent: float,
    rng: np.random.Generator,
    client: int,
    num_cameras: int,
    size: int,
) -> list[Camera]:
    """Client ``client``'s walk over the site, above the rooftops.

    Each client has a route — three quarters of a ring around the site
    centre, its radius, start and direction fixed by the client index —
    and the seed perturbs where exactly it walks (start angle, radius of
    every waypoint). The far plane sits ``VIEW_DISTANCE * extent`` ahead:
    a frame draws on the few spatial shards around the client rather than
    the whole model, and the working set moves as the client does.
    """
    radius = (0.45 + 0.05 * (client % 3)) * extent
    start = 2.1 * client + rng.uniform(-0.1, 0.1)
    turn = (1.0 if client % 2 == 0 else -1.0) * 1.5 * np.pi
    angles = start + np.linspace(0.0, turn, 9)
    radii = radius + rng.uniform(-0.02, 0.02, size=angles.size) * extent
    waypoints = np.column_stack(
        [radii * np.cos(angles), radii * np.sin(angles),
         np.full(angles.size, EYE_HEIGHT)]
    )
    return trajectories.walkthrough(
        waypoints, num_cameras, width=size, height_px=size,
        fov_x_deg=70.0, look_ahead=0.15 * extent, far=VIEW_DISTANCE * extent,
    )


def host_state_bytes(num_rows: int) -> int:
    """fp32-equivalent bytes an all-resident host tier holds for
    ``num_rows`` Gaussians' non-geometric block: parameters and both Adam
    moments plus one defer counter per row — the same accounting the
    out-of-core system's host tracker applies per resident shard."""
    return 3 * layout.param_bytes(num_rows, layout.NON_GEOMETRIC_DIM) + num_rows
