"""Procedural scene generation — the offline substitute for the paper's
multi-view capture datasets.

A scene is a colored point cloud over a terrain heightfield with box
"buildings" (mimicking the aerial urban captures of Mill-19/GauU-Scene),
an *oracle* Gaussian model built from that cloud, ground-truth images
rendered from the oracle, and an intentionally degraded *initial* model
playing the role of the sparse SfM initialization. Training then has real
signal: the initial model must move toward the oracle to explain the
ground-truth images.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.ndimage import gaussian_filter

from ..cameras import Camera, trajectories
from ..gaussians import GaussianModel
from ..render import RasterConfig, render

#: Fraction of oracle points kept for the degraded initial model (SfM clouds are much sparser).
INIT_FRACTION = 0.5


@dataclass
class SyntheticSceneConfig:
    """Knobs of the procedural generator.

    Attributes:
        name: label for reports.
        extent: half-width of the square site in world units.
        num_points: oracle point-cloud size (== oracle Gaussian count).
        num_buildings: box clusters placed on the terrain.
        terrain_roughness: amplitude of the heightfield.
        width, height: rendered image size.
        num_train_cameras / num_test_cameras: capture set sizes.
        altitude: flight altitude of the aerial sweep; lower altitude gives
            smaller frustum footprints and therefore lower active ratios.
        fov_x_deg: horizontal field of view.
        seed: RNG seed; everything downstream is deterministic in it.
    """

    name: str = "synthetic"
    extent: float = 10.0
    num_points: int = 1500
    num_buildings: int = 6
    terrain_roughness: float = 1.0
    width: int = 64
    height: int = 48
    num_train_cameras: int = 12
    num_test_cameras: int = 4
    altitude: float = 9.0
    fov_x_deg: float = 60.0
    seed: int = 0


@dataclass
class SyntheticScene:
    """A fully materialized synthetic capture session.

    Attributes:
        config: generator configuration.
        oracle: the "true" scene the ground-truth images are rendered from.
        initial: degraded starting model for training (SfM substitute).
        train_cameras / test_cameras: capture poses.
        train_images / test_images: ground-truth renders from the oracle.
    """

    config: SyntheticSceneConfig
    oracle: GaussianModel
    initial: GaussianModel
    train_cameras: list[Camera]
    test_cameras: list[Camera]
    train_images: list[np.ndarray] = field(repr=False)
    test_images: list[np.ndarray] = field(repr=False)

    @property
    def extent(self) -> float:
        """Scene extent (drives position learning rate and densify scale)."""
        return self.config.extent


def generate_point_cloud(
    config: SyntheticSceneConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """Terrain + buildings colored point cloud, ``(points, colors)``."""
    rng = np.random.default_rng(config.seed)
    n = config.num_points
    e = config.extent

    n_buildings = min(config.num_buildings, max(n // 50, 1))
    n_building_pts = n // 3 if n_buildings > 0 else 0
    n_terrain = n - n_building_pts

    # terrain: smooth random heightfield sampled at random (x, y)
    grid = gaussian_filter(rng.normal(size=(32, 32)), sigma=4.0)
    grid *= config.terrain_roughness / max(np.abs(grid).max(), 1e-9)
    xy = rng.uniform(-e, e, size=(n_terrain, 2))
    gi = ((xy + e) / (2 * e) * 31).astype(int)
    z = grid[gi[:, 0], gi[:, 1]]
    terrain = np.column_stack([xy, z])
    greens = np.clip(
        0.35 + 0.25 * (z[:, None] / max(config.terrain_roughness, 1e-9))
        + rng.normal(scale=0.05, size=(n_terrain, 3)),
        0.05,
        0.95,
    )
    greens[:, 1] += 0.15  # bias toward green ground
    terrain_colors = np.clip(greens, 0.0, 1.0)

    # buildings: axis-aligned boxes of surface points
    points = [terrain]
    colors = [terrain_colors]
    if n_building_pts > 0:
        per = n_building_pts // n_buildings
        for b in range(n_buildings):
            cx, cy = rng.uniform(-0.7 * e, 0.7 * e, size=2)
            w, d = rng.uniform(0.05 * e, 0.15 * e, size=2)
            h = rng.uniform(0.1 * e, 0.35 * e)
            count = per if b < n_buildings - 1 else n_building_pts - per * (
                n_buildings - 1
            )
            pts = np.column_stack(
                [
                    rng.uniform(cx - w, cx + w, size=count),
                    rng.uniform(cy - d, cy + d, size=count),
                    rng.uniform(0, h, size=count),
                ]
            )
            # push points to the box surface for a shell-like look
            face = rng.integers(0, 3, size=count)
            pts[face == 0, 0] = np.where(
                rng.random((face == 0).sum()) < 0.5, cx - w, cx + w
            )
            pts[face == 1, 1] = np.where(
                rng.random((face == 1).sum()) < 0.5, cy - d, cy + d
            )
            pts[face == 2, 2] = h
            base = rng.uniform(0.3, 0.8, size=3)
            cols = np.clip(
                base + rng.normal(scale=0.05, size=(count, 3)), 0.0, 1.0
            )
            points.append(pts)
            colors.append(cols)

    return np.concatenate(points), np.concatenate(colors)


def build_scene(config: SyntheticSceneConfig | None = None) -> SyntheticScene:
    """Generate a complete synthetic capture session."""
    config = config or SyntheticSceneConfig()
    rng = np.random.default_rng(config.seed + 1)
    points, colors = generate_point_cloud(config)

    oracle = GaussianModel.from_point_cloud(
        points, colors, initial_opacity=0.8, scale_multiplier=1.2,
        dtype=np.float64,
    )
    # mild SH detail so view-dependence exists
    oracle.sh[:, 1:4, :] = rng.normal(scale=0.05, size=(len(oracle), 3, 3))

    # one dense sweep; every k-th view is held out for testing (the
    # standard 3DGS evaluation protocol)
    total_cams = config.num_train_cameras + config.num_test_cameras
    rows = max(2, int(np.sqrt(total_cams)))
    cols = max(2, int(np.ceil(total_cams / rows)))
    all_cameras = trajectories.aerial_grid(
        extent=0.8 * config.extent,
        altitude=config.altitude,
        rows=rows,
        cols=cols,
        width=config.width,
        height_px=config.height,
        fov_x_deg=config.fov_x_deg,
        far=20.0 * config.extent,
    )[:total_cams]
    if config.num_test_cameras > 0:
        stride = max(total_cams // config.num_test_cameras, 2)
        test_idx = set(range(1, total_cams, stride)[: config.num_test_cameras])
    else:
        test_idx = set()
    test_cameras = [c for i, c in enumerate(all_cameras) if i in test_idx][
        : config.num_test_cameras
    ]
    train_cameras = [c for i, c in enumerate(all_cameras) if i not in test_idx][
        : config.num_train_cameras
    ]

    # the oracle loop renders the ground truth, whatever engine trains on it
    cfg = RasterConfig(engine="reference")
    train_images = [render(oracle, cam, config=cfg).image for cam in train_cameras]
    test_images = [render(oracle, cam, config=cfg).image for cam in test_cameras]

    # degraded initial model: subsample points, perturb, forget colors a bit
    keep = max(int(len(oracle) * INIT_FRACTION), 4)
    ids = rng.choice(len(oracle), size=keep, replace=False)
    init_points = points[ids] + rng.normal(
        scale=0.01 * config.extent, size=(keep, 3)
    )
    init_colors = np.clip(
        colors[ids] + rng.normal(scale=0.1, size=(keep, 3)), 0.0, 1.0
    )
    initial = GaussianModel.from_point_cloud(
        init_points, init_colors, initial_opacity=0.1, scale_multiplier=1.5,
        dtype=np.float64,
    )
    return SyntheticScene(
        config=config,
        oracle=oracle,
        initial=initial,
        train_cameras=train_cameras,
        test_cameras=test_cameras,
        train_images=train_images,
        test_images=test_images,
    )
