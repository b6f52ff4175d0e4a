"""Camera trajectory generators for synthetic capture sessions.

These substitute for the multi-view capture rigs of the paper's datasets
(Table 2): drone-style aerial grids for Mill-19/GauU-Scene-like scenes and
orbit rings for object-centric scans.
"""

from __future__ import annotations

import numpy as np

from .camera import Camera


def orbit(
    center: np.ndarray,
    radius: float,
    height: float,
    num_cameras: int,
    width: int = 128,
    height_px: int = 128,
    fov_x_deg: float = 60.0,
    near: float = 0.01,
    far: float = 1000.0,
) -> list[Camera]:
    """Ring of cameras orbiting ``center`` at ``radius`` and altitude ``height``."""
    center = np.asarray(center, dtype=np.float64)
    cameras = []
    for i in range(num_cameras):
        angle = 2.0 * np.pi * i / num_cameras
        pos = center + np.array(
            [radius * np.cos(angle), radius * np.sin(angle), height]
        )
        cameras.append(
            Camera.look_at(
                pos,
                center,
                width=width,
                height=height_px,
                fov_x_deg=fov_x_deg,
                near=near,
                far=far,
            )
        )
    return cameras


def aerial_grid(
    extent: float,
    altitude: float,
    rows: int,
    cols: int,
    width: int = 128,
    height_px: int = 128,
    fov_x_deg: float = 70.0,
    tilt: float = 0.35,
    near: float = 0.01,
    far: float = 1000.0,
) -> list[Camera]:
    """Drone-style lawnmower sweep over a square ``[-extent, extent]^2`` site.

    Each camera looks at a point offset from the nadir by ``tilt * altitude``
    in the flight direction, mimicking the oblique captures of the Rubble /
    Building / MatrixCity-Aerial datasets.
    """
    cameras = []
    xs = np.linspace(-extent, extent, cols)
    ys = np.linspace(-extent, extent, rows)
    for r, y in enumerate(ys):
        ordered = xs if r % 2 == 0 else xs[::-1]
        direction = 1.0 if r % 2 == 0 else -1.0
        for x in ordered:
            pos = np.array([x, y, altitude])
            target = np.array([x + direction * tilt * altitude, y, 0.0])
            cameras.append(
                Camera.look_at(
                    pos,
                    target,
                    width=width,
                    height=height_px,
                    fov_x_deg=fov_x_deg,
                    near=near,
                    far=far,
                )
            )
    return cameras


def walkthrough(
    waypoints: np.ndarray,
    num_cameras: int,
    width: int = 128,
    height_px: int = 128,
    fov_x_deg: float = 60.0,
    look_ahead: float = 1.0,
    near: float = 0.01,
    far: float = 1000.0,
) -> list[Camera]:
    """First-person walkthrough along a piecewise-linear waypoint path.

    The client-session trajectory of the serving subsystem: cameras sit
    at ``num_cameras`` evenly spaced arc-length stations along the
    ``(W, 3)`` waypoint polyline, each looking at the point
    ``look_ahead`` world units further down the path (the final cameras
    keep looking along the last segment). Deterministic in its inputs.
    """
    waypoints = np.asarray(waypoints, dtype=np.float64)
    if waypoints.ndim != 2 or waypoints.shape[1] != 3 or waypoints.shape[0] < 2:
        raise ValueError("waypoints must be (W >= 2, 3)")
    if num_cameras < 1:
        raise ValueError("num_cameras must be >= 1")
    if look_ahead <= 0:
        raise ValueError("look_ahead must be > 0")
    deltas = np.diff(waypoints, axis=0)
    seg_len = np.linalg.norm(deltas, axis=1)
    if not np.all(seg_len > 0):
        raise ValueError("consecutive waypoints must be distinct")
    stations = np.concatenate([[0.0], np.cumsum(seg_len)])
    total = stations[-1]

    def point_at(s: float) -> np.ndarray:
        s = min(max(s, 0.0), total)
        seg = min(int(np.searchsorted(stations, s, side="right")) - 1,
                  len(seg_len) - 1)
        t = (s - stations[seg]) / seg_len[seg]
        return waypoints[seg] + t * deltas[seg]

    end_dir = deltas[-1] / seg_len[-1]
    cameras = []
    for s in np.linspace(0.0, total, num_cameras):
        pos = point_at(s)
        if s + look_ahead <= total:
            target = point_at(s + look_ahead)
        else:  # past the end: keep facing along the final segment
            target = pos + end_dir * look_ahead
        cameras.append(
            Camera.look_at(
                pos,
                target,
                width=width,
                height=height_px,
                fov_x_deg=fov_x_deg,
                near=near,
                far=far,
            )
        )
    return cameras
