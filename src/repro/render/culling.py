"""Two-stage frustum culling (Section 2.4, step 1).

Stage 1 drops Gaussians outside the near/far planes; stage 2 projects the
survivors and drops those whose 3-sigma splat misses the image rectangle.
Only the *geometric* attributes (mean, scale, quaternion) are consumed —
this is the property that lets GS-Scale keep just those 10/59 parameters on
the GPU (selective offloading, Section 4.2.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cameras.camera import Camera
from . import projection


@dataclass(frozen=True)
class CullResult:
    """Outcome of frustum culling one view.

    Attributes:
        valid_ids: indices (into the full model) of visible Gaussians,
            sorted ascending.
        num_total: number of Gaussians tested.
        num_in_depth: survivors of the near/far stage.
        num_visible: survivors of both stages (``len(valid_ids)``).
    """

    valid_ids: np.ndarray
    num_total: int
    num_in_depth: int
    num_visible: int

    @property
    def active_ratio(self) -> float:
        """Fraction of all Gaussians used by this view (cf. Figure 4)."""
        if self.num_total == 0:
            return 0.0
        return self.num_visible / self.num_total


def frustum_cull(
    means: np.ndarray,
    log_scales: np.ndarray,
    quats: np.ndarray,
    camera: Camera,
) -> CullResult:
    """Identify Gaussians visible from ``camera``.

    Args:
        means: world positions, ``(N, 3)``.
        log_scales: log extents, ``(N, 3)``.
        quats: raw quaternions, ``(N, 4)``.
        camera: viewing camera (its ``near``/``far`` bound stage 1, its
            image rectangle bounds stage 2).

    Returns:
        :class:`CullResult` with the visible indices.
    """
    num_total = means.shape[0]
    dtype = means.dtype
    rot = camera.world_to_cam_rot.astype(dtype)
    trans = camera.world_to_cam_trans.astype(dtype)
    depths = means @ rot.T[:, 2] + trans[2]
    depth_mask = (depths > camera.near) & (depths < camera.far)
    depth_ids = np.nonzero(depth_mask)[0]
    if depth_ids.size == 0:
        return CullResult(
            valid_ids=depth_ids,
            num_total=num_total,
            num_in_depth=0,
            num_visible=0,
        )

    # with every row in range the caller's arrays are projected as they
    # are: project_geometry only reads them, and gathering all three is a
    # tenth of a 120k-row cull
    if depth_ids.size < num_total:
        means, log_scales, quats = (
            means[depth_ids], log_scales[depth_ids], quats[depth_ids]
        )
    geom, _ = projection.project_geometry(means, log_scales, quats, camera)
    x, y = geom.means2d[:, 0], geom.means2d[:, 1]
    r = geom.radii
    inside = (
        geom.valid
        & (x + r > 0)
        & (x - r < camera.width)
        & (y + r > 0)
        & (y - r < camera.height)
    )
    valid_ids = depth_ids[inside]
    return CullResult(
        valid_ids=valid_ids,
        num_total=num_total,
        num_in_depth=int(depth_ids.size),
        num_visible=int(valid_ids.size),
    )
