"""Scene partitioning for the reconstruction farm: patches + cameras.

The patch pipeline's first stage: cut the initial model into overlap-
buffered spatial patches (:func:`~repro.core.splitting.
buffered_spatial_partition`) and give each patch the subset of the
capture's cameras that actually see it, so every patch is a complete,
independently trainable problem — its own Gaussians, its own views.

Camera assignment is frustum-based: a camera belongs to a patch when the
patch's buffered geometry survives its frustum cull (the exact test's
image stage, :func:`~repro.render.culling.image_stage`, run on the rows
:func:`~repro.render.culling.cull_candidates` cannot rule out — a patch
the camera looks away from costs no projection). Cameras
may (and should) appear in several patches — a view that straddles a
boundary supervises both sides. A non-empty patch that no frustum
reaches still gets its ``min_cameras`` nearest views, so no owned
Gaussian goes entirely unsupervised.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cameras.camera import Camera
from ..core.splitting import SpatialPatch, buffered_spatial_partition
from ..gaussians import GaussianModel
from ..render import cull_candidates, frustum_cull, image_stage

__all__ = ["ScenePatch", "default_buffer", "partition_scene"]


@dataclass(frozen=True)
class ScenePatch:
    """One independently trainable unit of a partitioned capture.

    Attributes:
        index: position of the patch in the partition (stable across
            resumes; names the patch's checkpoint files).
        patch: the spatial cell — core/buffered ids and the core box.
        camera_ids: sorted indices into the capture's camera list that
            this patch trains with.
    """

    index: int
    patch: SpatialPatch
    camera_ids: np.ndarray

    @property
    def core_ids(self) -> np.ndarray:
        """Sorted global ids this patch owns."""
        return self.patch.core_ids

    @property
    def buffered_ids(self) -> np.ndarray:
        """Sorted global ids this patch trains on."""
        return self.patch.buffered_ids

    @property
    def num_core(self) -> int:
        """Gaussians owned by the patch."""
        return self.patch.num_core

    @property
    def num_buffered(self) -> int:
        """Gaussians the patch trains on."""
        return self.patch.num_buffered

    @property
    def num_cameras(self) -> int:
        """Views assigned to the patch."""
        return int(self.camera_ids.size)


def default_buffer(means: np.ndarray, fraction: float = 0.1) -> float:
    """Overlap buffer as a fraction of the scene's widest extent.

    The 3D-Reefs recipe sizes the overlap relative to the site, not the
    patch: a tenth of the widest axis comfortably covers the splats whose
    footprints straddle a cut.
    """
    if means.shape[0] == 0:
        return 0.0
    return float(np.max(np.ptp(means, axis=0)) * fraction)


def _sees(camera: Camera, means, log_scales, quats) -> bool:
    """Whether any of these Gaussians survives the camera's frustum cull.

    A camera looking elsewhere leaves no candidate and costs no
    projection; one looking this way projects its candidates only, for
    the image stage (their depth was decided on all the rows).
    """
    cand = cull_candidates(means, log_scales, camera)
    if cand.size == 0:
        return False
    exact = frustum_cull(
        means[cand], log_scales[cand], quats[cand], image_stage(camera)
    )
    return exact.num_visible > 0


def partition_scene(
    model: GaussianModel,
    cameras: list[Camera],
    num_patches: int,
    buffer: float | None = None,
    min_cameras: int = 1,
) -> list[ScenePatch]:
    """Split a capture into overlap-buffered, camera-assigned patches.

    Args:
        model: initial Gaussians (the SfM-style starting model).
        cameras: every training camera of the capture.
        num_patches: spatial cells to cut (empty cells are kept so patch
            indices stay aligned with the partition).
        buffer: overlap distance in world units; ``None`` uses
            :func:`default_buffer`.
        min_cameras: floor on views per non-empty patch — patches no
            frustum reaches are assigned their nearest views instead.

    Returns:
        One :class:`ScenePatch` per cell, in partition order.
    """
    if not cameras:
        raise ValueError("need at least one camera")
    if min_cameras < 1:
        raise ValueError("min_cameras must be >= 1")
    means = model.means
    if buffer is None:
        buffer = default_buffer(means)
    cells = buffered_spatial_partition(means, num_patches, buffer)

    positions = np.stack([c.center for c in cameras])
    patches = []
    for index, cell in enumerate(cells):
        ids = cell.buffered_ids
        if ids.size == 0:
            patches.append(
                ScenePatch(index, cell, np.empty(0, dtype=np.int64))
            )
            continue
        sub_means = means[ids]
        sub_scales = model.log_scales[ids]
        sub_quats = model.quats[ids]
        seen = [
            cam_id
            for cam_id, cam in enumerate(cameras)
            if _sees(cam, sub_means, sub_scales, sub_quats)
        ]
        if len(seen) < min_cameras:
            # fall back to proximity: the views closest to the patch
            # centroid, so every owned Gaussian has some supervision
            centroid = sub_means.mean(axis=0)
            dist = np.linalg.norm(positions - centroid, axis=1)
            nearest = np.argsort(dist, kind="stable")[:min_cameras]
            seen = sorted(set(seen) | set(int(i) for i in nearest))
        patches.append(
            ScenePatch(index, cell, np.asarray(sorted(seen), dtype=np.int64))
        )
    return patches
