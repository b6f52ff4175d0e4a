"""Per-attribute learning rates, fixed for a training run."""

from __future__ import annotations

import numpy as np

from ..gaussians import layout


#: 3DGS default learning rates per attribute (position is additionally
#: scaled by the scene extent).
DEFAULT_LRS = {
    "mean": 1.6e-4,
    "scale": 5e-3,
    "quat": 1e-3,
    "opacity": 5e-2,
    "sh": 2.5e-3,
}

#: 3DGS divides the learning rate of the non-DC SH bands by 20.
SH_REST_DIVISOR = 20.0


def packed_lr_vector(
    scene_extent: float = 1.0,
    dtype=np.float64,
) -> np.ndarray:
    """Per-column learning-rate vector for the packed 59-param layout.

    Args:
        scene_extent: world-space scene radius; the position lr scales with
            it (3DGS convention).
    """
    lr = np.empty(layout.PARAM_DIM, dtype=dtype)
    lr[layout.MEAN_SLICE] = DEFAULT_LRS["mean"] * scene_extent
    lr[layout.SCALE_SLICE] = DEFAULT_LRS["scale"]
    lr[layout.QUAT_SLICE] = DEFAULT_LRS["quat"]
    lr[layout.OPACITY_SLICE] = DEFAULT_LRS["opacity"]
    sh_lr = np.full(layout.SH_DIM, DEFAULT_LRS["sh"], dtype=dtype)
    sh_lr[3:] /= SH_REST_DIVISOR  # bands 1..3 learn slower than DC
    lr[layout.SH_SLICE] = sh_lr
    return lr
