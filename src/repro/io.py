"""Gaussian models in the 3DGS PLY interchange layout.

The layout follows the de-facto 3DGS convention (``x y z``, ``f_dc_*``,
``f_rest_*``, ``opacity``, ``scale_*``, ``rot_*``) so scenes trained
here can be inspected by standard splat viewers, and checkpoints from
gsplat-style pipelines can be imported. Training checkpoints are
:mod:`repro.core.checkpoint`'s.
"""

from __future__ import annotations

import numpy as np

from .gaussians import GaussianModel, layout

_PLY_SH_REST = layout.SH_COEFFS_PER_CHANNEL - 1  # 15 per channel


def export_ply(path: str, model: GaussianModel) -> None:
    """Write the model in the standard 3DGS PLY layout (ASCII)."""
    n = model.num_gaussians
    sh = model.sh  # (N, 16, 3)
    header_fields = (
        ["x", "y", "z"]
        + [f"f_dc_{i}" for i in range(3)]
        + [f"f_rest_{i}" for i in range(3 * _PLY_SH_REST)]
        + ["opacity"]
        + [f"scale_{i}" for i in range(3)]
        + [f"rot_{i}" for i in range(4)]
    )
    # channel-major rest coefficients, matching the reference exporter
    rest = np.transpose(sh[:, 1:, :], (0, 2, 1)).reshape(n, 3 * _PLY_SH_REST)
    table = np.column_stack(
        [
            model.means,
            sh[:, 0, :],
            rest,
            model.opacity_logits,
            model.log_scales,
            model.quats,
        ]
    )
    with open(path, "w") as f:
        f.write("ply\nformat ascii 1.0\n")
        f.write(f"element vertex {n}\n")
        for field in header_fields:
            f.write(f"property float {field}\n")
        f.write("end_header\n")
        for row in table:
            f.write(" ".join(f"{v:.8g}" for v in row) + "\n")


def import_ply(path: str, dtype=np.float64) -> GaussianModel:
    """Read a 3DGS-layout PLY written by :func:`export_ply`."""
    with open(path) as f:
        line = f.readline().strip()
        if line != "ply":
            raise ValueError(f"{path!r} is not a PLY file")
        fields: list[str] = []
        count = 0
        while True:
            line = f.readline()
            if not line:
                raise ValueError("unexpected end of PLY header")
            line = line.strip()
            if line.startswith("element vertex"):
                count = int(line.split()[-1])
            elif line.startswith("property float"):
                fields.append(line.split()[-1])
            elif line == "end_header":
                break
        data = np.loadtxt(f, dtype=dtype, max_rows=count)
    if data.ndim == 1:
        data = data[None, :]
    col = {name: i for i, name in enumerate(fields)}

    def grab(names):
        return data[:, [col[n] for n in names]]

    means = grab(["x", "y", "z"])
    dc = grab([f"f_dc_{i}" for i in range(3)])
    rest = grab([f"f_rest_{i}" for i in range(3 * _PLY_SH_REST)])
    sh = np.zeros((count, layout.SH_COEFFS_PER_CHANNEL, 3), dtype=dtype)
    sh[:, 0, :] = dc
    sh[:, 1:, :] = np.transpose(
        rest.reshape(count, 3, _PLY_SH_REST), (0, 2, 1)
    )
    return GaussianModel.from_attributes(
        means=means,
        log_scales=grab([f"scale_{i}" for i in range(3)]),
        quats=grab([f"rot_{i}" for i in range(4)]),
        opacity_logits=grab(["opacity"])[:, 0],
        sh=sh,
        dtype=dtype,
    )

