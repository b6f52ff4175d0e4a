"""Merged-model cleanup: drop artifact splats before serving.

Independently trained patches leave characteristic junk a monolithic run
would have optimized away: boundary splats stretched across a cut,
buffer-zone stragglers that drifted off their geometry, and near-
transparent residue from opacity decay. Three filters (the
``clean_splats.py`` recipe of reef-scale reconstruction pipelines):

* **oversized** — drop splats whose largest two extents' geometric mean
  exceeds ``max_extent`` (an area cap: huge flat disks are boundary
  artifacts, not geometry);
* **isolated** — drop splats whose ``min_neighbors``-th nearest neighbor
  is farther than ``neighbor_radius`` (a splat with no spatial support
  is floating debris);
* **transparent** — drop splats whose opacity falls below
  ``min_opacity`` (they cost render time and contribute nothing).

Thresholds default to scale-free multiples of the model's own median
splat statistics, so one config works across scene scales. The pass
streams the merged checkpoint: the filter decisions need only columns
``[0, 11)`` (geometry + opacity), then kept rows are gathered block by
block into the final servable single-block checkpoint — the one array
the pipeline ever fully materializes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.checkpoint import CheckpointReader, write_model_checkpoint
from ..gaussians import layout

__all__ = [
    "CleanConfig",
    "CleanReport",
    "clean_checkpoint",
    "clean_mask",
]

#: Multiplier for the derived ``max_extent`` cap.
MAX_EXTENT_FACTOR = 20.0
#: Multiplier for the derived ``neighbor_radius``.
NEIGHBOR_RADIUS_FACTOR = 8.0


@dataclass(frozen=True)
class CleanConfig:
    """Thresholds of the three quality filters.

    Attributes:
        max_extent: absolute cap on a splat's effective radius (geometric
            mean of its two largest extents), world units; ``None``
            derives it as :data:`MAX_EXTENT_FACTOR` x the median extent.
        neighbor_radius: isolation radius, world units; ``None`` derives
            it as :data:`NEIGHBOR_RADIUS_FACTOR` x the median nearest-
            neighbor distance.
        min_neighbors: neighbors required within the radius (0 disables
            the isolation filter).
        min_opacity: post-sigmoid opacity floor.
    """

    max_extent: float | None = None
    neighbor_radius: float | None = None
    min_neighbors: int = 1
    min_opacity: float = 0.005


@dataclass(frozen=True)
class CleanReport:
    """What the clean pass dropped (each splat counted once, in filter
    priority order: transparent, then oversized, then isolated)."""

    input_rows: int
    kept_rows: int
    dropped_transparent: int
    dropped_oversized: int
    dropped_isolated: int
    max_extent: float
    neighbor_radius: float
    path: str = ""


def clean_mask(
    means: np.ndarray,
    log_scales: np.ndarray,
    opacity_logits: np.ndarray,
    config: CleanConfig = CleanConfig(),
) -> tuple[np.ndarray, CleanReport]:
    """Keep-mask over splats plus the per-filter drop accounting.

    Operates on just the columns the filters consult, so callers can
    stream the rest of the parameter matrix.
    """
    n = means.shape[0]
    if n == 0:
        return (
            np.zeros(0, dtype=bool),
            CleanReport(0, 0, 0, 0, 0, np.inf, 0.0),
        )

    extents = np.exp(log_scales)
    top2 = np.sort(extents, axis=1)[:, -2:]
    radius = np.sqrt(top2[:, 0] * top2[:, 1])
    max_extent = config.max_extent
    if max_extent is None:
        max_extent = float(np.median(radius)) * MAX_EXTENT_FACTOR
    oversized = radius > max_extent

    opacity = 1.0 / (1.0 + np.exp(-np.asarray(opacity_logits, dtype=np.float64)))
    transparent = opacity.reshape(n) < config.min_opacity

    neighbor_radius = 0.0
    isolated = np.zeros(n, dtype=bool)
    if config.min_neighbors > 0 and n > config.min_neighbors:
        from scipy.spatial import cKDTree

        tree = cKDTree(means)
        k = config.min_neighbors + 1  # query includes the point itself
        dists, _ = tree.query(means, k=k)
        nn = dists[:, 1]
        neighbor_radius = config.neighbor_radius
        if neighbor_radius is None:
            neighbor_radius = float(np.median(nn)) * NEIGHBOR_RADIUS_FACTOR
        isolated = dists[:, k - 1] > neighbor_radius

    keep = ~(transparent | oversized | isolated)
    report = CleanReport(
        input_rows=n,
        kept_rows=int(np.count_nonzero(keep)),
        dropped_transparent=int(np.count_nonzero(transparent)),
        dropped_oversized=int(np.count_nonzero(oversized & ~transparent)),
        dropped_isolated=int(
            np.count_nonzero(isolated & ~transparent & ~oversized)
        ),
        max_extent=float(max_extent),
        neighbor_radius=float(neighbor_radius),
    )
    return keep, report


def clean_checkpoint(
    in_path: str,
    out_path: str,
    config: CleanConfig = CleanConfig(),
) -> CleanReport:
    """Filter a (merged) checkpoint into the final servable checkpoint.

    Two streaming passes over ``in_path``: assemble the 11 decision
    columns for the masks, then gather kept rows block by block into one
    ``(N_kept, 59)`` array and write it as a single-block format-v2
    checkpoint that ``RenderService.from_checkpoint`` loads directly.
    """
    with CheckpointReader(in_path) as reader:
        if reader.num_gaussians == 0:
            # an all-empty partition merges to a zero-row model; pass it
            # through so the pipeline still ends with a loadable file
            write_model_checkpoint(
                out_path,
                [("", None, np.empty((0, layout.PARAM_DIM), np.float32))],
                system="merged",
                iteration=reader.iteration,
                num_gaussians=0,
            )
            return CleanReport(0, 0, 0, 0, 0, np.inf, 0.0, path=out_path)
        head = reader.assemble_columns(slice(0, layout.GEOMETRIC_DIM + 1))
        keep, report = clean_mask(
            head[:, layout.MEAN_SLICE],
            head[:, layout.SCALE_SLICE],
            head[:, layout.OPACITY_SLICE],
            config,
        )
        del head
        n_keep = int(np.count_nonzero(keep))
        remap = np.cumsum(keep) - 1  # global row -> cleaned row
        out = None
        for rows, cols, values in reader.iter_column_blocks(
            slice(0, layout.PARAM_DIM)
        ):
            if out is None:
                out = np.empty((n_keep, layout.PARAM_DIM), values.dtype)
            block_rows = (
                np.arange(values.shape[0], dtype=np.int64)
                if rows is None
                else rows
            )
            sel = keep[block_rows]
            out[remap[block_rows[sel]], cols] = values[sel]
        if out is None:
            out = np.empty((0, layout.PARAM_DIM), dtype=np.float32)
    write_model_checkpoint(
        out_path,
        [("", None, out)],
        system="merged",
        iteration=reader.iteration,
        num_gaussians=n_keep,
    )
    return CleanReport(
        input_rows=report.input_rows,
        kept_rows=report.kept_rows,
        dropped_transparent=report.dropped_transparent,
        dropped_oversized=report.dropped_oversized,
        dropped_isolated=report.dropped_isolated,
        max_extent=report.max_extent,
        neighbor_radius=report.neighbor_radius,
        path=out_path,
    )
