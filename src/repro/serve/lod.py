"""Level-of-detail reduction for serving: nested splat subsets + SH clamps.

Scale-GS's observation, applied inference-side: most of a large scene's
splats contribute almost nothing to most frames, so serving throughput
comes from *redundancy filtering*, not faster blending. A
:class:`LODSet` precomputes, once per model, a per-splat **importance**
score — activated opacity times a screen-area proxy (the splat's
projected footprint at unit depth, ``(geometric-mean scale)^2``) — and
derives one *nested* subset per :class:`LODLevel`: level 0 keeps every
splat at full SH degree (bit-identical to the unfiltered render), deeper
levels keep a shrinking top fraction by importance and clamp the SH
degree. Nesting makes the precompute a single ``(N,)`` array
(:attr:`LODSet.drop_level`), cheap to store beside the model and to
intersect with a frustum cull.

:func:`lod_quality_report` measures what each level costs: PSNR of the
reduced render against the full-detail render over a probe camera set —
the number a deployment reads before picking a level per client tier.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..cameras.camera import Camera
from ..gaussians import layout
from ..gaussians.layout import SH_DEGREE
from ..gaussians.model import GaussianModel
from ..metrics import psnr
from ..render.rasterize import RasterConfig

__all__ = [
    "DEFAULT_LOD_LEVELS",
    "LODLevel",
    "LODSet",
    "lod_quality_report",
    "splat_importance",
]


@dataclass(frozen=True)
class LODLevel:
    """One level of detail.

    Attributes:
        sh_degree: spherical-harmonics degree the level renders with
            (clamping degree 3 -> 0 drops 45 of 48 SH coefficients'
            influence without touching the stored model).
        keep_fraction: fraction of splats kept, by descending importance.
    """

    sh_degree: int
    keep_fraction: float

    def __post_init__(self):
        if not 0 <= self.sh_degree <= SH_DEGREE:
            raise ValueError(f"sh_degree must be in [0, {SH_DEGREE}]")
        if not 0.0 < self.keep_fraction <= 1.0:
            raise ValueError("keep_fraction must be in (0, 1]")


#: Level 0 is always full detail (the bit-identity anchor); deeper levels
#: roughly halve the splat budget and shed one SH degree each.
DEFAULT_LOD_LEVELS = (
    LODLevel(sh_degree=SH_DEGREE, keep_fraction=1.0),
    LODLevel(sh_degree=2, keep_fraction=0.5),
    LODLevel(sh_degree=1, keep_fraction=0.25),
    LODLevel(sh_degree=0, keep_fraction=0.1),
)


def splat_importance(params: np.ndarray) -> np.ndarray:
    """Per-splat contribution score ``(N,)``: opacity x screen-area proxy.

    The screen-area proxy is the squared geometric-mean scale — the
    splat's projected pixel footprint at unit depth, up to the shared
    focal constant — so filtering drops small, transparent splats first:
    exactly the ones whose blended contribution is below perception at
    serving resolutions.
    """
    logits = params[:, layout.OPACITY_SLICE.start]
    opacity = 1.0 / (1.0 + np.exp(-logits.astype(np.float64)))
    mean_log_scale = params[:, layout.SCALE_SLICE].astype(np.float64).mean(axis=1)
    return opacity * np.exp(2.0 * mean_log_scale)


class LODSet:
    """Nested level-of-detail subsets of one model.

    ``drop_level[i]`` is the shallowest level at which splat ``i`` is
    dropped (``num_levels`` when it survives every level), so the level-
    ``lod`` subset is ``drop_level > lod`` — one int8-sized array answers
    membership for every level, and subsets are nested by construction.
    """

    def __init__(self, levels, drop_level: np.ndarray):
        self.levels = tuple(levels)
        if not self.levels:
            raise ValueError("need at least one LOD level")
        if self.levels[0].keep_fraction != 1.0:
            raise ValueError("level 0 must keep every splat (full detail)")
        fracs = [lvl.keep_fraction for lvl in self.levels]
        if any(b > a for a, b in zip(fracs, fracs[1:])):
            raise ValueError("keep fractions must be non-increasing")
        self.drop_level = np.asarray(drop_level, dtype=np.int16)

    @classmethod
    def build(cls, params: np.ndarray, levels=DEFAULT_LOD_LEVELS) -> "LODSet":
        """Rank splats by importance and cut the nested subsets.

        Deterministic: ties in importance break by splat index.
        """
        levels = tuple(levels)
        n = params.shape[0]
        importance = splat_importance(params)
        # position 0 = most important; stable sort makes ties index-ordered
        order = np.argsort(-importance, kind="stable")
        position = np.empty(n, dtype=np.int64)
        position[order] = np.arange(n)
        counts = [int(np.ceil(lvl.keep_fraction * n)) for lvl in levels]
        drop = np.full(n, len(levels), dtype=np.int16)
        for lod in range(len(levels) - 1, -1, -1):
            drop[position >= counts[lod]] = lod
        return cls(levels, drop)

    @property
    def num_levels(self) -> int:
        """How many levels (valid ``lod`` values are ``0..num_levels-1``)."""
        return len(self.levels)

    @property
    def num_rows(self) -> int:
        """Number of splats the set was built over."""
        return self.drop_level.shape[0]

    def sh_degree(self, lod: int) -> int:
        """SH degree of level ``lod``."""
        return self.levels[self._check(lod)].sh_degree

    def mask(self, lod: int) -> np.ndarray:
        """Boolean membership mask ``(N,)`` of level ``lod``."""
        return self.drop_level > self._check(lod)

    def subset_ids(self, lod: int) -> np.ndarray:
        """Sorted splat ids of level ``lod`` (nested across levels)."""
        return np.nonzero(self.mask(lod))[0]

    def filter_ids(self, ids: np.ndarray, lod: int) -> np.ndarray:
        """Restrict already-sorted ``ids`` (a frustum cull) to a level."""
        if self._check(lod) == 0:
            return ids  # full detail: the cull is the subset
        return ids[self.drop_level[ids] > lod]

    def _check(self, lod: int) -> int:
        if not 0 <= lod < self.num_levels:
            raise ValueError(
                f"lod {lod} out of range [0, {self.num_levels})"
            )
        return lod


def render_at_lod(
    model: GaussianModel,
    camera: Camera,
    lod_set: LODSet,
    lod: int,
    config: RasterConfig | None = None,
    background: np.ndarray | None = None,
) -> np.ndarray:
    """Render one view at one level (the serving path, minus the service).

    Delegates to :func:`~repro.serve.farm.render_frame` — the *same*
    function every :class:`~repro.serve.service.RenderService` frame
    runs — so quality measurement and serving cannot
    drift apart.
    """
    from .farm import FrameTask, render_frame
    from .store import InMemoryServingStore

    task = FrameTask(
        camera=camera,
        lod=lod,
        sh_degree=lod_set.sh_degree(lod),
        config=config,
        background=background,
    )
    store = InMemoryServingStore(model.params, copy=False)
    return render_frame(store, lod_set.drop_level, task)


def lod_quality_report(
    model: GaussianModel,
    cameras: list[Camera],
    lod_set: LODSet,
    config: RasterConfig | None = None,
    background: np.ndarray | None = None,
) -> list[dict]:
    """Measured PSNR delta of every level vs the full-detail render.

    Returns one entry per level: ``lod``, ``sh_degree``,
    ``keep_fraction``, ``num_splats`` (subset size), and
    ``psnr_vs_full`` averaged over ``cameras`` (``inf`` for level 0,
    which is the full-detail render itself).
    """
    full = [
        render_at_lod(model, cam, lod_set, 0, config, background)
        for cam in cameras
    ]
    report = []
    for lod, level in enumerate(lod_set.levels):
        scores = []
        for cam, reference in zip(cameras, full):
            image = (
                reference
                if lod == 0
                else render_at_lod(model, cam, lod_set, lod, config, background)
            )
            scores.append(psnr(image, reference))
        report.append({
            "lod": lod,
            "sh_degree": level.sh_degree,
            "keep_fraction": level.keep_fraction,
            "num_splats": int(lod_set.subset_ids(lod).size),
            "psnr_vs_full": float(np.mean(scores)),
        })
    return report
