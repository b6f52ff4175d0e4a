"""Adaptive density control (step 7 of Figure 2).

Every ``interval`` iterations, Gaussians whose accumulated screen-space
positional gradient is large are *cloned* (small ones, under-reconstructed
regions) or *split* (large ones, over-smoothed regions); nearly transparent
Gaussians are pruned. Densification stops after ``stop_iteration`` — the
paper scales scenes up and down for its experiments precisely by adjusting
these settings ("following the Grendel methodology", Section 5.1).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..gaussians import GaussianModel, quaternion

#: Prune Gaussians whose opacity falls below this.
OPACITY_PRUNE_THRESHOLD = 0.005
#: Factor by which a split child's scale shrinks (3DGS uses 1.6).
SPLIT_SCALE_SHRINK = 1.6


@dataclass
class DensifyConfig:
    """Densification schedule and thresholds.

    Attributes:
        interval: iterations between densification passes.
        start_iteration: first iteration at which densification may run.
        stop_iteration: densification ceases after this iteration.
        grad_threshold: mean screen-space gradient above which a Gaussian
            is densified (pixel units; 3DGS uses 2e-4 in NDC).
        percent_dense: world-size knee — Gaussians larger than
            ``percent_dense * scene_extent`` split, smaller ones clone.
        max_gaussians: hard cap on scene size (the paper's scale knob —
            lowering it emulates the "Small" scene variants).
        opacity_reset_interval: if set, every this many iterations all
            opacities are clamped down to ``opacity_reset_value`` (3DGS
            resets every 3000 iterations to combat floaters); ``None``
            disables resets.
        opacity_reset_value: the post-sigmoid opacity ceiling applied by a
            reset.
    """

    interval: int = 100
    start_iteration: int = 500
    stop_iteration: int = 15_000
    grad_threshold: float = 1e-4
    percent_dense: float = 0.01
    max_gaussians: int | None = None
    opacity_reset_interval: int | None = None
    opacity_reset_value: float = 0.01


@dataclass
class DensifyReport:
    """What one densification pass did."""

    iteration: int
    num_before: int
    num_cloned: int
    num_split: int
    num_pruned: int
    num_after: int


class DensificationController:
    """Accumulates gradient statistics and rewrites the model periodically.

    Usage: call :meth:`accumulate` after every backward pass with the
    visible ids and their screen-gradient magnitudes; call :meth:`run`
    on the iterations :meth:`should_run` names. It returns a new model,
    and the caller must rebuild anything sized by ``N`` (optimizer state,
    offload stores).
    """

    def __init__(self, config: DensifyConfig, num_gaussians: int, seed: int = 0):
        self.config = config
        self._grad_accum = np.zeros(num_gaussians)
        self._counts = np.zeros(num_gaussians, dtype=np.int64)
        self._rng = np.random.default_rng(seed)

    @property
    def num_tracked(self) -> int:
        """Gaussians currently tracked."""
        return self._grad_accum.shape[0]

    def accumulate(self, valid_ids: np.ndarray, mean2d_abs: np.ndarray) -> None:
        """Record one view's screen-space gradient magnitudes."""
        self._grad_accum[valid_ids] += mean2d_abs
        self._counts[valid_ids] += 1

    def _reset(self, num_gaussians: int) -> None:
        self._grad_accum = np.zeros(num_gaussians)
        self._counts = np.zeros(num_gaussians, dtype=np.int64)

    def should_run(self, iteration: int) -> bool:
        """Whether densification fires at ``iteration`` (1-based)."""
        cfg = self.config
        return (
            cfg.start_iteration <= iteration <= cfg.stop_iteration
            and iteration % cfg.interval == 0
        )

    def should_reset_opacity(self, iteration: int) -> bool:
        """Whether an opacity reset fires at ``iteration`` (1-based)."""
        interval = self.config.opacity_reset_interval
        return interval is not None and iteration % interval == 0

    def reset_opacity(self, model: GaussianModel) -> int:
        """Clamp all opacities down to the reset value, in place.

        Returns the number of Gaussians actually clamped. 3DGS performs
        this periodically so that stale high-opacity floaters must re-earn
        their opacity from gradients.
        """
        ceiling = self.config.opacity_reset_value
        logit = float(np.log(ceiling / (1.0 - ceiling)))
        logits = model.opacity_logits[:, 0]
        clamped = logits > logit
        logits[clamped] = logit
        return int(clamped.sum())

    def run(
        self, model: GaussianModel, iteration: int, scene_extent: float
    ) -> tuple[GaussianModel, DensifyReport]:
        """Unconditionally densify + prune ``model``."""
        cfg = self.config
        n = model.num_gaussians
        avg_grad = self._grad_accum / np.maximum(self._counts, 1)

        needs_densify = avg_grad > cfg.grad_threshold
        if cfg.max_gaussians is not None and n >= cfg.max_gaussians:
            needs_densify[:] = False

        max_scale = np.exp(model.log_scales).max(axis=1)
        is_large = max_scale > cfg.percent_dense * scene_extent
        clone_ids = np.nonzero(needs_densify & ~is_large)[0]
        split_ids = np.nonzero(needs_densify & is_large)[0]

        # respect the cap: each densified Gaussian adds one row
        if cfg.max_gaussians is not None:
            budget = max(cfg.max_gaussians - n, 0)
            if len(clone_ids) + len(split_ids) > budget:
                ranked = np.argsort(
                    -avg_grad[np.concatenate([clone_ids, split_ids])]
                )
                chosen = np.concatenate([clone_ids, split_ids])[ranked[:budget]]
                clone_ids = np.intersect1d(chosen, clone_ids)
                split_ids = np.intersect1d(chosen, split_ids)

        new_rows = []
        # clones: exact copies (gradient descent will separate them)
        if clone_ids.size:
            new_rows.append(model.params[clone_ids].copy())

        # splits: shrink the parent and add one child sampled from it
        if split_ids.size:
            children = model.params[split_ids].copy()
            scales = np.exp(model.log_scales[split_ids])
            unit = quaternion.normalize(model.quats[split_ids])
            rot = quaternion.to_rotation_matrix(unit)
            local = self._rng.normal(size=(split_ids.size, 3)) * scales
            offsets = np.einsum("nij,nj->ni", rot, local)
            children[:, 0:3] = model.means[split_ids] + offsets
            shrunk = np.log(scales / SPLIT_SCALE_SHRINK)
            children[:, 3:6] = shrunk
            model.log_scales[split_ids] = shrunk  # parent shrinks in place
            new_rows.append(children)

        params = model.params
        if new_rows:
            params = np.concatenate([params] + new_rows, axis=0)

        # prune low-opacity Gaussians (never the freshly added rows)
        opacities = 1.0 / (1.0 + np.exp(-params[:, 10]))
        keep = opacities >= OPACITY_PRUNE_THRESHOLD
        num_pruned = int((~keep).sum())
        params = params[keep]

        new_model = GaussianModel(np.ascontiguousarray(params))
        report = DensifyReport(
            iteration=iteration,
            num_before=n,
            num_cloned=int(clone_ids.size),
            num_split=int(split_ids.size),
            num_pruned=num_pruned,
            num_after=new_model.num_gaussians,
        )
        self._reset(new_model.num_gaussians)
        return new_model, report
