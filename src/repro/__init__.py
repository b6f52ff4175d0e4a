"""GS-Scale reproduction: large-scale 3DGS training via host offloading.

Public API re-exports the pieces a downstream user needs: the Gaussian
model, the differentiable renderer, the optimizers (including the paper's
deferred optimizer update), the GS-Scale trainer and its system variants,
and the performance simulator used to regenerate the paper's figures.
"""

from . import bench, cameras, core, datasets, densify, faults, gaussians, io
from . import metrics, optim, recon, render, serve, sim, telemetry, train
from .cameras import Camera
from .core import (
    GSScaleConfig,
    ParameterStore,
    ShardedGSScaleSystem,
    Trainer,
    create_system,
)
from .core.checkpoint import load_checkpoint, resume_model, save_checkpoint
from .datasets import SceneSpec, SyntheticSceneConfig, build_scene, get_scene
from .densify import DensifyConfig
from .gaussians import GaussianModel
from .metrics import perceptual_distance, psnr, ssim
from .optim import AdamConfig, DeferredAdam, DenseAdam
from .datasets.colmap import load_colmap, write_colmap
from .render import frustum_cull, render, render_backward
from .sim import PLATFORMS, get_platform, simulate_epoch

__all__ = [
    "AdamConfig",
    "Camera",
    "DeferredAdam",
    "DenseAdam",
    "DensifyConfig",
    "GSScaleConfig",
    "GaussianModel",
    "PLATFORMS",
    "ParameterStore",
    "SceneSpec",
    "ShardedGSScaleSystem",
    "SyntheticSceneConfig",
    "Trainer",
    "bench",
    "build_scene",
    "cameras",
    "core",
    "create_system",
    "datasets",
    "densify",
    "faults",
    "frustum_cull",
    "load_checkpoint",
    "load_colmap",
    "resume_model",
    "save_checkpoint",
    "write_colmap",
    "gaussians",
    "io",
    "get_platform",
    "get_scene",
    "metrics",
    "optim",
    "perceptual_distance",
    "psnr",
    "recon",
    "render",
    "render_backward",
    "serve",
    "simulate_epoch",
    "sim",
    "ssim",
    "telemetry",
    "train",
]

__version__ = "1.0.0"
