"""Nighttime single-image dehazing: glow removal, transmission estimation,
atmospheric-light estimation, and closed-form radiance recovery, with a
synthetic training-data pipeline and a minimal numpy autodiff engine."""

__version__ = "0.1.0"

from .atmospherics import (
    GlowField,
    GlowSource,
    compose_glow,
    compose_haze,
    estimate_atmospheric_light,
    recover_radiance,
    transmission_from_depth,
)
from .metrics import QualityReport, psnr, ssim
from .networks import DeGlowModel, DeHazeModel, LossConfig, load_model, save_model
from .pipeline import RunArtifacts, run_pipeline
from .synthesis import SynthesisConfig, build_dataset, synthesize_example
from .training import TrainSchedule, train_deglow, train_dehaze

__all__ = [
    "DeGlowModel",
    "DeHazeModel",
    "GlowField",
    "GlowSource",
    "LossConfig",
    "QualityReport",
    "RunArtifacts",
    "SynthesisConfig",
    "TrainSchedule",
    "build_dataset",
    "compose_glow",
    "compose_haze",
    "estimate_atmospheric_light",
    "load_model",
    "psnr",
    "recover_radiance",
    "run_pipeline",
    "save_model",
    "ssim",
    "synthesize_example",
    "train_deglow",
    "train_dehaze",
    "transmission_from_depth",
]
