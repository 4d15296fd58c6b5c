"""End-to-end inference: glow removal, transmission estimation, atmospheric
light, radiance recovery.  Each stage is timed; large images can be processed
in overlapping tiles whose halo covers the network receptive field, so tiled
and whole-image outputs agree in tile interiors.
"""

import time
from dataclasses import dataclass, field

import numpy as np

from .atmospherics import DEFAULT_T_MIN, estimate_atmospheric_light, recover_radiance
from .engine import no_grad
from .errors import DataError, DimensionError, ParameterError
from .networks import deglow_unroll, dehaze_forward

STAGES = ("deglow", "dehaze", "atmospheric_light", "recover")


@dataclass
class PipelineConfig:
    deglow_checkpoint: str = ""
    dehaze_checkpoint: str = ""
    t_min: float = DEFAULT_T_MIN
    tile_size: int = 0  # 0 = no tiling

    def __post_init__(self):
        if self.tile_size < 0:
            raise ParameterError(f"tile_size must be >= 0, got {self.tile_size}")


@dataclass
class RunArtifacts:
    radiance: np.ndarray
    deglowed: np.ndarray
    transmission: np.ndarray
    light: np.ndarray
    timings: dict = field(default_factory=dict)


def apply_tiled(fn, x, tile_size, halo):
    """Apply an N,C,H,W -> N,C',H,W network in overlapping tiles."""
    if tile_size < 0:
        raise ParameterError(f"tile_size must be >= 0, got {tile_size}")
    n, _, h, w = x.shape
    if not tile_size or (h <= tile_size and w <= tile_size):
        return fn(x)
    out = None
    for y0 in range(0, h, tile_size):
        for x0 in range(0, w, tile_size):
            y1, x1 = min(y0 + tile_size, h), min(x0 + tile_size, w)
            ya, xa = max(0, y0 - halo), max(0, x0 - halo)
            yb, xb = min(h, y1 + halo), min(w, x1 + halo)
            res = fn(x[:, :, ya:yb, xa:xb])
            if out is None:
                out = np.zeros((n, res.shape[1], h, w), dtype=res.dtype)
            out[:, :, y0:y1, x0:x1] = res[
                :, :, y0 - ya : y0 - ya + (y1 - y0), x0 - xa : x0 - xa + (x1 - x0)
            ]
    return out


def run_pipeline(image, deglow_model, dehaze_model, t_min=DEFAULT_T_MIN, tile_size=0):
    """Dehaze one H x W x 3 image; returns all intermediates plus timings.

    Both networks run at their weights' dtype (float32 for a loaded
    checkpoint) and record no autodiff tape.  The image, the residual
    subtraction J_t = I_t - eps_t, atmospheric light and recovery stay
    float64, so an identity glow stage preserves the input bit-exactly.
    """
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise DimensionError(f"expected H x W x 3 image, got shape {image.shape}")
    if not np.all(np.isfinite(image)):
        raise DataError("image has non-finite values")
    nchw = np.ascontiguousarray(image.transpose(2, 0, 1)[None])
    timings = {}

    start = time.perf_counter()
    with no_grad():
        deglowed_nchw = apply_tiled(
            lambda patch: deglow_unroll(patch, deglow_model)[0].data,
            nchw,
            tile_size,
            deglow_model.receptive_radius(),
        )
    deglowed = np.clip(deglowed_nchw[0].transpose(1, 2, 0).astype(np.float64), 0.0, 1.0)
    timings["deglow"] = time.perf_counter() - start

    start = time.perf_counter()
    deglowed_input = np.ascontiguousarray(deglowed.transpose(2, 0, 1)[None])
    with no_grad():
        t_nchw = apply_tiled(
            lambda patch: dehaze_forward(patch, dehaze_model).data,
            deglowed_input,
            tile_size,
            dehaze_model.receptive_radius(),
        )
    transmission = np.maximum(t_nchw[0, 0], t_min).astype(np.float64)
    timings["dehaze"] = time.perf_counter() - start

    start = time.perf_counter()
    light = estimate_atmospheric_light(transmission, deglowed)
    timings["atmospheric_light"] = time.perf_counter() - start

    start = time.perf_counter()
    radiance = recover_radiance(deglowed, transmission, light, t_min)
    timings["recover"] = time.perf_counter() - start

    return RunArtifacts(
        radiance=radiance,
        deglowed=deglowed,
        transmission=transmission,
        light=light,
        timings=timings,
    )
