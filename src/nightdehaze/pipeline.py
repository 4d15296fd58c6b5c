"""End-to-end inference: glow removal, transmission estimation, atmospheric
light, radiance recovery.  Each stage is timed; large images can be processed
in overlapping tiles whose halo covers the network receptive field, so tiled
and whole-image outputs agree in tile interiors.  DeGlow is tiled per
recurrence step, so its halo covers one step, not the whole unroll.  Each
conv of a tile shrinks by its radius on the tile's halo sides, so a
network's outputs may be smaller than the tile and its halo there: each
layer is computed only where a later layer reads it.
"""

import time
from dataclasses import dataclass

import numpy as np

from .atmospherics import DEFAULT_T_MIN, check_t_min, estimate_atmospheric_light, recover_radiance
from .engine import Tensor, no_grad
from .errors import DataError, DimensionError, ParameterError, check_fields, ranged
from .networks import WHOLE, deglow_unroll, dehaze_forward, halo_margins


@dataclass
class PipelineConfig:
    deglow_checkpoint: str = ""
    dehaze_checkpoint: str = ""
    t_min: float = ranged(DEFAULT_T_MIN, "(0, 1)")
    tile_size: int = ranged(0, "[0, inf)")  # 0 = no tiling
    __post_init__ = check_fields


@dataclass
class RunArtifacts:
    radiance: np.ndarray
    deglowed: np.ndarray
    transmission: np.ndarray
    light: np.ndarray
    timings: dict


def apply_tiled(fn, inputs, tile_size, halo):
    """Apply `fn(*patches, window=window)` to N,C,H,W arrays in overlapping
    tiles.

    `inputs` is a tuple of arrays sharing H and W; a None entry reaches every
    tile as None.  Each tile carries up to `halo` pixels of context on each
    side; `window` flags (top, bottom, left, right) the halo sides, which
    hold the whole `halo`, and any other side lies on the image border.
    `fn` returns a tuple of N,C',H',W' arrays, each stitched from the tile
    interiors at its own channel count and dtype.  An output may be smaller
    than its patch, by the same width on each halo side, and is placed by
    its own shape.  The stitched outputs equal `fn(*inputs, window=WHOLE)`
    when no output pixel reads farther than `halo`.  With `tile_size` 0, or
    an image within one tile, this is `fn(*inputs, window=WHOLE)` itself.
    """
    n, _, h, w = inputs[0].shape
    if _one_tile((h, w), tile_size):
        return fn(*inputs, window=WHOLE)
    outs = None
    for y0 in range(0, h, tile_size):
        for x0 in range(0, w, tile_size):
            y1, x1 = min(y0 + tile_size, h), min(x0 + tile_size, w)
            ya, xa = max(0, y0 - halo), max(0, x0 - halo)
            yb, xb = min(h, y1 + halo), min(w, x1 + halo)
            context = (y0 - ya, yb - y1, x0 - xa, xb - x1)
            window = tuple(bool(halo) and side == halo for side in context)
            patches = (None if x is None else x[:, :, ya:yb, xa:xb] for x in inputs)
            results = fn(*patches, window=window)
            if outs is None:
                outs = tuple(np.zeros((n, r.shape[1], h, w), dtype=r.dtype) for r in results)
            for out, r in zip(outs, results):
                top, _, left, _ = halo_margins(window, (yb - ya, xb - xa), r.shape[2:])
                ys, xs = y0 - ya - top, x0 - xa - left
                out[:, :, y0:y1, x0:x1] = r[:, :, ys : ys + y1 - y0, xs : xs + x1 - x0]
    return outs


def _one_tile(size, tile_size):
    """Whether an image of `size` (H, W) is processed whole at `tile_size`."""
    if tile_size < 0:
        raise ParameterError(f"tile_size must be >= 0, got {tile_size}")
    return not tile_size or (size[0] <= tile_size and size[1] <= tile_size)


def _tiled_step(model, tile_size):
    """`model.step` run tile by tile with a one-step halo.

    One step's outputs read at most `model.step_radius` pixels of its image
    and of the previous features, so each step is exact under that halo, and
    the unroll recomputes no halo for the steps before it.  The previous
    features are read by every tile, so the whole map is held until the
    last tile has run.
    """

    def tile_step(image, feats, window):
        return [t.data for t in model.step(image, None if feats is None else [feats], window)]

    def step(image, prev_features):
        feats = None if prev_features is None else prev_features.pop().data
        outputs = apply_tiled(tile_step, (image.data, feats), tile_size, model.step_radius)
        return [Tensor(a) for a in outputs]

    return step


def _check_stage_output(stage, values):
    # checked before clipping, which would turn an overflow into a valid 0 or
    # 1; min and max carry any NaN or infinity without an image-sized mask,
    # which raised the peak RSS of tiled inference by 0.7 MB
    if not (np.isfinite(values.min()) and np.isfinite(values.max())):
        raise DataError(f"{stage} stage output contains non-finite values")


def _nchw(image, dtype):
    """An H x W x 3 image as a contiguous 1 x 3 x H x W array of `dtype`."""
    return np.ascontiguousarray(image.transpose(2, 0, 1)[None], dtype=dtype)


# Each stage is a function of its own, so that its intermediates are freed
# when it returns.  An overflow surfaces as a non-finite stage output,
# checked before clipping, rather than as numpy warnings.


def _deglow(image, model, tile_size):
    """The restored H x W x 3 image, float64, clipped to [0, 1]."""
    step = None if _one_tile(image.shape[:2], tile_size) else _tiled_step(model, tile_size)
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        # the unroll holds the only reference to the NCHW copy: it is freed
        # once the first step has been subtracted from it
        restored = deglow_unroll(_nchw(image, np.float64), model, step=step)[0]
    _check_stage_output("deglow", restored.data)
    return np.clip(restored.data[0].transpose(1, 2, 0).astype(np.float64), 0.0, 1.0)


def _dehaze(deglowed, model, t_min, tile_size):
    """The transmission map, float64, floored at `t_min`."""
    # cast once to the dtype dehaze_forward computes at: the same values as
    # a cast of each tile
    nchw = _nchw(deglowed, model.dtype)
    with no_grad(), np.errstate(over="ignore", invalid="ignore"):
        (t_nchw,) = apply_tiled(
            lambda patch, window: (dehaze_forward(patch, model, window=window).data,),
            (nchw,),
            tile_size,
            model.receptive_radius(),
        )
    _check_stage_output("dehaze", t_nchw)
    return np.maximum(t_nchw[0, 0], t_min).astype(np.float64)


def run_pipeline(image, deglow_model, dehaze_model, t_min=DEFAULT_T_MIN, tile_size=0):
    """Dehaze one H x W x 3 image; returns all intermediates plus timings.

    Both networks run at their weights' dtype (float32 for a loaded
    checkpoint) and record no autodiff tape.  The image, the residual
    subtraction J_t = I_t - eps_t, atmospheric light and recovery stay
    float64, so an identity glow stage preserves the input bit-exactly.
    """
    check_t_min(t_min)
    image = np.asarray(image, dtype=np.float64)
    if image.ndim != 3 or image.shape[2] != 3:
        raise DimensionError(f"expected H x W x 3 image, got shape {image.shape}")
    if not np.all(np.isfinite(image)):
        raise DataError("image has non-finite values")
    timings = {}

    start = time.perf_counter()
    deglowed = _deglow(image, deglow_model, tile_size)
    timings["deglow"] = time.perf_counter() - start

    start = time.perf_counter()
    transmission = _dehaze(deglowed, dehaze_model, t_min, tile_size)
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
