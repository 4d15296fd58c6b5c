"""Nighttime scattering forward model and its closed-form inversion.

Images are H x W x 3 float arrays in [0, 1]; depth and transmission maps are
H x W floats.  The observed image is the haze blend of scene reflection and
airlight plus masked additive glow streaks from active light sources.
All functions are pure and deterministic.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import DataError, DimensionError, ParameterError

DEFAULT_T_MIN = 0.05


@dataclass(frozen=True)
class GlowSource:
    """One active light source: pixel position, peak RGB color, falloff radius."""

    position: tuple  # (row, col)
    peak_color: tuple  # (r, g, b) in [0,1]
    radius: float = 1.0


@dataclass
class GlowField:
    """Per-source streak layers plus the binary glow-region mask."""

    streaks: list = field(default_factory=list)  # each H x W x 3, >= 0
    mask: np.ndarray = None  # H x W in {0, 1}

    @property
    def source_count(self):
        return len(self.streaks)

    def streak_sum(self):
        if not self.streaks:
            if self.mask is None:
                raise DimensionError("empty GlowField has no spatial size")
            return np.zeros(self.mask.shape + (3,))
        return np.sum(self.streaks, axis=0)


def _check_image(img, name="image"):
    img = np.asarray(img, dtype=np.float64)
    if img.ndim != 3 or img.shape[2] != 3:
        raise DimensionError(f"{name} must be H x W x 3, got shape {img.shape}")
    if img.shape[0] < 1 or img.shape[1] < 1:
        raise DimensionError(f"{name} must have at least one pixel")
    return img


def _check_map(m, name="map"):
    m = np.asarray(m, dtype=np.float64)
    if m.ndim != 2:
        raise DimensionError(f"{name} must be H x W, got shape {m.shape}")
    return m


def transmission_from_depth(depth, beta):
    """t(x) = exp(-beta * d(x)) for normalized depth d in [0, 1]."""
    if not beta > 0:
        raise ParameterError(f"beta must be > 0, got {beta}")
    depth = _check_map(depth, "depth")
    if not np.all(np.isfinite(depth)):
        raise DataError("depth contains non-finite values")
    return np.exp(-beta * depth)


def compose_haze(reflection, t, light):
    """Haze blend J = R * t + L * (1 - t)."""
    reflection = _check_image(reflection, "reflection")
    t = _check_map(t, "t")
    if reflection.shape[:2] != t.shape:
        raise DimensionError(
            f"reflection {reflection.shape[:2]} and t {t.shape} differ in size"
        )
    light = np.asarray(light, dtype=np.float64).reshape(3)
    return reflection * t[:, :, None] + light[None, None, :] * (1.0 - t)[:, :, None]


def compose_glow(haze, glow):
    """Observed image I = J + mask * sum_k streak_k, clamped to [0, 1]."""
    haze = _check_image(haze, "haze")
    if glow.source_count == 0 and glow.mask is None:
        return haze.copy()
    mask = _check_map(glow.mask, "glow mask")
    if mask.shape != haze.shape[:2]:
        raise DimensionError(f"glow mask {mask.shape} does not match haze {haze.shape[:2]}")
    if glow.source_count == 0:
        return haze.copy()
    total = glow.streak_sum()
    if total.shape[:2] != haze.shape[:2]:
        raise DimensionError(
            f"glow streaks {total.shape[:2]} do not match haze {haze.shape[:2]}"
        )
    return np.clip(haze + mask[:, :, None] * total, 0.0, 1.0)


def estimate_atmospheric_light(t, haze):
    """Pick the darkest 0.1% of t, return the brightest haze pixel among them.

    Candidate count is max(1, floor(0.001 * pixels)).  Brightness is the mean
    of the three channels; ties resolve to the lowest linear pixel index.
    """
    t = _check_map(t, "t")
    haze = _check_image(haze, "haze")
    if t.shape != haze.shape[:2]:
        raise DimensionError(f"t {t.shape} does not match haze {haze.shape[:2]}")
    n_pixels = t.size
    if n_pixels == 0:
        raise DimensionError("empty image")
    for name, values in (("t", t), ("haze", haze)):
        if not np.all(np.isfinite(values)):
            raise DataError(f"{name} contains non-finite values")
    k = max(1, int(np.floor(0.001 * n_pixels)))
    order = np.argsort(t.reshape(-1), kind="stable")
    candidates = order[:k]
    flat = haze.reshape(-1, 3)
    intensity = flat[candidates].mean(axis=1)
    best = intensity.max()
    chosen = candidates[intensity == best].min()
    return flat[chosen].copy()


def check_t_min(t_min):
    """Raise ParameterError unless the transmission floor lies inside (0, 1);
    NaN is outside."""
    if not 0 < t_min < 1:
        raise ParameterError(f"t_min must be in (0, 1), got {t_min}")


def recover_radiance(haze, t, light, t_min=DEFAULT_T_MIN):
    """Invert the haze blend: R = (J - L * (1 - t')) / t' with t' = max(t, t_min)."""
    check_t_min(t_min)
    haze = _check_image(haze, "haze")
    t = _check_map(t, "t")
    if haze.shape[:2] != t.shape:
        raise DimensionError(f"haze {haze.shape[:2]} and t {t.shape} differ in size")
    light = np.asarray(light, dtype=np.float64)
    if light.size != 3:
        raise DimensionError(f"light must have 3 values, got shape {light.shape}")
    light = light.reshape(3)
    for name, values in (("haze", haze), ("t", t), ("light", light)):
        if not np.all(np.isfinite(values)):
            raise DataError(f"{name} contains non-finite values")
    tf = np.maximum(t, t_min)[:, :, None]
    out = (haze - light[None, None, :] * (1.0 - tf)) / tf
    return np.clip(out, 0.0, 1.0)
