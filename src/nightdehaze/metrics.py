"""Full-reference image quality metrics on [0, 1] float images.

PSNR uses peak 1.0.  SSIM follows the standard configuration: 11x11 Gaussian
window with sigma 1.5, K1=0.01, K2=0.03, dynamic range 1; it is computed per
RGB channel over all fully interior window positions and averaged.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionError

SSIM_WINDOW = 11
SSIM_SIGMA = 1.5
SSIM_K1 = 0.01
SSIM_K2 = 0.03


@dataclass
class QualityReport:
    psnr_db: float
    ssim: float
    entries: list  # (image id, psnr, ssim)


def _check_pair(a, b, min_size=1):
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise DimensionError(f"image shapes differ: {a.shape} vs {b.shape}")
    if a.shape[0] < min_size or a.shape[1] < min_size:
        raise DimensionError(f"images must be at least {min_size}x{min_size}")
    return a, b


def psnr(a, b):
    """10*log10(1/MSE) in dB; math.inf for identical images."""
    a, b = _check_pair(a, b)
    mse_val = float(np.mean((a - b) ** 2))
    if mse_val == 0.0:
        return math.inf
    return 10.0 * math.log10(1.0 / mse_val)


def _gaussian_window(size=SSIM_WINDOW, sigma=SSIM_SIGMA):
    half = (size - 1) / 2.0
    x = np.arange(size) - half
    w = np.exp(-(x**2) / (2.0 * sigma**2))
    return w / w.sum()


def _filter_valid(img, window):
    """Separable 'valid' correlation of a 2-D image with a 1-D window."""
    k = window.size
    h, w = img.shape
    out_h, out_w = h - k + 1, w - k + 1
    tmp = np.zeros((out_h, w))
    for i in range(k):
        tmp += window[i] * img[i : i + out_h, :]
    out = np.zeros((out_h, out_w))
    for j in range(k):
        out += window[j] * tmp[:, j : j + out_w]
    return out


def _ssim_channel(a, b, window):
    c1 = SSIM_K1**2
    c2 = SSIM_K2**2
    mu_a = _filter_valid(a, window)
    mu_b = _filter_valid(b, window)
    var_a = _filter_valid(a * a, window) - mu_a**2
    var_b = _filter_valid(b * b, window) - mu_b**2
    cov = _filter_valid(a * b, window) - mu_a * mu_b
    num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
    den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
    return num / den


def ssim(a, b):
    """Mean local SSIM index; per-channel maps averaged together."""
    a, b = _check_pair(a, b, min_size=SSIM_WINDOW)
    window = _gaussian_window()
    if a.ndim == 2:
        return float(_ssim_channel(a, b, window).mean())
    maps = [_ssim_channel(a[:, :, c], b[:, :, c], window) for c in range(a.shape[2])]
    return float(np.mean(maps))


def evaluate_pairs(pairs):
    """Score a list of (image id, prediction, truth); returns a QualityReport
    with per-image entries and arithmetic-mean summary values."""
    entries = []
    for image_id, pred, truth in pairs:
        entries.append((image_id, psnr(pred, truth), ssim(pred, truth)))
    if not entries:
        raise DimensionError("no image pairs to evaluate")
    finite = [p for _, p, _ in entries if math.isfinite(p)]
    mean_psnr = float(np.mean(finite)) if finite else math.inf
    mean_ssim = float(np.mean([s for _, _, s in entries]))
    return QualityReport(psnr_db=mean_psnr, ssim=mean_ssim, entries=entries)


def format_report(report):
    """Flat text table: one `id psnr ssim` row per image plus a mean row."""
    lines = ["id psnr_db ssim"]
    for image_id, p, s in report.entries:
        p_str = "inf" if math.isinf(p) else f"{p:.4f}"
        lines.append(f"{image_id} {p_str} {s:.6f}")
    p_str = "inf" if math.isinf(report.psnr_db) else f"{report.psnr_db:.4f}"
    lines.append(f"mean {p_str} {report.ssim:.6f}")
    return "\n".join(lines) + "\n"
