import ctypes
import glob
import os

import numpy as np
from numpy.lib.stride_tricks import as_strided
import pytest

from nightdehaze.engine.kernels import COL_BLOCK
from nightdehaze.metrics import SSIM_K1, SSIM_K2, SSIM_WINDOW, _check_pair, _gaussian_window
from nightdehaze.synthesis import (
    SynthesisConfig,
    procedural_scene,
    sample_glow_sources,
    sample_scene_params,
    synthesize_example,
)
from nightdehaze.training import sample_from_layers


def _huge_page_mode():
    # numpy asks for transparent huge pages for arrays of 4 MiB and more, so
    # the RSS of the same run depends on this mode
    try:
        with open("/sys/kernel/mm/transparent_hugepage/enabled") as f:
            modes = f.read().split()
    except OSError:
        return "unknown"
    return next((m[1:-1] for m in modes if m.startswith("[")), "unknown")


def _openblas_library():
    """The path of numpy's bundled OpenBLAS, or None."""
    libs_dir = os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs")
    libs = glob.glob(os.path.join(libs_dir, "libscipy_openblas64_*.so"))
    return libs[0] if libs else None


def blas_core():
    """The core numpy's bundled OpenBLAS chose at run time, e.g. "SkylakeX",
    or "unknown": the byte-exact conv tests hold on some GEMM kernels only."""
    path = _openblas_library()
    if path is None:
        return "unknown"
    try:
        corename = ctypes.CDLL(path).scipy_openblas_get_corename64_
    except (OSError, AttributeError):
        return "unknown"
    corename.argtypes = []
    corename.restype = ctypes.c_char_p
    return corename().decode()


# the core that perfbench/references and the pinned digests were made on
REFERENCE_CORE = "SkylakeX"
REFERENCE_CORE_REASON = f"byte references made on the OpenBLAS {REFERENCE_CORE} core"


def pytest_report_header(config):
    """numpy, its bundled OpenBLAS and the core it chose at run time; and the
    transparent huge page mode, on which peak RSS depends."""
    blas = os.path.basename(_openblas_library() or "unknown")
    return (
        f"numpy {np.__version__}, OpenBLAS {blas}, core {blas_core()}, "
        f"transparent huge pages {_huge_page_mode()}"
    )


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def small_config(size=32, **overrides):
    defaults = dict(
        target_size=(size, size),
        glow_radius_range=(3.0, 10.0),
        sources_per_image_range=(1, 2),
    )
    defaults.update(overrides)
    return SynthesisConfig(**defaults)


def make_scene(seed, size=32, config=None):
    """One synthetic tuple (observed, haze, t, glow, clean, depth) at desk scale."""
    config = config or small_config(size)
    r = np.random.default_rng((seed, 0))
    height, width = config.target_size[1], config.target_size[0]
    clean, depth = procedural_scene(r, (height, width))
    beta, q, light = sample_scene_params(r, config)
    sources = sample_glow_sources(r, (height, width), q, config)
    observed, haze, t, glow = synthesize_example(clean, depth, beta, q, light, sources, config)
    return observed, haze, t, glow, clean, light


def make_training_sample(seed, size=32, config=None):
    observed, haze, t, glow, _, _ = make_scene(seed, size, config)
    return sample_from_layers(
        observed=observed,
        haze=haze,
        transmission=t,
        streak=glow.streak_sum(),
        glow=glow.mask,
    )


def ssim_reference(a, b):
    """Direct per-window SSIM, no separable-filter shortcut (test oracle)."""
    a, b = _check_pair(a, b, min_size=SSIM_WINDOW)
    w1 = _gaussian_window()
    w2 = np.outer(w1, w1)
    c1, c2 = SSIM_K1**2, SSIM_K2**2
    if a.ndim == 2:
        a = a[:, :, None]
        b = b[:, :, None]
    k = SSIM_WINDOW
    h, w, channels = a.shape
    vals = []
    for c in range(channels):
        for y in range(h - k + 1):
            for x in range(w - k + 1):
                pa = a[y : y + k, x : x + k, c]
                pb = b[y : y + k, x : x + k, c]
                mu_a = (w2 * pa).sum()
                mu_b = (w2 * pb).sum()
                var_a = (w2 * pa * pa).sum() - mu_a**2
                var_b = (w2 * pb * pb).sum() - mu_b**2
                cov = (w2 * pa * pb).sum() - mu_a * mu_b
                num = (2 * mu_a * mu_b + c1) * (2 * cov + c2)
                den = (mu_a**2 + mu_b**2 + c1) * (var_a + var_b + c2)
                vals.append(num / den)
    return float(np.mean(vals))


def conv_reference(x, params):
    """Unbanded im2col convolution: one patch matrix for the whole image,
    padded to COL_BLOCK columns, and one matmul (test oracle)."""
    o, c, k, _ = params.weights.shape
    n, _, h, w = x.shape
    d = params.dilation
    pad = (k // 2) * d
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    hw = h * w
    cols = np.zeros((n, c * k * k, -(-hw // COL_BLOCK) * COL_BLOCK), dtype=x.dtype)
    taps = cols[:, :, :hw].reshape(n, c, k, k, h, w)
    for ky in range(k):
        for kx in range(k):
            taps[:, :, ky, kx] = xp[:, :, ky * d : ky * d + h, kx * d : kx * d + w]
    out = np.matmul(params.weights.reshape(o, -1), cols)[:, :, :hw]
    return (out + params.bias.astype(x.dtype)[None, :, None]).reshape(n, o, h, w)


def conv_backward_reference(x, params, grad_out):
    """Whole-batch adjoints of the dilated convolution (test oracle): one
    patch matrix for all N images, a batched grad-weights matmul summed over
    the batch axis, and a region-wise col2im over the batch."""
    o, c, k, _ = params.weights.shape
    n, _, h, w = x.shape
    d = params.dilation
    pad = (k // 2) * d
    go = grad_out.reshape(n, o, h * w)
    xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    cols = np.empty((n, c * k * k, h * w), dtype=x.dtype)
    sn, sc, sy, sx = xp.strides
    taps = as_strided(xp, (n, c, k, k, h, w), (sn, sc, sy * d, sx * d, sy, sx))
    cols.reshape(n, c, k, k, h, w)[...] = taps
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    grad_weights = np.matmul(go, cols.transpose(0, 2, 1)).sum(axis=0).reshape(params.weights.shape)
    gcols = np.matmul(params.weights.reshape(o, -1).T.astype(grad_out.dtype), go)
    gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=gcols.dtype)
    g = gcols.reshape(n, c, k, k, h, w)
    for ky in range(k):
        for kx in range(k):
            gxp[:, :, ky * d : ky * d + h, kx * d : kx * d + w] += g[:, :, ky, kx]
    return gxp[:, :, pad : pad + h, pad : pad + w], grad_weights, grad_bias
