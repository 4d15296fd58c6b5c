"""Raw dilated-convolution kernels (numpy, im2col) and related helpers.

These are the plain-array forward/backward stencils; the autodiff layer in
tensor.py wraps them.  Layout is N x C x H x W throughout.  Zero padding of
width (k//2)*dilation preserves spatial size.
"""

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionError, ParameterError


@dataclass
class ConvParams:
    weights: np.ndarray  # (out_c, in_c, k, k)
    bias: np.ndarray  # (out_c,)
    dilation: int = 1

    def __post_init__(self):
        self.weights = np.asarray(self.weights)
        self.bias = np.asarray(self.bias)
        if self.weights.ndim != 4 or self.weights.shape[2] != self.weights.shape[3]:
            raise DimensionError(f"weights must be (O,I,k,k), got {self.weights.shape}")
        if self.weights.shape[2] not in (1, 3):
            raise ParameterError(f"kernel size must be 1 or 3, got {self.weights.shape[2]}")
        if self.bias.shape != (self.weights.shape[0],):
            raise DimensionError("bias length must equal out_channels")
        if self.dilation < 1:
            raise ParameterError(f"dilation must be >= 1, got {self.dilation}")


# BLAS computes a trailing partial block of matmul columns with another
# kernel, whose rounding differs from the full blocks'.  The forward pass pads
# its column count to whole blocks, so an output pixel's float32 value does not
# depend on the size of the image it sits in, and tiles match the whole image.
COL_BLOCK = 64


def _im2col(x, k, dilation, col_block=1):
    """N x (C*k*k) x (H*W) patch columns, zero-padded to a multiple of
    `col_block` columns."""
    n, c, h, w = x.shape
    pad = (k // 2) * dilation
    if pad:
        xp = np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad)))
    else:
        xp = x
    hw = h * w
    buf = np.empty((n, c * k * k, -(-hw // col_block) * col_block), dtype=x.dtype)
    buf[:, :, hw:] = 0
    cols = buf[:, :, :hw].reshape(n, c, k, k, h, w)
    for ky in range(k):
        for kx in range(k):
            cols[:, :, ky, kx] = xp[
                :, :, ky * dilation : ky * dilation + h, kx * dilation : kx * dilation + w
            ]
    return buf


def _col2im(gcols, xshape, k, dilation):
    n, c, h, w = xshape
    pad = (k // 2) * dilation
    gxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=gcols.dtype)
    g = gcols.reshape(n, c, k, k, h, w)
    for ky in range(k):
        for kx in range(k):
            gxp[:, :, ky * dilation : ky * dilation + h, kx * dilation : kx * dilation + w] += g[
                :, :, ky, kx
            ]
    if pad:
        return gxp[:, :, pad : pad + h, pad : pad + w]
    return gxp


def dilated_conv2d(x, params):
    """Same-size dilated convolution; out-of-range taps read zero."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"input must be N x C x H x W, got shape {x.shape}")
    o, ci, k, _ = params.weights.shape
    n, c, h, w = x.shape
    if c != ci:
        raise DimensionError(f"input has {c} channels, kernel expects {ci}")
    cols = _im2col(x, k, params.dilation, COL_BLOCK)
    wm = params.weights.reshape(o, -1)
    out = np.matmul(wm, cols)[:, :, : h * w] + params.bias.astype(x.dtype)[None, :, None]
    return out.reshape(n, o, h, w)


def dilated_conv2d_backward(x, params, grad_out):
    """Adjoints of dilated_conv2d: (grad_input, grad_weights, grad_bias)."""
    x = np.asarray(x)
    grad_out = np.asarray(grad_out)
    o, ci, k, _ = params.weights.shape
    n, c, h, w = x.shape
    if grad_out.shape != (n, o, h, w):
        raise DimensionError(
            f"grad_out shape {grad_out.shape} does not match output {(n, o, h, w)}"
        )
    go = grad_out.reshape(n, o, h * w)
    cols = _im2col(x, k, params.dilation)
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    grad_weights = np.matmul(go, cols.transpose(0, 2, 1)).sum(axis=0).reshape(params.weights.shape)
    wm = params.weights.reshape(o, -1)
    gcols = np.matmul(wm.T.astype(grad_out.dtype), go)
    grad_input = _col2im(gcols, x.shape, k, params.dilation)
    return grad_input, grad_weights, grad_bias


def receptive_field_extent(num_layers, dilation):
    """Impulse-response support of num_layers stacked 3x3 convs at one dilation."""
    if num_layers < 1 or dilation < 1:
        raise ParameterError("num_layers and dilation must be >= 1")
    return 1 + num_layers * 2 * dilation
