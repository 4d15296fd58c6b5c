"""Raw dilated-convolution kernels (numpy, im2col) and related helpers.

These are the plain-array forward/backward stencils; the autodiff layer in
tensor.py wraps them.  Layout is N x C x H x W throughout.  Zero padding of
width (k//2)*dilation preserves spatial size.

The forward pass lowers its input to patch columns one band of output rows
at a time, so the patch matrix it multiplies stays in cache instead of
growing to 9*C*H*W values; a band's pixels go through the same matmul
kernels in the same K order as a whole image's, so the output bytes do not
depend on the band height.  The backward pass lowers the whole image at once.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

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
# each band's column count to whole blocks, so an output pixel's float32 value
# depends neither on the size of the image it sits in nor on the band it falls
# in, and tiles match the whole image.
COL_BLOCK = 64

# The forward pass's patch matrix per band, in bytes, for all N images of a
# batch.  It is sized in bytes, not rows, because what must stay in cache is
# the matrix that the copy writes and the matmul then reads back: 1 MiB holds
# 5 rows of a 16-channel 3x3 conv at width 320.  Every column is the same dot
# product in the same K order whatever the band height, so the output bytes
# do not depend on this value.
BAND_BYTES = 1 << 20


def _pad(x, pad):
    """`x` inside a zeroed border `pad` pixels wide."""
    if not pad:
        return x
    n, c, h, w = x.shape
    xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=x.dtype)
    xp[:, :, pad : pad + h, pad : pad + w] = x
    return xp


def _im2col(xp, k, dilation, col_block=1):
    """N x (C*k*k) x (H*W) patch columns of a zero-padded input `xp`, which
    is (k-1)*dilation pixels taller and wider than the H x W output,
    zero-padded to a multiple of `col_block` columns."""
    n, c, hp, wp = xp.shape
    h, w = hp - (k - 1) * dilation, wp - (k - 1) * dilation
    hw = h * w
    buf = np.empty((n, c * k * k, -(-hw // col_block) * col_block), dtype=xp.dtype)
    buf[:, :, hw:] = 0
    # tap (ky, kx) of output (y, x) is xp[..., y + ky*dilation, x + kx*dilation]:
    # one strided view of all k*k taps, copied in a single assignment
    sn, sc, sy, sx = xp.strides
    taps = as_strided(xp, (n, c, k, k, h, w), (sn, sc, sy * dilation, sx * dilation, sy, sx))
    buf[:, :, :hw].reshape(n, c, k, k, h, w)[...] = taps
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
    span = (k - 1) * params.dilation
    xp = _pad(x, span // 2)
    wm = params.weights.reshape(o, -1)
    bias = params.bias.astype(x.dtype)[None, :, None, None]
    out = np.empty((n, o, h, w), dtype=np.result_type(wm, x))
    rows = max(1, BAND_BYTES // max(1, n * c * k * k * x.dtype.itemsize * w))
    for y in range(0, h, rows):
        band = min(rows, h - y)
        cols = _im2col(xp[:, :, y : y + band + span], k, params.dilation, COL_BLOCK)
        prod = np.matmul(wm, cols)[:, :, : band * w].reshape(n, o, band, w)
        np.add(prod, bias, out=out[:, :, y : y + band])
        # freed before the next band's are made, so the heap hands the same
        # blocks back instead of growing: without this a fresh process's
        # first tiled 320x240 image took 101k page faults, against 34k with
        # it and 13k with one whole-image patch matrix
        del cols, prod
    return out


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
    pad = (k // 2) * params.dilation
    # np.pad, not _pad: with _pad's zeroed buffer here the peak RSS of the
    # benchmark's training pass measured 19 MB (4%) higher
    cols = _im2col(np.pad(x, ((0, 0), (0, 0), (pad, pad), (pad, pad))), k, params.dilation)
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
