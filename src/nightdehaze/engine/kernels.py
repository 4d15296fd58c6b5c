"""Raw dilated-convolution kernels (numpy, im2col) and related helpers.

These are the plain-array forward/backward stencils; the autodiff layer in
tensor.py wraps them.  Layout is N x C x H x W throughout.  Zero padding of
width r = (k//2)*dilation on every side preserves spatial size; a side padded
by less is a valid convolution there, and the output shrinks by the
difference on that side.

The forward pass lowers its input to patch columns one band of output rows
at a time, so the patch matrix it multiplies stays in cache instead of
growing to 9*C*H*W values; a band's pixels go through the same matmul
kernels in the same K order as a whole image's, so the output bytes do not
depend on the band height.  Each band is finished while it is in cache: the
bias is added to its product in place and, for a conv that carries the ReLU
after it (`relu=True`), the product is rectified there too, before one copy
into the output; the autodiff wrapper then records the ReLU's sign mask, not
the pre-activation.  The columns and product buffers are made once per conv
and reused by every band.  A padded conv never makes a padded copy of its
whole input: each band's padded rows are copied into one slab per conv,
whose border columns stay zero, and a conv padded on no side reads its
input's rows in place.  The backward pass works one image at a time, each
copied into one padded slab per conv in the same way: grad-weights from its
patch columns, and grad-input from columns laid on the padded-width grid,
which scatter back as one contiguous slice add per tap.  Both give the same
bytes as lowering the whole batch at once.
"""

import math
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


def _geometry(x, params, pads):
    """(pads, output height, output width) of a conv of `x` padded by
    `pads`; `pads` None pads the radius on every side."""
    span = (params.weights.shape[2] - 1) * params.dilation
    pads = (span // 2,) * 4 if pads is None else pads
    top, bottom, left, right = pads
    h, w = x.shape[2] + top + bottom - span, x.shape[3] + left + right - span
    if h < 0 or w < 0:
        raise DimensionError(f"input {x.shape[2:]} padded by {pads} is narrower than the kernel")
    return pads, h, w


def _pad_rows(x, slab, top, left, y, rows):
    """Rows y .. y+rows of `x` zero-padded by `top` rows and `left` columns,
    written into the leading `rows` rows of the zero-initialised `slab`, for
    y increasing from 0 across calls: a view of them.  Image pixels are
    written there and the rows below the image re-zeroed; the border
    columns, and the rows above the image, which no earlier band wrote,
    keep the slab's initial zeros."""
    lo = min(max(top - y, 0), rows)
    hi = min(max(top - y + x.shape[2], lo), rows)
    band = slab[:, :, :rows]
    band[:, :, hi:] = 0
    band[:, :, lo:hi, left : left + x.shape[3]] = x[:, :, y - top + lo : y - top + hi]
    return band


def _im2col(xp, k, dilation, col_block, out):
    """N x (C*k*k) x (H*W) patch columns of a zero-padded input `xp`, which
    is (k-1)*dilation pixels taller and wider than the H x W output,
    zero-padded to a multiple of `col_block` columns: a view of the leading
    values of the flat array `out`, which they are written into."""
    n, c, hp, wp = xp.shape
    h, w = hp - (k - 1) * dilation, wp - (k - 1) * dilation
    hw = h * w
    shape = (n, c * k * k, -(-hw // col_block) * col_block)
    buf = out[: math.prod(shape)].reshape(shape)
    buf[:, :, hw:] = 0
    # tap (ky, kx) of output (y, x) is xp[..., y + ky*dilation, x + kx*dilation]:
    # one strided view of all k*k taps, copied in a single assignment
    sn, sc, sy, sx = xp.strides
    taps = as_strided(xp, (n, c, k, k, h, w), (sn, sc, sy * dilation, sx * dilation, sy, sx))
    buf[:, :, :hw].reshape(n, c, k, k, h, w)[...] = taps
    return buf


def _col2im(gcols, padded_shape, k, dilation):
    """Adjoint of _im2col for one C x Hp x Wp padded image.

    `gcols` is (C*k*k) x L columns on the padded-width grid: the column of
    output (y, x) is y*Wp + x, and L >= h*Wp for the h = Hp - (k-1)*dilation
    output rows.  Tap (ky, kx) then adds to one contiguous slice of the
    flattened padded gradient, shifted by ky*dilation rows and kx*dilation
    columns.  The grid's junk columns (x >= Wp - (k-1)*dilation) wrap into
    the border or the next row, so they must hold zeros: an exact +-0 added
    to an accumulator that started at +0.0 leaves it unchanged."""
    c, hp, wp = padded_shape
    span2 = (k - 1) * dilation
    span = (hp - span2) * wp
    # the last tap's slice ends span2 past the padded image
    flat = np.zeros((c, hp * wp + span2), dtype=gcols.dtype)
    g = gcols.reshape(c, k * k, -1)
    for ky in range(k):
        for kx in range(k):
            off = ky * dilation * wp + kx * dilation
            flat[:, off : off + span] += g[:, ky * k + kx, :span]
    return flat[:, : hp * wp].reshape(c, hp, wp)


def rectify(x, out):
    """ReLU of `x` written into `out`: the values of np.where(x > 0, x, 0)
    for every input, -0.0, NaN and -inf included, without its mask.  fmax
    maps NaN to 0 but may keep a -0.0; adding +0.0 turns that into +0.0."""
    np.fmax(x, 0, out=out)
    out += 0
    return out


def dilated_conv2d(x, params, pads=None, relu=False):
    """Dilated convolution of `x` zero-padded by `pads` = (top, bottom,
    left, right), by default the radius on every side: a same-size
    convolution whose out-of-range taps read zero.  A side padded by less
    than the radius shrinks the output by the difference there, so every
    tap of its pixels lies in the padded input.  With `relu` the output is
    rectified (see `rectify`), band by band."""
    x = np.asarray(x)
    if x.ndim != 4:
        raise DimensionError(f"input must be N x C x H x W, got shape {x.shape}")
    o, ci, k, _ = params.weights.shape
    n, c = x.shape[:2]
    if c != ci:
        raise DimensionError(f"input has {c} channels, kernel expects {ci}")
    span = (k - 1) * params.dilation
    pads, h, w = _geometry(x, params, pads)
    top, _, left, right = pads
    wm = params.weights.reshape(o, -1)
    out = np.empty((n, o, h, w), dtype=np.result_type(wm, x))
    rows = max(1, min(h, BAND_BYTES // max(1, n * c * k * k * x.dtype.itemsize * w)))
    width = -(-rows * w // COL_BLOCK) * COL_BLOCK
    # one pair of buffers for every band, each band viewing their leading
    # values.  The bias goes into the contiguous product as a column, not
    # into the strided output band: an (O, width) block of it was no faster
    # per conv and raised tiled inference's peak RSS by 0.5-1 MB.
    cols = np.empty(n * c * k * k * width, dtype=x.dtype)
    prod = np.empty(n * o * width, dtype=out.dtype)
    bias = params.bias.astype(x.dtype)[:, None]
    slab = np.zeros((n, c, rows + span, x.shape[3] + left + right), x.dtype) if any(pads) else None
    for y in range(0, h, rows):
        band = min(rows, h - y)
        if slab is None:
            xp = x[:, :, y : y + band + span]
        else:
            xp = _pad_rows(x, slab, top, left, y, band + span)
        cols_y = _im2col(xp, k, params.dilation, COL_BLOCK, cols)
        width_y = cols_y.shape[2]
        prod_y = np.matmul(wm, cols_y, out=prod[: n * o * width_y].reshape(n, o, width_y))
        prod_y += bias
        if relu:
            rectify(prod_y, prod_y)
        out[:, :, y : y + band] = prod_y[:, :, : band * w].reshape(n, o, band, w)
    return out


def dilated_conv2d_backward(x, params, grad_out, pads=None):
    """Adjoints of dilated_conv2d(x, params, pads): (grad_input,
    grad_weights, grad_bias).

    One image at a time, each with the bytes of a whole-batch lowering:
    grad_weights sums the images' `grad @ cols.T` products in image order
    from +0.0, as a sum over the batch axis does, with K = h*w output
    pixels; grad_input's columns come from grad_out laid on the padded-width
    grid, whose junk columns stay zero (see _col2im)."""
    x = np.asarray(x)
    grad_out = np.asarray(grad_out)
    o, ci, k, _ = params.weights.shape
    n, c, hi, wi = x.shape
    pads, h, w = _geometry(x, params, pads)
    top, bottom, left, right = pads
    if grad_out.shape != (n, o, h, w):
        raise DimensionError(
            f"grad_out shape {grad_out.shape} does not match output {(n, o, h, w)}"
        )
    d = params.dilation
    wp = wi + left + right
    wmt = params.weights.reshape(o, -1).T.astype(grad_out.dtype)
    grad_bias = grad_out.sum(axis=(0, 2, 3))
    grad_weights = np.zeros((o, c * k * k), dtype=np.result_type(grad_out, x))
    grad_input = np.empty(x.shape, dtype=grad_out.dtype)
    g_wide = np.zeros((o, -(-h * wp // COL_BLOCK) * COL_BLOCK), dtype=grad_out.dtype)
    grid = g_wide[:, : h * wp].reshape(o, h, wp)[:, :, :w]
    cols = np.empty(c * k * k * h * w, dtype=x.dtype)
    hp = hi + top + bottom
    slab = np.zeros((1, c, hp, wp), x.dtype) if any(pads) else None
    for i in range(n):
        xp = x[i : i + 1] if slab is None else _pad_rows(x[i : i + 1], slab, top, left, 0, hp)
        cols_i = _im2col(xp, k, d, 1, cols)
        # the K x O product, transposed, has the bytes of g @ cols.T and took
        # 0.46 ms where that took 0.81 at O = 16, K = 144 on one BLAS thread;
        # g @ ascontiguousarray(cols.T) is not byte-equal for O <= 3
        grad_weights += (cols_i[0] @ grad_out[i].reshape(o, h * w).T).T
        grid[...] = grad_out[i]
        gxp = _col2im(wmt @ g_wide, (c, hp, wp), k, d)
        grad_input[i] = gxp[:, top : top + hi, left : left + wi]
    return grad_input, grad_weights.reshape(params.weights.shape), grad_bias
