import gc
import itertools
import threading
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nightdehaze import cli
from nightdehaze.engine import (
    ConvParams,
    OptimizerState,
    Tensor,
    add,
    add_n,
    astype,
    channel_softmax,
    concat_channels,
    conv2d,
    crop,
    dilated_conv2d,
    dilated_conv2d_backward,
    gaussian_init,
    load_checkpoint,
    log,
    mean,
    mul,
    no_grad,
    relu,
    save_checkpoint,
    sgd_step,
    sigmoid,
    split_channels,
    sub,
    tsum,
)
from nightdehaze.engine import kernels
from nightdehaze.engine import tensor as tensor_module
from nightdehaze.errors import CheckpointError, DimensionError, ParameterError
from nightdehaze.imageio import write_ppm
from nightdehaze.networks import DeGlowModel, DeHazeModel, save_model
from nightdehaze.training import deglow_batch_loss, dehaze_batch_loss

from conftest import conv_backward_reference, conv_reference, make_training_sample


def _identity_params(channels, dilation=1):
    w = np.zeros((channels, channels, 3, 3))
    for c in range(channels):
        w[c, c, 1, 1] = 1.0
    return ConvParams(weights=w, bias=np.zeros(channels), dilation=dilation)


class TestDilatedConv2d:
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_delta_kernel_is_identity(self, rng, dilation):
        x = rng.normal(0, 1, (2, 3, 10, 10))
        out = dilated_conv2d(x, _identity_params(3, dilation))
        assert np.allclose(out, x)

    def test_impulse_response_taps_at_dilation_offsets(self):
        x = np.zeros((1, 1, 11, 11))
        x[0, 0, 5, 5] = 1.0
        params = ConvParams(weights=np.ones((1, 1, 3, 3)), bias=np.zeros(1), dilation=2)
        out = dilated_conv2d(x, params)[0, 0]
        expected = np.zeros((11, 11))
        for dy in (-2, 0, 2):
            for dx in (-2, 0, 2):
                expected[5 + dy, 5 + dx] = 1.0
        assert np.array_equal(out, expected)

    def test_constant_field_interior(self, rng):
        c, b = 0.7, 0.3
        w = rng.normal(0, 1, (2, 1, 3, 3))
        params = ConvParams(weights=w, bias=np.array([b, b]), dilation=1)
        out = dilated_conv2d(np.full((1, 1, 9, 9), c), params)
        for o in range(2):
            assert np.allclose(out[0, o, 3:6, 3:6], c * w[o].sum() + b)

    def test_preserves_spatial_size(self, rng):
        for dilation in (1, 2, 3):
            x = rng.normal(0, 1, (1, 4, 7, 13))
            params = ConvParams(
                weights=rng.normal(0, 1, (5, 4, 3, 3)), bias=np.zeros(5), dilation=dilation
            )
            assert dilated_conv2d(x, params).shape == (1, 5, 7, 13)

    def test_linearity(self, rng):
        x = rng.normal(0, 1, (1, 2, 8, 8))
        y = rng.normal(0, 1, (1, 2, 8, 8))
        params = ConvParams(
            weights=rng.normal(0, 1, (3, 2, 3, 3)), bias=rng.normal(0, 1, 3), dilation=2
        )
        lhs = dilated_conv2d(2.0 * x + 0.5 * y, params)
        rhs = 2.0 * dilated_conv2d(x, params) + 0.5 * dilated_conv2d(y, params)
        bias_corr = 1.5 * params.bias[None, :, None, None]
        assert np.max(np.abs(lhs - (rhs - bias_corr))) < 1e-5

    def test_float32_output_does_not_depend_on_image_size(self, rng):
        # a pixel's value must be the same bits whether it is computed in the
        # whole image or in a crop around it, or tiled inference drifts
        x = rng.normal(0, 1, (1, 16, 23, 37)).astype(np.float32)
        params = ConvParams(
            weights=rng.normal(0, 0.3, (16, 16, 3, 3)).astype(np.float32),
            bias=rng.normal(0, 1, 16).astype(np.float32),
        )
        h, w = x.shape[2:]
        whole = dilated_conv2d(x, params)
        # crops of many sizes, most touching the bottom right corner, where
        # the last columns of the matmul lie
        crops = [(ya, h, xa, w) for ya in (0, 5, 11, 17, 20) for xa in (0, 3, 9, 30)]
        for ya, yb, xa, xb in crops + [(0, 23, 0, 20), (9, 23, 0, 9), (2, 21, 1, 36)]:
            crop = dilated_conv2d(x[:, :, ya:yb, xa:xb], params)
            # the crop's pixels whose taps all lie inside it or off the image
            y0, y1 = ya + (ya > 0), yb - (yb < h)
            x0, x1 = xa + (xa > 0), xb - (xb < w)
            assert np.array_equal(
                crop[:, :, y0 - ya : y1 - ya, x0 - xa : x1 - xa], whole[:, :, y0:y1, x0:x1]
            )

    @settings(max_examples=150, deadline=None)
    @given(
        data=st.data(),
        dtype=st.sampled_from([np.float32, np.float64]),
        k=st.sampled_from([1, 3]),
        dilation=st.integers(1, 3),
        window=st.tuples(*[st.booleans()] * 4),
    )
    def test_windowed_conv_of_a_crop_matches_same_size_conv(self, data, dtype, k, dilation, window):
        # a tile's conv: valid on its halo sides, same-size on the others,
        # which lie on the image border; its pixels are the whole image's bits
        r = (k // 2) * dilation

        def axis(low_halo, high_halo):
            shrink = r * (low_halo + high_halo)
            size = data.draw(st.integers(1 + shrink, 1 + shrink + 24))
            start = data.draw(st.integers(0, size - 1 - shrink)) if low_halo else 0
            stop = data.draw(st.integers(start + 1 + shrink, size)) if high_halo else size
            return size, start, stop

        top, bottom, left, right = window
        (h, ya, yb), (w, xa, xb) = axis(top, bottom), axis(left, right)
        n, c, o = (data.draw(st.integers(1, 4)) for _ in range(3))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        x = rng.normal(0, 1, (n, c, h, w)).astype(dtype)
        params = ConvParams(
            weights=rng.normal(0, 0.3, (o, c, k, k)).astype(dtype),
            bias=rng.normal(0, 1, o).astype(dtype),
            dilation=dilation,
        )
        pads = tuple(0 if halo else r for halo in window)
        got = dilated_conv2d(x[:, :, ya:yb, xa:xb], params, pads)
        whole = dilated_conv2d(x, params)
        want = whole[:, :, ya + r * top : yb - r * bottom, xa + r * left : xb - r * right]
        assert _same_bytes(got, want)

    def test_float32_crops_match_whole_image_across_bands(self, rng, monkeypatch):
        # bands of a few rows, so crops and the whole image cut them differently
        monkeypatch.setattr(kernels, "BAND_BYTES", 3 * 16 * 9 * 4 * 37)
        self.test_float32_output_does_not_depend_on_image_size(rng)

    def test_channel_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            dilated_conv2d(rng.normal(0, 1, (1, 2, 4, 4)), _identity_params(3))

    def test_invalid_params_rejected(self):
        with pytest.raises(ParameterError):
            ConvParams(weights=np.zeros((1, 1, 5, 5)), bias=np.zeros(1))
        with pytest.raises(ParameterError):
            ConvParams(weights=np.zeros((1, 1, 3, 3)), bias=np.zeros(1), dilation=0)


class TestBandedForward:
    """The forward pass lowers one band of output rows at a time; every band
    must give the bits of the unbanded oracle."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("n", [1, 8])
    @pytest.mark.parametrize("k, dilation", [(1, 1), (3, 1), (3, 2), (3, 3)])
    # 4 rows leave a band of 3 of the 23; at 1 a single row exceeds the budget
    @pytest.mark.parametrize("rows", [4, 1])
    def test_matches_unbanded_oracle(self, rng, monkeypatch, dtype, n, k, dilation, rows):
        h, w = 23, 29
        heights = []

        def spy(xp, *args):
            heights.append(xp.shape[2] - (k - 1) * dilation)
            return im2col(xp, *args)

        im2col = kernels._im2col
        monkeypatch.setattr(kernels, "_im2col", spy)
        for c in (3, 16, 23):
            row_bytes = n * c * k * k * np.dtype(dtype).itemsize * w
            budget = rows * row_bytes + row_bytes // 2 if rows > 1 else row_bytes - 1
            monkeypatch.setattr(kernels, "BAND_BYTES", budget)
            x = rng.normal(0, 1, (n, c, h, w)).astype(dtype)
            for o in (1, 3, 16):
                params = ConvParams(
                    weights=rng.normal(0, 0.3, (o, c, k, k)).astype(dtype),
                    bias=rng.normal(0, 1, o).astype(dtype),
                    dilation=dilation,
                )
                expected = conv_reference(x, params)
                # the fused ReLU rectifies each band's product before it is copied out
                for relu_, want in ((False, expected), (True, np.where(expected > 0, expected, 0))):
                    heights.clear()
                    out = dilated_conv2d(x, params, relu=relu_)
                    assert heights == [rows] * (h // rows) + [h % rows] * (h % rows > 0)
                    assert _same_bytes(out, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("rows", [4, 1])
    def test_band_slab_matches_padded_copy(self, rng, monkeypatch, dtype, rows):
        # the padded conv copies each band's rows into a slab; the oracle pads
        # the whole input with np.pad and lowers each band of that copy, as an
        # unpadded conv of the copy does
        for _ in range(60):
            n, c, o = rng.integers(1, 4), rng.integers(1, 17), rng.integers(1, 17)
            k = int(rng.choice([1, 3]))
            dilation = int(rng.integers(1, 4))
            span = (k - 1) * dilation
            pads = tuple(int(p) for p in rng.integers(0, span // 2 + 1, 4))
            h = max(int(rng.integers(1, 60)), span + 1 - pads[0] - pads[1])
            w = max(int(rng.integers(1, 60)), span + 1 - pads[2] - pads[3])
            row_bytes = n * c * k * k * np.dtype(dtype).itemsize * (w + pads[2] + pads[3] - span)
            budget = rows * row_bytes + row_bytes // 2 if rows > 1 else row_bytes - 1
            monkeypatch.setattr(kernels, "BAND_BYTES", budget)
            x = rng.normal(0, 1, (n, c, h, w)).astype(dtype)
            params = ConvParams(
                weights=rng.normal(0, 0.3, (o, c, k, k)).astype(dtype),
                bias=rng.normal(0, 1, o).astype(dtype),
                dilation=dilation,
            )
            padded = np.pad(x, ((0, 0), (0, 0), pads[:2], pads[2:]))
            for relu_ in (False, True):
                want = dilated_conv2d(padded, params, (0, 0, 0, 0), relu_)
                got = dilated_conv2d(x, params, pads, relu_)
                assert _same_bytes(got, want), (n, c, o, k, dilation, pads, h, w, relu_)


class TestDilatedConv2dBackward:
    def test_zero_cotangent(self, rng):
        x = rng.normal(0, 1, (1, 2, 6, 6))
        params = ConvParams(weights=rng.normal(0, 1, (3, 2, 3, 3)), bias=np.zeros(3))
        gx, gw, gb = dilated_conv2d_backward(x, params, np.zeros((1, 3, 6, 6)))
        assert np.all(gx == 0) and np.all(gw == 0) and np.all(gb == 0)

    def test_identity_kernel_adjoint_is_impulse(self):
        x = np.zeros((1, 1, 7, 7))
        g = np.zeros((1, 1, 7, 7))
        g[0, 0, 3, 4] = 1.0
        gx, _, _ = dilated_conv2d_backward(x, _identity_params(1), g)
        assert np.array_equal(gx, g)

    def test_grad_bias_is_cotangent_sum(self, rng):
        x = rng.normal(0, 1, (2, 2, 5, 5))
        params = ConvParams(weights=rng.normal(0, 1, (3, 2, 3, 3)), bias=np.zeros(3))
        g = rng.normal(0, 1, (2, 3, 5, 5))
        _, _, gb = dilated_conv2d_backward(x, params, g)
        assert np.allclose(gb, g.sum(axis=(0, 2, 3)))

    def test_shape_mismatch_rejected(self, rng):
        x = rng.normal(0, 1, (1, 2, 5, 5))
        params = ConvParams(weights=rng.normal(0, 1, (3, 2, 3, 3)), bias=np.zeros(3))
        with pytest.raises(DimensionError):
            dilated_conv2d_backward(x, params, np.zeros((1, 3, 4, 4)))


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _backward_case(rng, dtype, n, c, o, k, dilation, h, w):
    x = rng.normal(0, 1, (n, c, h, w)).astype(dtype)
    params = ConvParams(
        weights=rng.normal(0, 0.3, (o, c, k, k)).astype(dtype),
        bias=rng.normal(0, 1, o).astype(dtype),
        dilation=dilation,
    )
    g = rng.normal(0, 1, (n, o, h, w)).astype(dtype)
    g[rng.random(g.shape) < 0.2] = 0.0
    g[rng.random(g.shape) < 0.1] = -0.0
    return x, params, g


# (n, h, w): junk columns that wrap into the next row, w < 2*pad at d = 3,
# single rows and columns, and 1x1 images
ODD_SIZES = [(1, 1, 1), (2, 1, 5), (3, 5, 1), (2, 7, 3), (1, 13, 17), (3, 31, 33), (2, 65, 63)]


class TestBackwardMatchesWholeBatchOracle:
    """The backward pass runs one image at a time with a flat shifted-slice
    col2im; it must give the bytes of the whole-batch im2col/col2im oracle."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, dilation", [(1, 1), (1, 2), (1, 3), (3, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize("c", [3, 8, 9, 15])
    @pytest.mark.parametrize("o", [1, 2, 3, 8])
    def test_training_shapes(self, rng, dtype, k, dilation, c, o):
        x, params, g = _backward_case(rng, dtype, 8, c, o, k, dilation, 64, 64)
        got = dilated_conv2d_backward(x, params, g)
        want = conv_backward_reference(x, params, g)
        for a, b in zip(got, want):
            assert _same_bytes(a, b)

    @pytest.mark.parametrize("k, dilation", [(1, 1), (3, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize("n, h, w", ODD_SIZES)
    def test_odd_sizes_float32(self, rng, k, dilation, n, h, w):
        for c, o in itertools.product((3, 8), (1, 3, 8)):
            x, params, g = _backward_case(rng, np.float32, n, c, o, k, dilation, h, w)
            got = dilated_conv2d_backward(x, params, g)
            want = conv_backward_reference(x, params, g)
            for a, b in zip(got, want):
                assert _same_bytes(a, b)

    @pytest.mark.parametrize("k, dilation", [(1, 1), (3, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize("n, h, w", ODD_SIZES)
    def test_odd_sizes_float64(self, rng, k, dilation, n, h, w):
        # The oracle's grad-input matmul has H*W columns.  When that is not a
        # whole number of BLAS blocks, float64 BLAS computes the trailing
        # columns with an edge kernel (or, for one column, a matrix-vector
        # kernel) that rounds differently, so those pixels may differ by an
        # ulp; here every column sits in a whole COL_BLOCK.  Grad-weights and
        # grad-bias keep the oracle's matmul shapes and match exactly.
        for c, o in itertools.product((3, 8), (1, 3, 8)):
            x, params, g = _backward_case(rng, np.float64, n, c, o, k, dilation, h, w)
            gx, gw, gb = dilated_conv2d_backward(x, params, g)
            want_x, want_w, want_b = conv_backward_reference(x, params, g)
            assert _same_bytes(gw, want_w) and _same_bytes(gb, want_b)
            assert gx.dtype == want_x.dtype
            ulp = np.spacing(np.abs(want_x).max())
            assert np.abs(gx - want_x).max() <= 4 * ulp

    @pytest.mark.parametrize("k, dilation", [(1, 1), (3, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize("sides", [(0, 0, 0, 0), (0, 1, 1, 0), (1, 0, 0, 1), (1, 1, 0, 0)])
    def test_windowed_is_same_size_on_the_padded_input(self, rng, k, dilation, sides):
        # a conv padded by `pads` is the same-size conv of the padded input,
        # cropped by the radius: so are its adjoints
        r = (k // 2) * dilation
        pads = tuple(side * r for side in sides)
        top, bottom, left, right = pads
        x, params, _ = _backward_case(rng, np.float64, 2, 3, 4, k, dilation, 13, 11)
        xp = np.pad(x, ((0, 0), (0, 0), (top, bottom), (left, right)))
        g = rng.normal(0, 1, (2, 4, xp.shape[2] - 2 * r, xp.shape[3] - 2 * r))
        gx, gw, gb = dilated_conv2d_backward(x, params, g, pads)
        g_same = np.pad(g, ((0, 0), (0, 0), (r, r), (r, r)))
        want_xp, want_w, want_b = conv_backward_reference(xp, params, g_same)
        want_x = want_xp[:, :, top : top + x.shape[2], left : left + x.shape[3]]
        for got, want in ((gx, want_x), (gw, want_w), (gb, want_b)):
            assert got.shape == want.shape and np.allclose(got, want, rtol=1e-12, atol=1e-12)


class TestReceptiveField:
    @pytest.mark.parametrize("dilation", [1, 2, 3])
    def test_empirical_impulse_support(self, dilation):
        size = 41
        x = np.zeros((1, 1, size, size))
        x[0, 0, size // 2, size // 2] = 1.0
        params = ConvParams(
            weights=np.ones((1, 1, 3, 3)), bias=np.zeros(1), dilation=dilation
        )
        out = x
        for _ in range(3):
            out = dilated_conv2d(out, params)
        rows = np.where(out[0, 0].any(axis=1))[0]
        cols = np.where(out[0, 0].any(axis=0))[0]
        # three 3x3 convs each reach `dilation` pixels farther on each side
        extent = 1 + 2 * 3 * dilation
        assert rows[-1] - rows[0] + 1 == extent
        assert cols[-1] - cols[0] + 1 == extent


class TestConcatSplit:
    def test_single_input_identity(self, rng):
        a = Tensor(rng.normal(0, 1, (1, 3, 4, 4)))
        assert np.array_equal(concat_channels(a).data, a.data)

    def test_split_inverts_concat(self, rng):
        a = Tensor(rng.normal(0, 1, (2, 4, 5, 5)))
        b = Tensor(rng.normal(0, 1, (2, 2, 5, 5)))
        cat = concat_channels(a, b)
        assert cat.shape == (2, 6, 5, 5)
        back_a, back_b = split_channels(cat, [4, 2])
        assert np.array_equal(back_a.data, a.data)
        assert np.array_equal(back_b.data, b.data)

    def test_spatial_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            concat_channels(
                Tensor(rng.normal(0, 1, (1, 2, 4, 4))),
                Tensor(rng.normal(0, 1, (1, 2, 5, 5))),
            )

    def test_bad_split_sizes_rejected(self, rng):
        with pytest.raises(DimensionError):
            split_channels(Tensor(rng.normal(0, 1, (1, 4, 3, 3))), [3, 3])


class TestAddN:
    def test_bytes_of_chained_adds_in_one_node(self, rng):
        a, b, c = (Tensor(rng.normal(0, 1, (2, 3, 5, 5)).astype(np.float32), requires_grad=True)
                   for _ in range(3))
        out = add_n(iter([a, b, c]))
        assert _same_bytes(out.data, add(add(a, b), c).data)
        assert out._parents == (a, b, c)
        tsum(mul(out, rng.normal(0, 1, out.shape))).backward()
        assert _same_bytes(a.grad, b.grad) and _same_bytes(b.grad, c.grad)

    def test_shape_mismatch_and_no_terms_rejected(self):
        with pytest.raises(DimensionError):
            add_n([Tensor(np.zeros((2, 2))), Tensor(np.zeros((1, 2)))])
        with pytest.raises(DimensionError):
            add_n([])

    def test_no_summand_outlives_its_addition_without_a_tape(self, rng):
        refs = []

        def summands():
            for _ in range(4):
                # the sum is the first summand's own array until the second
                # is added; every other summand is dropped once added
                assert sum(r() is not None for r in refs) == (len(refs) == 1)
                t = Tensor(rng.normal(0, 1, (2, 3)))
                refs.append(weakref.ref(t.data))
                yield t
                del t

        gc.disable()
        try:
            with no_grad():
                out = add_n(summands())
        finally:
            gc.enable()
        assert out._parents == () and len(refs) == 4
        assert all(r() is None for r in refs)


class TestRelu:
    def test_all_negative_is_zero(self):
        assert np.all(relu(Tensor(-np.ones((2, 2, 2, 2)))).data == 0)

    def test_all_positive_is_identity(self, rng):
        x = rng.uniform(0.1, 1, (1, 2, 3, 3))
        assert np.array_equal(relu(Tensor(x)).data, x)

    def test_backward_masks_negative_side(self, rng):
        x = Tensor(np.array([[-1.0, 2.0], [3.0, -4.0]]), requires_grad=True)
        tsum(relu(x)).backward()
        assert np.array_equal(x.grad, [[0.0, 1.0], [1.0, 0.0]])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_where_on_every_value(self, dtype):
        # np.fmax(-0.0, 0) may give -0.0, where np.where gives +0.0
        x = np.array([-0.0, 0.0, np.nan, np.inf, -np.inf, -1.5, 2.5, -1e-45], dtype=dtype)
        assert _same_bytes(relu(Tensor(x)).data, np.where(x > 0, x, 0).astype(dtype))


def _fused_case(rng, dtype, n, k, dilation, h, w):
    """A conv whose pre-activations take every kind of value: output
    channel 0 multiplies inputs and weights so small that each product
    underflows, to -0.0 where the matmul rounds a fused multiply-add, kept
    by a bias of -0.0; +-inf and NaN inputs spread +-inf and NaN through
    every channel; the other channels' biases give ordinary values of both
    signs."""
    tiny = np.finfo(dtype).tiny ** 0.75
    x = tiny * np.abs(rng.normal(0, 1, (n, 3, h, w))).astype(dtype)
    x[0, 0, 1, 2], x[-1, 1, h // 2, w // 2], x[-1, 2, h - 1, 0] = np.inf, -np.inf, np.nan
    weight = rng.normal(0, 0.3, (4, 3, k, k)).astype(dtype)
    weight[0] = -tiny
    bias = rng.normal(0, 1, 4).astype(dtype)
    bias[0] = -0.0
    return [Tensor(a, requires_grad=True) for a in (x, weight, bias)]


class TestFusedRelu:
    """conv2d(..., relu=True) is relu(conv2d(...)) in one op: the same bytes
    forward and backward, with only the ReLU's mask on the tape."""

    # the NaN and inf inputs make NaN weight gradients
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("k, dilation", [(1, 1), (3, 1), (3, 2), (3, 3)])
    @pytest.mark.parametrize("sides", [(1, 1, 1, 1), (0, 1, 1, 0), (1, 0, 0, 1), (0, 0, 1, 1)])
    @pytest.mark.parametrize("rows", [4, 1])
    def test_matches_relu_of_conv(self, rng, monkeypatch, dtype, k, dilation, sides, rows):
        r = (k // 2) * dilation
        pads = tuple(side * r for side in sides)
        h, w = 23, 29
        # bands of about `rows` output rows, as in TestBandedForward
        row_bytes = 8 * 3 * k * k * np.dtype(dtype).itemsize * w
        monkeypatch.setattr(kernels, "BAND_BYTES", rows * row_bytes + row_bytes // 2)
        leaves = x, weight, bias = _fused_case(rng, dtype, 8, k, dilation, h, w)
        pre = dilated_conv2d(x.data, ConvParams(weight.data, bias.data, dilation), pads)
        assert np.isnan(pre).any() and np.isposinf(pre).any() and np.isneginf(pre).any()
        cot = rng.normal(0, 1, pre.shape).astype(dtype)
        results = []
        for out_of in (
            lambda: relu(conv2d(x, weight, bias, dilation, pads)),
            lambda: conv2d(x, weight, bias, dilation, pads, relu=True),
        ):
            for t in leaves:
                t.zero_grad()
            out = out_of()
            tsum(mul(out, cot)).backward()
            results.append([out.data] + [t.grad for t in leaves])
        assert _same_bytes(results[1][0], np.where(pre > 0, pre, 0))
        for got, want in zip(results[1], results[0]):
            assert _same_bytes(got, want)

    def test_tape_keeps_the_mask_not_the_pre_activation(self, rng):
        x, weight, bias = _fused_case(rng, np.float32, 2, 3, 2, 9, 8)
        out = conv2d(x, weight, bias, 2, relu=True)
        assert out._parents[:3] == (x, weight, bias) and len(out._parents) == 4
        mask = out._parents[3]
        assert mask._backward is None and not mask.requires_grad
        # packed one bit per value
        assert mask.data.dtype == np.uint8 and mask.data.size == -(-out.data.size // 8)
        bits = np.unpackbits(mask.data, count=out.data.size).reshape(out.shape).view(bool)
        assert _same_bytes(bits, out.data > 0)

    def test_no_mask_without_a_tape(self, rng, monkeypatch):
        class Compared(np.ndarray):
            calls = 0

            def __gt__(self, other):
                Compared.calls += 1
                return np.ndarray.__gt__(self, other)

        real = tensor_module.dilated_conv2d
        monkeypatch.setattr(
            tensor_module, "dilated_conv2d", lambda *args: real(*args).view(Compared)
        )
        x, weight, bias = _fused_case(rng, np.float32, 2, 3, 1, 9, 8)
        with no_grad():
            out = conv2d(x, weight, bias, relu=True)
        assert out._parents == () and Compared.calls == 0
        conv2d(x, weight, bias, relu=True)
        assert Compared.calls == 1


def _conv_case(rng):
    x = Tensor(rng.normal(0, 1, (1, 2, 5, 5)))
    weight = Tensor(rng.normal(0, 1, (3, 2, 3, 3)), requires_grad=True)
    bias = Tensor(rng.normal(0, 1, 3), requires_grad=True)
    return x, weight, bias


def _weight_grad(x, weight, bias):
    weight.zero_grad()
    tsum(relu(conv2d(x, weight, bias))).backward()
    return weight.grad


class TestNoGrad:
    def test_records_no_tape(self, rng):
        x, weight, bias = _conv_case(rng)
        with no_grad():
            h = conv2d(x, weight, bias)
            out = tsum(relu(h))
        for t in (h, out):
            assert t._parents == () and t._backward is None and not t.requires_grad
        out.backward()
        assert weight.grad is None and bias.grad is None

    def test_tape_resumes_after_block(self, rng):
        x, weight, bias = _conv_case(rng)
        expected = _weight_grad(x, weight, bias).copy()
        with no_grad():
            conv2d(x, weight, bias)
        assert np.array_equal(_weight_grad(x, weight, bias), expected)

    def test_tape_resumes_after_exception(self, rng):
        x, weight, bias = _conv_case(rng)
        with pytest.raises(RuntimeError), no_grad():
            raise RuntimeError
        assert _weight_grad(x, weight, bias) is not None

    def test_other_thread_keeps_its_tape(self, rng):
        x, weight, bias = _conv_case(rng)
        expected = _weight_grad(x, weight, bias).copy()
        entered, done = threading.Event(), threading.Event()

        def hold():
            with no_grad():
                entered.set()
                done.wait(10)

        holder = threading.Thread(target=hold)
        holder.start()
        try:
            assert entered.wait(10)
            grad = _weight_grad(x, weight, bias)
        finally:
            done.set()
            holder.join(10)
        assert not holder.is_alive()
        assert np.array_equal(grad, expected)

    def test_interleaved_blocks_leave_tape_on(self, rng):
        # A enters, B enters, A exits, B exits: a shared flag would let B
        # restore "off" for good
        x, weight, bias = _conv_case(rng)
        steps = [threading.Event() for _ in range(3)]

        def first():
            with no_grad():
                steps[0].set()
                steps[1].wait(10)

        def second():
            steps[0].wait(10)
            with no_grad():
                steps[1].set()
                steps[2].wait(10)

        threads = [threading.Thread(target=first), threading.Thread(target=second)]
        for t in threads:
            t.start()
        threads[0].join(10)
        steps[2].set()
        threads[1].join(10)
        assert not any(t.is_alive() for t in threads)
        assert _weight_grad(x, weight, bias) is not None

    def test_threaded_cli_run_leaves_tape_on(self, rng, tmp_path):
        save_model(DeGlowModel(features=2, tau=1).init(rng, std=0.05), tmp_path / "g.nckp")
        save_model(DeHazeModel(features=2).init(rng, std=0.05), tmp_path / "h.nckp")
        images = tmp_path / "in"
        images.mkdir()
        for i in range(4):
            write_ppm(images / f"img{i}.ppm", rng.uniform(0, 1, (12, 12, 3)))
        status = cli.main([
            "run", str(images), "--out", str(tmp_path / "out"), "--threads", "2",
            "--checkpoint", f"deglow={tmp_path / 'g.nckp'}",
            "--checkpoint", f"dehaze={tmp_path / 'h.nckp'}",
        ])
        assert status == 0
        assert _weight_grad(*_conv_case(rng)) is not None


# op name -> outputs built from leaves x (2 x 3 x 4 x 4, positive) and y
# (1 x 3 x 1 x 4, broadcast against x); the constant is a plain array
ADJOINT_CASES = {
    "add": lambda x, y: [add(x, y)],
    "add_n": lambda x, y: [add_n(mul(x, k) for k in (1.0, 2.0, 3.0)), add_n([x])],
    "sub": lambda x, y: [sub(x, y)],
    "mul": lambda x, y: [mul(x, y)],
    "mul-constant": lambda x, y: [mul(x, np.full(x.shape, 0.5))],
    "relu": lambda x, y: [relu(sub(x, 0.5))],
    "sigmoid": lambda x, y: [sigmoid(x)],
    "log": lambda x, y: [log(x, 1e-3)],
    "mean": lambda x, y: [mean(x)],
    "tsum": lambda x, y: [tsum(x)],
    "concat_channels": lambda x, y: [concat_channels(x, np.ones((2, 1, 4, 4)), x)],
    "split_channels": lambda x, y: split_channels(x, [1, 2]),
    "channel_softmax": lambda x, y: [channel_softmax(x)],
    "conv2d": lambda x, y: [conv2d(x, Tensor(np.ones((2, 3, 3, 3)), requires_grad=True), np.zeros(2))],
    "conv2d-windowed": lambda x, y: [
        conv2d(x, Tensor(np.ones((2, 3, 3, 3)), requires_grad=True), np.zeros(2), 1, (0, 1, 1, 0))
    ],
    # a bias of -10 leaves some outputs of the first channel below the kink
    "conv2d-relu": lambda x, y: [
        conv2d(x, Tensor(np.ones((2, 3, 3, 3)), requires_grad=True), np.array([-10.0, 0.0]),
               relu=True)
    ],
    "crop": lambda x, y: [crop(x, 1, 0, 2, 1)],
    "astype": lambda x, y: [astype(x, np.float32)],
}


class TestPureAdjoints:
    @pytest.mark.parametrize("op", sorted(ADJOINT_CASES))
    def test_adjoint_returns_one_gradient_per_parent_and_mutates_nothing(self, op, rng):
        x = Tensor(rng.uniform(0.1, 1.0, (2, 3, 4, 4)), requires_grad=True)
        y = Tensor(rng.uniform(0.1, 1.0, (1, 3, 1, 4)), requires_grad=True)
        for out in ADJOINT_CASES[op](x, y):
            tensors = [out, *out._parents]
            for t in tensors:
                if t.requires_grad:
                    t.grad = np.full(t.shape, 7.0, dtype=t.dtype)
            before = [(t.grad, None if t.grad is None else t.grad.copy()) for t in tensors]
            grads = out._backward(rng.normal(0, 1, out.shape).astype(out.dtype))
            assert len(grads) == len(out._parents)
            for parent, grad in zip(out._parents, grads):
                assert not parent.requires_grad or grad.shape == parent.shape
            for t, (grad, copy) in zip(tensors, before):
                assert t.grad is grad and (grad is None or np.array_equal(grad, copy))


def _unreleased_backward(root):
    """The tape walk that spends nothing: recursive post-order, then every
    adjoint in reverse (the reference for gradient accumulation order)."""
    order, seen = [], set()

    def visit(node):
        if id(node) in seen:
            return
        seen.add(id(node))
        for p in node._parents:
            visit(p)
        order.append(node)

    visit(root)
    root._accumulate(np.ones_like(root.data))
    for node in reversed(order):
        if node._backward is not None and node.grad is not None:
            for parent, grad in zip(node._parents, node._backward(node.grad), strict=True):
                if parent.requires_grad:
                    parent._accumulate(grad)


def _two_conv_loss(rng):
    x, weight, bias = _conv_case(rng)
    weight2 = Tensor(rng.normal(0, 1, (2, 3, 3, 3)), requires_grad=True)
    h = relu(conv2d(x, weight, bias, dilation=2))
    out = conv2d(h, weight2, Tensor(np.zeros(2)))
    return tsum(mul(out, out)), (weight, bias, weight2), (h, out)


class TestBackwardSpendsGraph:
    def test_intermediates_freed_when_backward_returns(self, rng):
        # with the cyclic GC off, only reference counting can free the tape
        gc.disable()
        try:
            loss, _, (h, out) = _two_conv_loss(rng)
            refs = [weakref.ref(h.data), weakref.ref(out.data)]
            del h, out
            assert all(r() is not None for r in refs)
            loss.backward()
            assert all(r() is None for r in refs)
        finally:
            gc.enable()

    def test_graph_is_released(self, rng):
        loss, leaves, intermediates = _two_conv_loss(rng)
        loss.backward()
        assert loss._parents == () and loss._backward is None and loss.grad is None
        for t in intermediates:
            assert t._parents == () and t._backward is None and t.grad is None
            assert not t.requires_grad
        assert all(t.grad is not None for t in leaves)

    def test_second_call_is_a_no_op(self, rng):
        loss, leaves, _ = _two_conv_loss(rng)
        loss.backward()
        grads = [t.grad.copy() for t in leaves]
        loss.backward()
        assert all(np.array_equal(t.grad, g) for t, g in zip(leaves, grads))
        assert loss.grad is None

    @pytest.mark.parametrize("kind", ["deglow", "dehaze"])
    def test_leaf_grads_match_unreleased_walk(self, kind):
        rng = np.random.default_rng(3)
        if kind == "deglow":
            model, loss_fn = DeGlowModel(features=4, tau=2).init(rng, std=0.1), deglow_batch_loss
        else:
            model, loss_fn = DeHazeModel(features=4).init(rng, std=0.1), dehaze_batch_loss
        batch = {
            key: np.stack([value, value[:, ::-1]]).astype(np.float32)
            for key, value in make_training_sample(2, size=16).items()
        }
        _unreleased_backward(loss_fn(model, batch))
        want = {name: t.grad for name, t in model.parameters().items()}
        model.zero_grad()
        loss_fn(model, batch).backward()
        for name, t in model.parameters().items():
            assert t.grad.tobytes() == want[name].tobytes(), name


class TestAstype:
    def test_same_dtype_returns_input(self):
        x = Tensor(np.ones(3, dtype=np.float32))
        assert astype(x, np.float32) is x

    def test_cast_and_gradient_dtype(self, rng):
        x = Tensor(rng.normal(0, 1, (2, 3)), requires_grad=True)
        y = astype(x, np.float32)
        assert y.dtype == np.float32 and np.array_equal(y.data, x.data.astype(np.float32))
        tsum(mul(y, 2.0)).backward()
        assert x.grad.dtype == np.float64 and np.array_equal(x.grad, np.full((2, 3), 2.0))


class TestGaussianInit:
    def test_statistics(self):
        draws = gaussian_init((1000, 1000), np.random.default_rng(0), std=1e-4)
        assert abs(draws.mean()) < 3 * 1e-4 / 1000
        assert abs(draws.std() / 1e-4 - 1.0) < 0.05

    def test_deterministic(self):
        a = gaussian_init((4, 4), np.random.default_rng(3))
        b = gaussian_init((4, 4), np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_dtype(self):
        assert gaussian_init((2, 2), np.random.default_rng(0)).dtype == np.float32


class TestSgdStep:
    def test_zero_everything_is_identity(self):
        p = {"w": np.array([1.0, 2.0])}
        state = OptimizerState(learning_rate=0.1, weight_decay=0.0)
        sgd_step(p, {"w": np.zeros(2)}, state)
        assert np.array_equal(p["w"], [1.0, 2.0])

    def test_zero_lr_is_identity(self, rng):
        p = {"w": rng.normal(0, 1, 5)}
        orig = p["w"].copy()
        state = OptimizerState(learning_rate=0.0)
        sgd_step(p, {"w": rng.normal(0, 1, 5)}, state)
        assert np.array_equal(p["w"], orig)

    def test_first_step_is_vanilla_sgd(self):
        p = {"w": np.array([1.0])}
        state = OptimizerState(learning_rate=0.5, weight_decay=0.0)
        sgd_step(p, {"w": np.array([2.0])}, state)
        assert np.allclose(p["w"], 1.0 - 0.5 * 2.0)

    def test_matches_scalar_hand_simulation(self):
        lr, mom, wd, g = 0.1, 0.9, 0.001, 0.3
        p = {"w": np.array([0.5])}
        state = OptimizerState(learning_rate=lr, momentum=mom, weight_decay=wd)
        ref_p, ref_v = 0.5, 0.0
        for _ in range(5):
            sgd_step(p, {"w": np.array([g])}, state)
            ref_v = mom * ref_v + (g + wd * ref_p)
            ref_p = ref_p - lr * ref_v
            assert np.allclose(p["w"], ref_p)

    def test_no_decay_set_skips_weight_decay(self):
        p = {"bias": np.array([1.0])}
        state = OptimizerState(learning_rate=1.0, weight_decay=0.5, no_decay={"bias"})
        sgd_step(p, {"bias": np.zeros(1)}, state)
        assert np.array_equal(p["bias"], [1.0])

    def test_shape_mismatch_rejected(self):
        state = OptimizerState(learning_rate=0.1)
        with pytest.raises(DimensionError):
            sgd_step({"w": np.zeros(3)}, {"w": np.zeros(4)}, state)


class TestCheckpoint:
    def test_round_trip_bit_exact(self, tmp_path, rng):
        params = {
            "a.weight": rng.normal(0, 1, (3, 2, 3, 3)).astype(np.float32),
            "a.bias": rng.normal(0, 1, 3).astype(np.float32),
            "z": rng.normal(0, 1, (4,)).astype(np.float32),
        }
        path = tmp_path / "m.nckp"
        save_checkpoint(path, params)
        back = load_checkpoint(path)
        assert set(back) == set(params)
        for name in params:
            assert back[name].dtype == np.float32
            assert np.array_equal(back[name], params[name])
        # byte-level determinism of the writer
        path2 = tmp_path / "m2.nckp"
        save_checkpoint(path2, dict(reversed(list(params.items()))))
        assert path.read_bytes() == path2.read_bytes()

    def test_magic_bytes_present(self, tmp_path):
        path = tmp_path / "m.nckp"
        save_checkpoint(path, {"w": np.zeros(1, dtype=np.float32)})
        assert path.read_bytes()[:4] == b"NCKP"

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.nckp"
        path.write_bytes(b"XXXX" + bytes(16))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncation_rejected(self, tmp_path):
        path = tmp_path / "m.nckp"
        save_checkpoint(path, {"w": np.zeros((4, 4), dtype=np.float32)})
        (tmp_path / "t.nckp").write_bytes(path.read_bytes()[:-8])
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "t.nckp")

    def test_trailing_bytes_rejected(self, tmp_path):
        path = tmp_path / "m.nckp"
        save_checkpoint(path, {"w": np.zeros(2, dtype=np.float32)})
        (tmp_path / "t.nckp").write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "t.nckp")

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.nckp")

    def test_unsupported_version_rejected(self, tmp_path):
        path = tmp_path / "m.nckp"
        save_checkpoint(path, {"w": np.zeros(1, dtype=np.float32)})
        blob = bytearray(path.read_bytes())
        blob[4] = 99
        (tmp_path / "v.nckp").write_bytes(bytes(blob))
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "v.nckp")
