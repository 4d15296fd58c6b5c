import copy
import tracemalloc

import numpy as np
import pytest

from nightdehaze.atmospherics import recover_radiance
from nightdehaze.engine import Tensor, mul, tensor, tsum
from nightdehaze.errors import DataError, DimensionError, ParameterError
from nightdehaze.engine.kernels import BAND_BYTES, COL_BLOCK
from nightdehaze.networks import (
    PATH_DILATIONS,
    WHOLE,
    Conv,
    DeGlowModel,
    DeHazeModel,
    deglow_unroll,
    dehaze_forward,
)
from nightdehaze import pipeline
from nightdehaze.pipeline import PipelineConfig, apply_tiled, run_pipeline

from conftest import make_scene


@pytest.fixture(scope="module")
def models():
    rng = np.random.default_rng(0)
    deglow = DeGlowModel(features=4, tau=2).init(rng, std=0.05)
    dehaze = DeHazeModel(features=4).init(rng, std=0.05)
    return deglow, dehaze


class TestRunPipeline:
    def test_zero_deglow_reduces_to_atmospherics_inverse(self, rng):
        observed, *_ = make_scene(1)
        deglow = DeGlowModel(features=4, tau=2)  # all-zero weights: identity
        dehaze = DeHazeModel(features=4)  # all-zero weights: t = sigmoid(0)
        art = run_pipeline(observed, deglow, dehaze)
        assert np.array_equal(art.deglowed, observed)
        assert np.all(art.transmission == 0.5)
        expected = recover_radiance(observed, art.transmission, art.light)
        assert np.array_equal(art.radiance, expected)

    def test_transmission_floored_at_t_min(self, rng):
        observed, *_ = make_scene(7)
        deglow = DeGlowModel(features=4, tau=1)
        dehaze = DeHazeModel(features=4).init(rng, std=0.3)
        art = run_pipeline(observed, deglow, dehaze, t_min=0.4)
        raw = dehaze_forward(observed.transpose(2, 0, 1)[None], dehaze).data[0, 0]
        assert raw.min() < 0.4 < raw.max()
        assert np.array_equal(art.transmission, np.maximum(raw, 0.4))

    def test_networks_run_at_weight_dtype(self, models, monkeypatch):
        # float64 weights are how the gradient suite runs the networks; the
        # float32 run must agree with them and use float32 convs only
        observed, *_ = make_scene(9)
        wide = [copy.deepcopy(m) for m in models]
        for model in wide:
            for t in model.parameters().values():
                t.data = t.data.astype(np.float64)
        conv_dtypes = []

        def spy(x, params, *args):
            conv_dtypes.append((x.dtype.name, params.weights.dtype.name))
            return dilated_conv2d(x, params, *args)

        dilated_conv2d = tensor.dilated_conv2d
        monkeypatch.setattr(tensor, "dilated_conv2d", spy)
        narrow_art = run_pipeline(observed, *models)
        assert conv_dtypes and set(conv_dtypes) == {("float32", "float32")}
        conv_dtypes.clear()
        wide_art = run_pipeline(observed, *wide)
        assert conv_dtypes and set(conv_dtypes) == {("float64", "float64")}
        for name in ("radiance", "transmission", "deglowed"):
            narrow, wide_values = getattr(narrow_art, name), getattr(wide_art, name)
            assert narrow.dtype == wide_values.dtype == np.float64
            assert np.max(np.abs(narrow - wide_values)) < 1e-5, name

    def test_networks_record_no_tape(self, models, monkeypatch):
        outputs = []
        for name in ("deglow_unroll", "dehaze_forward"):
            def spy(x, model, stage=getattr(pipeline, name), **kwargs):
                out = stage(x, model, **kwargs)
                outputs.append(out[0] if isinstance(out, tuple) else out)
                return out

            monkeypatch.setattr(pipeline, name, spy)
        observed, *_ = make_scene(10)
        run_pipeline(observed, *models)
        assert len(outputs) == 2
        assert all(out._parents == () and not out.requires_grad for out in outputs)

    def test_four_timed_stages(self, models, rng):
        observed, *_ = make_scene(2)
        art = run_pipeline(observed, *models)
        assert tuple(art.timings.keys()) == ("deglow", "dehaze", "atmospheric_light", "recover")
        assert all(v >= 0 for v in art.timings.values())

    def test_artifact_shapes_and_ranges(self, models):
        observed, *_ = make_scene(3)
        art = run_pipeline(observed, *models)
        assert art.radiance.shape == observed.shape
        assert art.deglowed.shape == observed.shape
        assert art.transmission.shape == observed.shape[:2]
        assert art.light.shape == (3,)
        assert art.radiance.min() >= 0 and art.radiance.max() <= 1
        assert art.transmission.min() >= 0.05

    def test_deterministic(self, models):
        observed, *_ = make_scene(4)
        a = run_pipeline(observed, *models)
        b = run_pipeline(observed, *models)
        assert np.array_equal(a.radiance, b.radiance)
        assert np.array_equal(a.transmission, b.transmission)
        assert np.array_equal(a.light, b.light)

    def test_whole_image_peak_memory(self):
        # the peak holds what one DeGlow or DeHaze path needs: 4.8 whole-image
        # 16-channel maps, where keeping the previous step, its features and
        # the paths' input through the last path took 6.6, and keeping every
        # finished step and a padded copy of each conv's input 8.6
        rng = np.random.default_rng(0)
        models = DeGlowModel(features=16, tau=3).init(rng), DeHazeModel(features=16).init(rng)
        image = rng.uniform(0, 1, (240, 320, 3))
        peak = _peak_bytes(image, models)
        assert peak / (16 * 240 * 320 * 4) < 5.0

    @pytest.mark.parametrize("tile_size", [0, 48])
    def test_peak_memory_is_four_feature_maps(self, tile_size):
        # at its peak, a path of either network, inference holds four
        # F-channel maps (the paths' input, the sum of the paths before, a
        # conv's input and its output), the image-sized planes (the float64
        # image and its float32 cast) and one band of the widest conv's
        # scratch; 2% covers the small arrays.  Tiles of a third of the image
        # hold less.  Here the peak was 1.33 of this whole and 1.06 tiled
        # while the previous step's features and the paths' input lived on.
        f, h, w = 16, 120, 160
        rng = np.random.default_rng(0)
        models = DeGlowModel(features=f, tau=3).init(rng), DeHazeModel(features=f).init(rng)
        image = rng.uniform(0, 1, (h, w, 3))
        span = 2 * max(PATH_DILATIONS)
        rows = max(1, min(h, BAND_BYTES // (f * 9 * 4 * w)))
        width = -(-rows * w // COL_BLOCK) * COL_BLOCK
        band = (9 * f + f) * width * 4 + f * (rows + span) * (w + span) * 4
        budget = 4 * (f * h * w * 4) + 3 * h * w * (8 + 4) + band
        peak = _peak_bytes(image, models, tile_size)
        assert peak <= 1.02 * budget

    def test_tiled_matches_whole_image(self):
        # every conv pads its matmul to whole column blocks, so tiles give the
        # whole image's bits; these models' weights move the pixels at a tile's
        # edge, so a halo one pixel short changes them
        rng = np.random.default_rng(3)
        models = (
            DeGlowModel(features=2, tau=2).init(rng, std=0.3),
            DeHazeModel(features=2).init(rng, std=0.3),
        )
        observed, *_ = make_scene(5, size=48)
        whole = run_pipeline(observed, *models)
        tiled = run_pipeline(observed, *models, tile_size=16)
        for name in ("radiance", "transmission", "deglowed"):
            assert np.array_equal(getattr(tiled, name), getattr(whole, name)), name

    def test_tiled_deglow_steps_cover_one_step_halo(self, monkeypatch):
        # each recurrence runs per tile with a one-step halo; an unroll-wide
        # halo (tau * step_radius) would feed each step far more pixels
        deglow = DeGlowModel(features=4, tau=3).init(np.random.default_rng(1), std=0.05)
        dehaze = DeHazeModel(features=4)
        h, w, tile = 48, 64, 16
        calls = []

        def spy(model, image, prev_features=None, window=WHOLE):
            feats_dtype = None if prev_features is None else prev_features[0].dtype
            calls.append((image.shape[2] * image.shape[3], feats_dtype))
            return step(model, image, prev_features, window)

        step = DeGlowModel.step
        monkeypatch.setattr(DeGlowModel, "step", spy)
        image = np.random.default_rng(2).uniform(0, 1, (h, w, 3))
        run_pipeline(image, deglow, dehaze, tile_size=tile)

        halo = deglow.step_radius
        rows = [min(h, y + tile + halo) - max(0, y - halo) for y in range(0, h, tile)]
        cols = [min(w, x + tile + halo) - max(0, x - halo) for x in range(0, w, tile)]
        tiles = [r * c for r in rows for c in cols]
        assert len(calls) == len(tiles) * deglow.tau
        for t in range(deglow.tau):
            fed = calls[t * len(tiles) : (t + 1) * len(tiles)]
            assert sum(pixels for pixels, _ in fed) == sum(tiles)
            assert {dtype for _, dtype in fed} == {None if t == 0 else np.dtype(np.float32)}

    def test_tiled_convs_shrink_on_halo_sides(self, monkeypatch):
        # each layer of an interior tile is computed only where later layers
        # read it: the fuse output is the tile plus the heads' reach, every
        # dilated path ends on the fuse input's box, and the last head's
        # output is the tile itself
        rng = np.random.default_rng(4)
        deglow = DeGlowModel(features=2, tau=2).init(rng, std=0.3)
        dehaze = DeHazeModel(features=2).init(rng, std=0.3)
        tile = 16
        calls = []

        def spy(conv, x, window=WHOLE):
            out = call(conv, x, window)
            calls.append((conv, window, out.shape[2:]))
            return out

        call = Conv.__call__
        monkeypatch.setattr(Conv, "__call__", spy)
        run_pipeline(np.random.default_rng(5).uniform(0, 1, (48, 64, 3)), deglow, dehaze, tile_size=tile)

        for model, halo, last in (
            (deglow, deglow.step_radius, deglow.head_residual),
            (dehaze, dehaze.receptive_radius(), dehaze.head),
        ):
            block = model.block
            starts = [
                i for i, (conv, window, _) in enumerate(calls) if conv is block.entry[0] and all(window)
            ]
            assert starts
            for start in starts:
                outs = {}
                for conv, _, out in calls[start:]:
                    if conv is block.entry[0] and outs:
                        break
                    outs[conv] = out
                fused = tile + 2 * (halo - block.radius)
                assert outs[block.fuse] == (fused, fused)
                paths = {outs[path[-1]] for path in block.paths}
                assert paths == {(fused + 2 * block.fuse.radius,) * 2}
                assert outs[last] == (tile, tile)

    def test_bad_input_shape_rejected(self, models, rng):
        with pytest.raises(DimensionError):
            run_pipeline(rng.uniform(0, 1, (8, 8)), *models)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_input_rejected(self, models, bad):
        observed, *_ = make_scene(6)
        observed[3, 5, 1] = bad
        with pytest.raises(DataError):
            run_pipeline(observed, *models)

    @pytest.mark.parametrize("stage", ["deglow", "dehaze"])
    def test_non_finite_stage_output_names_the_stage(self, models, stage):
        # deglow weights of 1e30 pass load_model's finite check and overflow;
        # NaN weights make the dehaze output non-finite whatever its input
        overflowing = {"deglow": copy.deepcopy(models[0]), "dehaze": copy.deepcopy(models[1])}
        for t in overflowing[stage].parameters().values():
            t.data[...] = 1e30 if stage == "deglow" else np.nan
        observed, *_ = make_scene(6)
        with pytest.raises(DataError, match=f"^{stage} stage"):
            run_pipeline(observed, overflowing["deglow"], overflowing["dehaze"])

    def test_negative_tile_size_rejected(self, models):
        observed, *_ = make_scene(8)
        with pytest.raises(ParameterError):
            run_pipeline(observed, *models, tile_size=-4)
        with pytest.raises(ParameterError):
            PipelineConfig(tile_size=-4)

    @pytest.mark.parametrize("t_min", [np.nan, 0.0, 1.0, -0.5])
    def test_t_min_outside_unit_interval_rejected_before_the_networks(
        self, models, monkeypatch, t_min
    ):
        def no_network(*args, **kwargs):
            raise AssertionError("a network ran")

        monkeypatch.setattr(pipeline, "deglow_unroll", no_network)
        observed, *_ = make_scene(8)
        with pytest.raises(ParameterError, match=r"t_min must be in \(0, 1\)"):
            run_pipeline(observed, *models, t_min=t_min)
        with pytest.raises(ParameterError, match=r"t_min must be in \(0, 1\)"):
            PipelineConfig(t_min=t_min)


class TestApplyTiled:
    def test_small_image_bypasses_tiling(self, rng):
        x = rng.normal(0, 1, (1, 3, 8, 8)).astype(np.float32)
        calls = []

        def fn(patch, window):
            calls.append((patch.shape, window))
            return (patch * 2,)

        (out,) = apply_tiled(fn, (x,), tile_size=16, halo=4)
        assert calls == [(x.shape, WHOLE)]
        assert np.array_equal(out, x * 2)

    def test_pointwise_function_is_exact(self, rng):
        x = rng.normal(0, 1, (1, 2, 30, 50)).astype(np.float32)
        (out,) = apply_tiled(lambda p, window: (p * 3 + 1,), (x,), tile_size=16, halo=2)
        assert np.array_equal(out, x * 3 + 1)

    def test_halo_covers_receptive_field(self, rng):
        # a box blur of radius 2 needs halo >= 2 to match the untiled result
        x = rng.normal(0, 1, (1, 1, 20, 20))
        (out,) = apply_tiled(lambda p, window: (_blur(p),), (x,), tile_size=7, halo=2)
        assert np.allclose(out, _blur(x))

    @pytest.mark.parametrize("tile_size", [1, 3, 7, 20])
    def test_outputs_shrunk_on_halo_sides_are_placed_by_their_shape(self, rng, tile_size):
        # the blur's pixels within 2 of a halo side read zeros, not context:
        # dropping them leaves an output 2 smaller on each halo side
        x = rng.normal(0, 1, (1, 1, 20, 23))

        def fn(p, window):
            h, w = p.shape[2:]
            top, bottom, left, right = (2 * halo for halo in window)
            return (_blur(p)[:, :, top : h - bottom, left : w - right],)

        (out,) = apply_tiled(fn, (x,), tile_size=tile_size, halo=2)
        assert np.array_equal(out, _blur(x))

    def test_inputs_and_outputs_stitch_at_their_own_dtypes(self, rng):
        # the DeGlow step's shape: a float64 image and float32 features in,
        # outputs of different channel counts and dtypes out
        image = rng.normal(0, 1, (1, 3, 30, 50))
        feats = rng.normal(0, 1, (1, 5, 30, 50)).astype(np.float32)

        def fn(a, f, window=WHOLE):
            return _blur(a) + f[:, :1], 2 * f + _blur(f)

        whole = fn(image, feats)
        tiled = apply_tiled(fn, (image, feats), tile_size=16, halo=2)
        assert [(t.shape, t.dtype) for t in tiled] == [
            ((1, 3, 30, 50), np.float64),
            ((1, 5, 30, 50), np.float32),
        ]
        for stitched, direct in zip(tiled, whole):
            assert np.array_equal(stitched, direct)

    def test_none_input_reaches_every_tile(self, rng):
        x = rng.normal(0, 1, (1, 3, 20, 20))
        seen = []

        def fn(a, f, window):
            seen.append(f)
            return (a + 1,)

        (out,) = apply_tiled(fn, (x, None), tile_size=8, halo=2)
        assert len(seen) == 9 and all(f is None for f in seen)
        assert np.array_equal(out, x + 1)

    def test_receptive_radius_scales_with_tau(self):
        four, two = DeGlowModel(features=4, tau=4), DeGlowModel(features=4, tau=2)
        assert four.receptive_radius() == 2 * two.receptive_radius()
        assert DeHazeModel(features=4).receptive_radius() > 0


def _peak_bytes(image, models, tile_size=0):
    """tracemalloc's peak of one `run_pipeline`, after a small one outside
    the measurement for lazy set-up."""
    run_pipeline(image[:32, :32], *models)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        run_pipeline(image, *models, tile_size=tile_size)
        return tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()


def _blur(p):
    # box blur of radius 2 with zero padding
    out = np.zeros_like(p)
    h, w = p.shape[2:]
    pad = np.pad(p, ((0, 0), (0, 0), (2, 2), (2, 2)))
    for dy in range(5):
        for dx in range(5):
            out += pad[:, :, dy : dy + h, dx : dx + w]
    return out / 25.0


def _open_relus(model, rng):
    # positive weights and biases keep every ReLU open, so no path from the
    # impulse dies in a dead unit; weights near 1 / fan-in keep activations
    # O(1), so the sigmoid heads do not saturate; a negative residual head
    # keeps each restored image J_t = I_t - residual positive
    for name, t in model.parameters().items():
        if name.endswith(".bias"):
            t.data = np.full(t.shape, 0.1, dtype=np.float32)
            continue
        sign = -1.0 if name.startswith("head_residual") else 1.0
        fan_in = np.prod(t.shape[1:])
        t.data = (sign * rng.uniform(0.5, 1.5, t.shape) / fan_in).astype(np.float32)
    return model


def _impulse_radii(fn, channels, size=81):
    # per input: the farthest pixel on which the centre output pixel depends
    xs = [Tensor(np.full((1, c, size, size), 0.5), requires_grad=True) for c in channels]
    out = fn(*xs)
    cotangent = np.zeros(out.shape)
    cotangent[:, :, size // 2, size // 2] = 1.0
    tsum(mul(out, Tensor(cotangent))).backward()
    radii = []
    for x in xs:
        reached = np.flatnonzero(np.any(x.grad != 0, axis=(0, 1)).any(axis=0))
        assert reached[0] > 0 and reached[-1] < size - 1, "support reached the border"
        assert reached[0] + reached[-1] == size - 1
        radii.append(size // 2 - int(reached[0]))
    return radii


def _impulse_radius(fn, size=81):
    return _impulse_radii(fn, [3], size)[0]


@pytest.mark.parametrize("tau", [1, 2])
def test_deglow_radius_matches_impulse_support(tau):
    model = _open_relus(DeGlowModel(features=4, tau=tau), np.random.default_rng(tau))
    measured = _impulse_radius(lambda x: deglow_unroll(x, model)[0])
    assert measured == model.receptive_radius() == 16 * tau


def test_deglow_step_radius_matches_impulse_support():
    # the halo of a tiled step: how far one step's residual and features read
    # of the image and of the previous step's features
    model = _open_relus(DeGlowModel(features=4, tau=3), np.random.default_rng(3))
    supports = {
        name: _impulse_radii(lambda x, f: model.step(x, [f])[index], [3, model.features])
        for name, index in (("residual", 0), ("features", 3))
    }
    image_radii = [image for image, _ in supports.values()]
    assert max(image_radii) == supports["residual"][0] == model.step_radius
    assert supports["features"][0] == model.block.radius
    assert all(feats <= model.step_radius for _, feats in supports.values())
    assert model.receptive_radius() == model.tau * model.step_radius


def test_dehaze_radius_matches_impulse_support():
    model = _open_relus(DeHazeModel(features=4), np.random.default_rng(0))
    measured = _impulse_radius(lambda x: dehaze_forward(x, model))
    assert measured == model.receptive_radius() == 13
