import numpy as np
import pytest

from nightdehaze.atmospherics import (
    GlowField,
    compose_glow,
    compose_haze,
    estimate_atmospheric_light,
    recover_radiance,
    transmission_from_depth,
)
from nightdehaze.errors import DataError, DimensionError, ParameterError


class TestTransmissionFromDepth:
    def test_zero_depth_gives_unit_transmission(self):
        t = transmission_from_depth(np.zeros((8, 8)), beta=1.0)
        assert np.all(t == 1.0)

    def test_unit_depth_half_beta(self):
        t = transmission_from_depth(np.ones((4, 4)), beta=0.5)
        assert np.allclose(t, np.exp(-0.5))
        assert abs(t[0, 0] - 0.60653) < 1e-5

    def test_depth_ramp_strictly_decreasing(self):
        depth = np.linspace(0.0, 1.0, 50)[None, :].repeat(3, axis=0)
        t = transmission_from_depth(depth, beta=1.5)
        assert np.all(np.diff(t[0]) < 0)
        assert abs(t[0, -1] - np.exp(-1.5)) < 1e-12
        assert abs(t[0, -1] - 0.22313) < 1e-5

    def test_monotone_in_depth(self, rng):
        d1 = rng.uniform(0.0, 0.8, (16, 16))
        d2 = d1 + rng.uniform(0.0, 0.2, (16, 16))
        assert np.all(
            transmission_from_depth(d1, 0.9) >= transmission_from_depth(d2, 0.9)
        )

    def test_nonpositive_beta_rejected(self):
        with pytest.raises(ParameterError):
            transmission_from_depth(np.zeros((2, 2)), beta=0.0)
        with pytest.raises(ParameterError):
            transmission_from_depth(np.zeros((2, 2)), beta=-1.0)

    def test_nonfinite_depth_rejected(self):
        depth = np.zeros((2, 2))
        depth[0, 0] = np.nan
        with pytest.raises(DataError):
            transmission_from_depth(depth, beta=1.0)


class TestComposeHaze:
    def test_unit_transmission_is_identity(self, rng):
        r = rng.uniform(0, 1, (6, 6, 3))
        out = compose_haze(r, np.ones((6, 6)), [0.7, 0.7, 0.7])
        assert np.allclose(out, r)

    def test_pure_airlight_blend(self):
        out = compose_haze(np.zeros((4, 4, 3)), np.full((4, 4), 0.5), [0.8, 0.8, 0.8])
        assert np.allclose(out, 0.4)

    def test_light_colored_reflection_is_fixed_point(self, rng):
        light = [0.6, 0.5, 0.4]
        r = np.broadcast_to(np.asarray(light), (5, 5, 3)).copy()
        t = rng.uniform(0.1, 1.0, (5, 5))
        assert np.allclose(compose_haze(r, t, light), r)

    def test_output_in_unit_range(self, rng):
        r = rng.uniform(0, 1, (8, 8, 3))
        t = rng.uniform(0.01, 1.0, (8, 8))
        out = compose_haze(r, t, rng.uniform(0, 1, 3))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_shape_mismatch_rejected(self):
        with pytest.raises(DimensionError):
            compose_haze(np.zeros((4, 4, 3)), np.ones((5, 5)), [0.5, 0.5, 0.5])


def _one_source_field(shape, value, where):
    streak = np.zeros(shape + (3,))
    streak[where] = value
    mask = np.zeros(shape)
    mask[where] = 1.0
    return GlowField(streaks=[streak], mask=mask)


class TestComposeGlow:
    def test_empty_field_is_identity(self, rng):
        j = rng.uniform(0, 1, (6, 6, 3))
        out = compose_glow(j, GlowField())
        assert np.array_equal(out, j)

    def test_zero_mask_ignores_streaks(self, rng):
        j = rng.uniform(0, 1, (6, 6, 3))
        field = GlowField(streaks=[np.full((6, 6, 3), 0.9)], mask=np.zeros((6, 6)))
        assert np.allclose(compose_glow(j, field), j)

    def test_pointwise_addition_at_masked_pixel(self):
        j = np.full((5, 5, 3), 0.5)
        out = compose_glow(j, _one_source_field((5, 5), 0.3, (2, 2)))
        assert np.allclose(out[2, 2], 0.8)
        elsewhere = np.delete(out.reshape(-1, 3), 2 * 5 + 2, axis=0)
        assert np.allclose(elsewhere, 0.5)

    def test_additive_and_clamped(self, rng):
        j = rng.uniform(0.5, 1.0, (6, 6, 3))
        field = GlowField(streaks=[np.full((6, 6, 3), 0.9)], mask=np.ones((6, 6)))
        out = compose_glow(j, field)
        assert np.all(out >= j - 1e-12)
        assert out.max() <= 1.0

    def test_shape_mismatch_rejected(self, rng):
        j = rng.uniform(0, 1, (6, 6, 3))
        with pytest.raises(DimensionError):
            compose_glow(j, _one_source_field((5, 5), 0.3, (2, 2)))


class TestEstimateAtmosphericLight:
    def test_constant_image_returns_that_color(self, rng):
        haze = np.full((10, 10, 3), 0.35)
        t = rng.uniform(0.1, 1.0, (10, 10))
        assert np.allclose(estimate_atmospheric_light(t, haze), 0.35)

    def test_candidate_count_is_permille_floor(self, rng):
        # 100x100 -> exactly 10 candidates: the brightest pixel ranked 11th
        # darkest must not be picked, the brightest within the top 10 must be
        t = rng.uniform(0.5, 1.0, (100, 100))
        flat_t = t.reshape(-1)
        order = rng.permutation(100 * 100)[:11]
        flat_t[order] = np.linspace(0.01, 0.02, 11)
        haze = np.full((100, 100, 3), 0.2)
        flat_h = haze.reshape(-1, 3)
        flat_h[order[10]] = 0.95  # 11th darkest: outside the candidate set
        flat_h[order[4]] = 0.6  # brightest among the 10 candidates
        assert np.allclose(estimate_atmospheric_light(t, haze), 0.6)

    def test_roundtrip_recovers_known_light(self, rng):
        # far region t -> 0.01 shows nearly pure airlight
        depth = np.clip(rng.uniform(0.0, 0.6, (64, 64)), 0, 1)
        depth[-8:, -8:] = 1.0
        t = transmission_from_depth(depth, beta=4.6)
        r = rng.uniform(0, 1, (64, 64, 3))
        haze = compose_haze(r, t, [0.7, 0.7, 0.7])
        est = estimate_atmospheric_light(t, haze)
        assert np.all(np.abs(est - 0.7) < 0.02)

    def test_tie_breaks_to_lowest_linear_index(self):
        t = np.full((100, 100), 0.5)
        haze = np.full((100, 100, 3), 0.1)
        flat_h = haze.reshape(-1, 3)
        # 10 candidates, two of maximal equal intensity with different colors
        idx = [4150, 820, 3301, 99, 7777, 5023, 61, 9400, 2748, 6006]
        t.reshape(-1)[idx] = 0.01
        flat_h[3301] = [0.9, 0.3, 0.6]  # mean 0.6, higher linear index
        flat_h[820] = [0.3, 0.9, 0.6]  # mean 0.6, lowest linear index
        assert np.allclose(estimate_atmospheric_light(t, haze), [0.3, 0.9, 0.6])

    def test_output_is_an_actual_candidate_pixel(self, rng):
        t = rng.uniform(0, 1, (40, 40))
        haze = rng.uniform(0, 1, (40, 40, 3))
        est = estimate_atmospheric_light(t, haze)
        flat = haze.reshape(-1, 3)
        assert any(np.array_equal(est, px) for px in flat)

    def test_single_pixel_image(self):
        assert np.allclose(
            estimate_atmospheric_light(np.array([[0.3]]), np.full((1, 1, 3), 0.6)), 0.6
        )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("which", ["t", "haze"])
    def test_non_finite_input_rejected(self, rng, which, bad):
        inputs = {"t": rng.uniform(0, 1, (10, 10)), "haze": rng.uniform(0, 1, (10, 10, 3))}
        inputs[which][4, 7] = bad
        with pytest.raises(DataError, match=which):
            estimate_atmospheric_light(inputs["t"], inputs["haze"])


class TestRecoverRadiance:
    def test_exact_inverse_of_compose(self, rng):
        r = rng.uniform(0, 1, (16, 16, 3))
        t = rng.uniform(0.05, 1.0, (16, 16))
        light = rng.uniform(0, 1, 3)
        haze = compose_haze(r, t, light)
        back = recover_radiance(haze, t, light, t_min=0.05)
        assert np.max(np.abs(back - r)) < 1e-6

    def test_unit_transmission_is_identity(self, rng):
        j = rng.uniform(0, 1, (6, 6, 3))
        assert np.allclose(recover_radiance(j, np.ones((6, 6)), [0.5, 0.5, 0.5]), j)

    def test_light_colored_haze_recovers_light(self, rng):
        light = [0.65, 0.65, 0.65]
        j = np.broadcast_to(np.asarray(light), (6, 6, 3)).copy()
        t = rng.uniform(0.01, 1.0, (6, 6))
        assert np.allclose(recover_radiance(j, t, light), j)

    def test_output_clamped(self, rng):
        out = recover_radiance(
            rng.uniform(0, 1, (8, 8, 3)), rng.uniform(0, 1, (8, 8)), [0.9, 0.9, 0.9]
        )
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_invalid_t_min_rejected(self):
        with pytest.raises(ParameterError):
            recover_radiance(np.zeros((2, 2, 3)), np.ones((2, 2)), [0, 0, 0], t_min=0.0)

    @pytest.mark.parametrize("which", ["haze", "t", "light"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_input_rejected(self, which, bad):
        args = {"haze": np.full((4, 4, 3), 0.5), "t": np.full((4, 4), 0.5), "light": np.ones(3)}
        args[which].flat[1] = bad
        with pytest.raises(DataError, match=which):
            recover_radiance(args["haze"], args["t"], args["light"])

    def test_deterministic(self, rng):
        j = rng.uniform(0, 1, (8, 8, 3))
        t = rng.uniform(0, 1, (8, 8))
        a = recover_radiance(j, t, [0.5, 0.5, 0.5])
        b = recover_radiance(j, t, [0.5, 0.5, 0.5])
        assert np.array_equal(a, b)

