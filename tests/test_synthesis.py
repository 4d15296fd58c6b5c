import re

import numpy as np
import pytest

from nightdehaze.atmospherics import GlowSource, recover_radiance
from nightdehaze.errors import DataError, ParameterError
from nightdehaze.synthesis import (
    GLOW_MASK_THRESHOLD,
    SynthesisConfig,
    build_dataset,
    format_manifest_line,
    glow_attenuation,
    parse_manifest,
    procedural_scene,
    render_glow_field,
    sample_scene_params,
    synthesize_example,
)

from conftest import small_config


class TestSampleSceneParams:
    def test_deterministic_given_seed(self):
        cfg = SynthesisConfig()
        a = [sample_scene_params(np.random.default_rng(7), cfg) for _ in range(5)]
        b = [sample_scene_params(np.random.default_rng(7), cfg) for _ in range(5)]
        for (b1, q1, l1), (b2, q2, l2) in zip(a, b):
            assert b1 == b2 and q1 == q2 and np.array_equal(l1, l2)

    def test_ranges_over_many_draws(self, rng):
        cfg = SynthesisConfig()
        betas, qs = [], []
        for _ in range(10000):
            beta, q, _ = sample_scene_params(rng, cfg)
            betas.append(beta)
            qs.append(q)
        assert 0.5 <= min(betas) and max(betas) <= 1.5
        assert 0.2 <= min(qs) and max(qs) <= 0.9
        # draws actually spread across the ranges
        assert max(betas) - min(betas) > 0.9
        assert max(qs) - min(qs) > 0.6

    def test_light_is_gray(self, rng):
        cfg = SynthesisConfig()
        for _ in range(100):
            _, _, light = sample_scene_params(rng, cfg)
            assert light[0] == light[1] == light[2]
            assert 0.5 <= light[0] <= 1.0


class TestGlowAttenuation:
    def test_zero_distance_is_one_both_modes(self):
        assert glow_attenuation(0.7, 0.0) == 1.0
        assert glow_attenuation(0.7, 0.0, use_taylor=True) == 1.0

    def test_exact_mode_value(self):
        assert abs(glow_attenuation(0.5, 1.0) - 0.60653) < 1e-5

    def test_taylor_mode_value(self):
        assert glow_attenuation(0.5, 1.0, use_taylor=True) == 0.5

    def test_taylor_floored_at_zero(self):
        assert glow_attenuation(0.9, 5.0, use_taylor=True) == 0.0


class TestRenderGlowField:
    def test_zero_sources(self):
        field = render_glow_field((8, 8), [], 0.5, small_config())
        assert field.source_count == 0
        assert np.all(field.mask == 0)
        assert np.all(field.streak_sum() == 0)

    def test_center_source_radial_falloff(self):
        src = GlowSource(position=(8, 8), peak_color=(1.0, 0.8, 0.6), radius=4.0)
        field = render_glow_field((17, 17), [src], 0.5, small_config())
        streak = field.streaks[0]
        assert np.allclose(streak[8, 8], [1.0, 0.8, 0.6])
        assert streak.reshape(-1, 3).max(axis=0).tolist() == [1.0, 0.8, 0.6]
        # non-increasing along the central row away from the source
        row = streak[8, :, 0]
        assert np.all(np.diff(row[8:]) <= 1e-12)
        assert np.all(np.diff(row[:9]) >= -1e-12)

    def test_mask_set_at_bright_source_positions(self):
        srcs = [
            GlowSource(position=(3, 3), peak_color=(0.9, 0.9, 0.9), radius=2.0),
            GlowSource(position=(12, 12), peak_color=(0.7, 0.6, 0.5), radius=2.0),
        ]
        field = render_glow_field((16, 16), srcs, 0.5, small_config())
        for src in srcs:
            assert field.mask[src.position] == 1.0
        assert set(np.unique(field.mask)) <= {0.0, 1.0}

    def test_mask_threshold(self):
        # peak intensity below the threshold leaves the mask empty
        src = GlowSource(
            position=(4, 4),
            peak_color=(GLOW_MASK_THRESHOLD / 2,) * 3,
            radius=2.0,
        )
        field = render_glow_field((9, 9), [src], 0.5, small_config())
        assert np.all(field.mask == 0)

    def test_out_of_bounds_source_rejected(self):
        src = GlowSource(position=(20, 2), peak_color=(1, 1, 1), radius=2.0)
        with pytest.raises(ParameterError):
            render_glow_field((8, 8), [src], 0.5, small_config())


class TestSynthesizeExample:
    def test_tiny_beta_no_sources_is_nearly_clean(self, rng):
        clean = rng.uniform(0, 1, (16, 16, 3))
        depth = rng.uniform(0, 1, (16, 16))
        observed, haze, t, glow = synthesize_example(
            clean, depth, 1e-9, 0.5, [0.7] * 3, [], small_config()
        )
        assert np.max(np.abs(observed - clean)) < 1e-6
        assert np.all(t > 1.0 - 1e-6)

    def test_hand_computed_haze_pixel(self):
        clean = np.full((4, 4, 3), 0.25)
        depth = np.full((4, 4), 0.5)
        _, haze, t, _ = synthesize_example(
            clean, depth, 1.0, 0.5, [0.8] * 3, [], small_config()
        )
        expected = np.exp(-0.5) * 0.25 + 0.8 * (1.0 - np.exp(-0.5))
        assert np.allclose(haze, expected)
        assert abs(haze[0, 0, 0] - (0.6065 * 0.25 + 0.8 * 0.3935)) < 1e-4

    def test_glow_only_adds_light(self, rng):
        clean = rng.uniform(0, 1, (16, 16, 3))
        depth = rng.uniform(0, 1, (16, 16))
        src = GlowSource(position=(8, 8), peak_color=(0.9, 0.8, 0.7), radius=5.0)
        observed, haze, _, _ = synthesize_example(
            clean, depth, 1.0, 0.4, [0.7] * 3, [src], small_config()
        )
        assert np.all(observed >= haze - 1e-12)


class TestBuildDataset:
    def _pairs(self, n, size=24):
        r = np.random.default_rng(5)
        return [procedural_scene(r, (size, size)) for _ in range(n)]

    def test_unit_product_count(self, tmp_path):
        cfg = small_config(24, beta_samples_per_image=1, q_samples_per_image=1)
        records, manifest = build_dataset(self._pairs(1), cfg, tmp_path / "d")
        assert len(records) == 1
        assert manifest is not None

    def test_product_count(self, tmp_path):
        cfg = small_config(24)
        records, _ = build_dataset(self._pairs(4), cfg, tmp_path / "d")
        assert len(records) == 4 * 3 * 3

    def test_byte_deterministic(self, tmp_path):
        cfg = small_config(24, rng_seed=11)
        pairs = self._pairs(2)
        _, m1 = build_dataset(pairs, cfg, tmp_path / "d1")
        _, m2 = build_dataset(pairs, cfg, tmp_path / "d2")
        files1 = sorted(p.name for p in (tmp_path / "d1").iterdir())
        files2 = sorted(p.name for p in (tmp_path / "d2").iterdir())
        assert files1 == files2
        for name in files1:
            assert (tmp_path / "d1" / name).read_bytes() == (
                tmp_path / "d2" / name
            ).read_bytes()

    def test_layer_invariants(self, tmp_path):
        cfg = small_config(24, rng_seed=3)
        pairs = self._pairs(2)
        records, _ = build_dataset(pairs, cfg, tmp_path / "d")
        for rec in records:
            assert cfg.beta_range[0] <= rec.beta <= cfg.beta_range[1]
            assert cfg.q_range[0] <= rec.q <= cfg.q_range[1]
            assert rec.light[0] == rec.light[1] == rec.light[2]

    def test_ground_truth_consistency(self, tmp_path):
        # recovery from the stored layers reproduces the resized clean image
        from nightdehaze.synthesis import sample_scene_params

        cfg = small_config(24, rng_seed=9)
        clean, depth = self._pairs(1)[0]
        rng = np.random.default_rng((cfg.rng_seed, 0))
        beta, q, light = sample_scene_params(rng, cfg)
        _, haze, t, _ = synthesize_example(clean, depth, beta, q, light, [], cfg)
        back = recover_radiance(haze, t, light, t_min=0.05)
        ok = t >= 0.05
        assert np.max(np.abs(back - clean)[ok]) < 1e-6

    def test_empty_pairs_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            build_dataset([], small_config(24), tmp_path / "d")

    def test_transmission_and_mask_ranges(self, tmp_path):
        cfg = small_config(24, rng_seed=2)
        records, _ = build_dataset(self._pairs(1), cfg, tmp_path / "d")
        from nightdehaze.imageio import read_pgm, read_ppm

        for rec in records[:3]:
            t = read_pgm(tmp_path / "d" / rec.paths["transmission"])
            mask = read_pgm(tmp_path / "d" / rec.paths["glow_mask"])
            streak = read_ppm(tmp_path / "d" / rec.paths["streak_sum"])
            assert t.min() > 0.0 and t.max() <= 1.0
            assert set(np.unique(mask)) <= {0.0, 1.0}
            assert streak.min() >= 0.0


class TestManifest:
    def test_round_trip(self, tmp_path):
        cfg = small_config(24, rng_seed=4)
        r = np.random.default_rng(5)
        pairs = [procedural_scene(r, (24, 24)) for _ in range(2)]
        records, manifest = build_dataset(pairs, cfg, tmp_path / "d")
        back = parse_manifest(manifest)
        assert len(back) == len(records)
        for a, b in zip(records, back):
            assert a.id == b.id
            assert a.paths == b.paths
            assert a.beta == b.beta and a.q == b.q
            assert a.light == b.light
            assert a.source_positions == b.source_positions

    def test_line_format_is_flat_key_value(self, tmp_path):
        cfg = small_config(24)
        r = np.random.default_rng(5)
        records, _ = build_dataset([procedural_scene(r, (24, 24))], cfg, tmp_path / "d")
        line = format_manifest_line(records[0])
        assert "\n" not in line
        for token in line.split(" "):
            assert "=" in token

    @pytest.mark.parametrize(
        "line, message",
        [
            ("id=rec_0 beta=1", "line 2: missing key 'observed'"),
            ("id=rec_0 observed", "line 2: expected key=value, got 'observed'"),
        ],
    )
    def test_malformed_line_names_path_line_and_key(self, tmp_path, line, message):
        cfg = small_config(24)
        r = np.random.default_rng(5)
        records, _ = build_dataset([procedural_scene(r, (24, 24))], cfg, tmp_path / "d")
        manifest = tmp_path / "manifest.txt"
        manifest.write_text(format_manifest_line(records[0]) + "\n" + line + "\n")
        with pytest.raises(DataError, match=f"{re.escape(str(manifest))} {message}"):
            parse_manifest(manifest)


class TestProceduralScene:
    def test_output_ranges(self, rng):
        clean, depth = procedural_scene(rng, (32, 48))
        assert clean.shape == (32, 48, 3)
        assert depth.shape == (32, 48)
        assert clean.min() >= 0 and clean.max() <= 1
        assert depth.min() >= 0 and depth.max() <= 1

    def test_config_validation(self):
        with pytest.raises(ParameterError):
            SynthesisConfig(beta_range=(1.5, 0.5))
        with pytest.raises(ParameterError):
            SynthesisConfig(target_size=(8, 8))
        with pytest.raises(ParameterError):
            SynthesisConfig(beta_samples_per_image=0)
