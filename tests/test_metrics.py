import math

import numpy as np
import pytest

from nightdehaze.errors import DimensionError
from nightdehaze.metrics import (
    QualityReport,
    evaluate_pairs,
    format_report,
    psnr,
    ssim,
)

from conftest import ssim_reference


class TestPsnr:
    def test_identical_images_infinite(self, rng):
        a = rng.uniform(0, 1, (8, 8, 3))
        assert math.isinf(psnr(a, a.copy()))

    def test_uniform_offset_twenty_db(self):
        a = np.full((16, 16, 3), 0.4)
        b = np.full((16, 16, 3), 0.5)
        assert abs(psnr(a, b) - 20.0) < 1e-6

    def test_symmetric(self, rng):
        a = rng.uniform(0, 1, (8, 8, 3))
        b = rng.uniform(0, 1, (8, 8, 3))
        assert psnr(a, b) == psnr(b, a)

    def test_strictly_decreasing_with_noise_amplitude(self, rng):
        ref = rng.uniform(0.3, 0.7, (32, 32, 3))
        noise = rng.normal(0, 1, ref.shape)
        values = [psnr(ref, ref + amp * noise) for amp in (0.01, 0.03, 0.09)]
        assert values[0] > values[1] > values[2]

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            psnr(rng.uniform(0, 1, (4, 4, 3)), rng.uniform(0, 1, (5, 5, 3)))


class TestSsim:
    def test_self_similarity_is_one(self, rng):
        a = rng.uniform(0, 1, (16, 16, 3))
        assert abs(ssim(a, a.copy()) - 1.0) < 1e-9

    def test_constant_fields_luminance_only(self):
        a = np.full((16, 16, 3), 0.4)
        b = np.full((16, 16, 3), 0.6)
        c1 = 0.01**2
        expected = (2 * 0.4 * 0.6 + c1) / (0.4**2 + 0.6**2 + c1)
        assert abs(ssim(a, b) - expected) < 1e-9

    def test_symmetric(self, rng):
        a = rng.uniform(0, 1, (16, 16, 3))
        b = rng.uniform(0, 1, (16, 16, 3))
        assert abs(ssim(a, b) - ssim(b, a)) < 1e-12

    def test_at_most_one(self, rng):
        for _ in range(5):
            a = rng.uniform(0, 1, (16, 16, 3))
            b = np.clip(a + rng.normal(0, 0.05, a.shape), 0, 1)
            assert ssim(a, b) <= 1.0

    def test_agrees_with_brute_force_oracle(self, rng):
        for _ in range(5):
            a = rng.uniform(0, 1, (16, 16, 3))
            b = np.clip(a + rng.normal(0, 0.1, a.shape), 0, 1)
            assert abs(ssim(a, b) - ssim_reference(a, b)) < 1e-6

    def test_grayscale_input(self, rng):
        a = rng.uniform(0, 1, (16, 16))
        b = np.clip(a + rng.normal(0, 0.05, a.shape), 0, 1)
        assert abs(ssim(a, b) - ssim_reference(a, b)) < 1e-6

    def test_too_small_image_rejected(self, rng):
        with pytest.raises(DimensionError):
            ssim(rng.uniform(0, 1, (8, 8, 3)), rng.uniform(0, 1, (8, 8, 3)))


class TestReport:
    def test_evaluate_pairs_summary(self, rng):
        a = rng.uniform(0, 1, (16, 16, 3))
        b = np.clip(a + 0.05, 0, 1)
        report = evaluate_pairs([("x", a, a.copy()), ("y", a, b)])
        assert isinstance(report, QualityReport)
        assert len(report.entries) == 2
        assert report.entries[0][0] == "x"
        assert math.isinf(report.entries[0][1])
        # mean psnr averages the finite entries only
        assert report.psnr_db == pytest.approx(report.entries[1][1])

    def test_all_identical_pairs_flagged_infinite(self, rng):
        a = rng.uniform(0, 1, (16, 16, 3))
        report = evaluate_pairs([("x", a, a.copy())])
        assert math.isinf(report.psnr_db)

    def test_format_report_table(self, rng):
        a = rng.uniform(0, 1, (16, 16, 3))
        text = format_report(evaluate_pairs([("img1", a, a.copy())]))
        lines = text.strip().split("\n")
        assert lines[0] == "id psnr_db ssim"
        assert lines[1].startswith("img1 inf ")
        assert lines[-1].startswith("mean ")

    def test_empty_pairs_rejected(self):
        with pytest.raises(DimensionError):
            evaluate_pairs([])
