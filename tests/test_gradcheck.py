import threading

import numpy as np
import pytest

from nightdehaze.engine import Tensor, mul, relu, tsum
from nightdehaze.engine.tensor import _make
from nightdehaze.gradsuite import FLOOR, STEP, TOLERANCE, _probe, check, run_gradient_suite


@pytest.fixture(scope="module")
def suite_results():
    return run_gradient_suite(seed=0)


def _central_differences(build_loss, data):
    diffs = []
    for i in range(data.size):
        hi, lo, _ = _probe(build_loss, data, i)
        diffs.append((hi - lo) / (2.0 * STEP))
    return np.array(diffs)


def _scaled_with_adjoint(a, slope, adjoint_slope):
    """slope * a, whose adjoint claims the slope is adjoint_slope."""
    return _make(a.data * slope, (a,), lambda g: (g * adjoint_slope,))


def _square_with_wrong_adjoint(a):
    return _make(a.data * a.data, (a,), lambda g: (g * a.data,))  # d(a^2)/da is 2a


class TestNumericGrad:
    """The central difference read off one probe's two losses."""

    def test_quadratic(self):
        x = Tensor(np.array([1.0, -2.0, 3.0]), requires_grad=True)
        grad = _central_differences(lambda: tsum(mul(x, x)), x.data)
        assert np.allclose(grad, 2 * x.data, atol=1e-6)

    def test_coordinate_subset(self):
        # accepted coordinates cost one probe (two builds) each, and the
        # budget stops the scan: 1 backward build + 2 x 2 probe builds
        x = Tensor(np.arange(6, dtype=np.float64), requires_grad=True)
        builds = []

        def build_loss():
            builds.append(1)
            return tsum(mul(mul(x, x), x))

        assert check(build_loss, [x], 2) < TOLERANCE
        assert len(builds) == 1 + 2 * 2

    def test_input_restored_after_probing(self):
        x = Tensor(np.array([0.5, 0.25]), requires_grad=True)
        orig = x.data.copy()
        _central_differences(lambda: tsum(x), x.data)
        assert np.array_equal(x.data, orig)

        def failing_build():
            raise RuntimeError

        with pytest.raises(RuntimeError):
            _probe(failing_build, x.data, 1)
        assert np.array_equal(x.data, orig)


class TestMaxRelError:
    """The error measure of `check`: relative above FLOOR, absolute below."""

    def test_identical_is_zero(self):
        # at x = 0 the central difference of 2x is exactly 2
        x = Tensor(np.zeros(4), requires_grad=True)
        assert check(lambda: tsum(_scaled_with_adjoint(x, 2.0, 2.0)), [x], 4) == 0.0

    def test_relative_scaling(self):
        x = Tensor(np.zeros(1), requires_grad=True)
        err = check(lambda: tsum(_scaled_with_adjoint(x, 101.0, 100.0)), [x], 1)
        assert abs(err - 1 / 101) < 1e-9

    def test_tiny_values_compared_absolutely(self):
        # both below the floor: compared by absolute difference
        x = Tensor(np.zeros(1), requires_grad=True)
        err = check(lambda: tsum(_scaled_with_adjoint(x, 2 * FLOOR / 1000, FLOOR / 1000)), [x], 1)
        assert err < 1e-8


class TestKinkFree:
    def test_rejects_interval_that_flips_a_relu(self):
        x = Tensor(np.array([5e-4, 0.5]), requires_grad=True)
        assert not _probe(lambda: tsum(relu(x)), x.data, 0)[2]

    def test_accepts_interval_that_flips_none(self):
        x = Tensor(np.array([5e-4, 0.5]), requires_grad=True)
        assert _probe(lambda: tsum(relu(x)), x.data, 1)[2]
        assert np.array_equal(x.data, [5e-4, 0.5])

    def test_check_skips_rejected_coordinates(self):
        # coordinate 0 has the largest gradient but a kink inside its interval,
        # where the central difference reads 2.25 against the adjoint's 3
        x = Tensor(np.array([5e-4, 0.5]), requires_grad=True)
        cot = Tensor(np.array([3.0, 1.0]))
        assert check(lambda: tsum(mul(relu(x), cot)), [x], 1) < 1e-9


class TestCheck:
    def test_wrong_adjoint_exceeds_tolerance(self, rng):
        x = Tensor(rng.normal(0, 1, 6), requires_grad=True)
        assert check(lambda: tsum(_square_with_wrong_adjoint(x)), [x], 6) > TOLERANCE

    def test_nan_adjoint_fails(self):
        # NaN on 2 of 3 coordinates, checked after an exact one
        x = Tensor(np.array([1.0, 2.0, 3.0]), requires_grad=True)

        def doubled(a):
            return _make(2 * a.data, (a,), lambda g: (np.where(a.data > 1.5, np.nan, 2 * g),))

        err = check(lambda: tsum(doubled(x)), [x], 3)
        assert np.isnan(err) and not err <= TOLERANCE


class TestGradientSuite:
    def test_all_cases_within_tolerance(self, suite_results):
        results = suite_results
        names = [name for name, _ in results]
        # every differentiable op plus full model steps must be covered
        for required in (
            "dilated_conv2d DF=1",
            "dilated_conv2d DF=2",
            "dilated_conv2d DF=3",
            "dilated_conv2d windowed",
            "dilated_conv2d relu",
            "relu",
            "concat_channels",
            "mse_loss",
            "bce_loss",
            "deglow_step",
            "dehaze_loss",
            "add_n",
        ):
            assert any(required in n for n in names), f"missing case {required}"
        for name, err in results:
            assert err <= TOLERANCE, f"{name}: {err:.3e} exceeds {TOLERANCE}"

    def test_verdicts_unchanged_beside_another_threads_relu(self, suite_results):
        stop = threading.Event()

        def relu_loop():
            x = Tensor(np.linspace(-1.0, 1.0, 7), requires_grad=True)
            # the wait releases the interpreter lock between calls, so the
            # suite is not starved of it
            while not stop.wait(1e-4):
                relu(x)

        worker = threading.Thread(target=relu_loop)
        worker.start()
        try:
            results = run_gradient_suite(seed=0)
        finally:
            stop.set()
            worker.join(timeout=10)
        assert not worker.is_alive()
        assert results == suite_results
