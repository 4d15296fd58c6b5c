import threading

import numpy as np
import pytest

from nightdehaze.engine import Tensor, relu, tsum
from nightdehaze.engine.gradcheck import max_rel_error, numeric_grad
from nightdehaze.engine.tensor import _make
from nightdehaze.gradsuite import TOLERANCE, _kink_free, check, run_gradient_suite


@pytest.fixture(scope="module")
def suite_results():
    return run_gradient_suite(seed=0)


class TestNumericGrad:
    def test_quadratic(self):
        x = np.array([1.0, -2.0, 3.0])
        grad = numeric_grad(lambda v: float((v**2).sum()), x.copy())
        assert np.allclose(grad, 2 * x, atol=1e-6)

    def test_coordinate_subset(self):
        x = np.arange(6, dtype=np.float64)
        grad = numeric_grad(lambda v: float((v**3).sum()), x.copy(), indices=[1, 4])
        assert grad[0] == 0.0 and grad[2] == 0.0
        assert abs(grad[1] - 3.0) < 1e-5
        assert abs(grad[4] - 48.0) < 1e-4

    def test_input_restored_after_probing(self):
        x = np.array([0.5, 0.25])
        orig = x.copy()
        numeric_grad(lambda v: float(v.sum()), x)
        assert np.array_equal(x, orig)


class TestMaxRelError:
    def test_identical_is_zero(self, rng):
        g = rng.normal(0, 1, 10)
        assert max_rel_error(g, g.copy()) == 0.0

    def test_relative_scaling(self):
        assert abs(max_rel_error(np.array([100.0]), np.array([101.0])) - 1 / 101) < 1e-12

    def test_tiny_values_compared_absolutely(self):
        # both below the floor: compared by absolute difference
        assert max_rel_error(np.array([1e-9]), np.array([2e-9])) < 1e-8


class TestKinkFree:
    def test_rejects_interval_that_flips_a_relu(self):
        x = Tensor(np.array([5e-4, 0.5]), requires_grad=True)
        assert not _kink_free(lambda: tsum(relu(x)), x.data, 0)

    def test_accepts_interval_that_flips_none(self):
        x = Tensor(np.array([5e-4, 0.5]), requires_grad=True)
        assert _kink_free(lambda: tsum(relu(x)), x.data, 1)
        assert np.array_equal(x.data, [5e-4, 0.5])


def _square_with_wrong_adjoint(a):
    def backward(g):
        a._accumulate(g * a.data)  # d(a^2)/da is 2a

    return _make(a.data * a.data, (a,), backward)


class TestCheck:
    def test_wrong_adjoint_exceeds_tolerance(self, rng):
        x = Tensor(rng.normal(0, 1, 6), requires_grad=True)
        assert check(lambda: tsum(_square_with_wrong_adjoint(x)), [x], 6) > TOLERANCE


class TestGradientSuite:
    def test_all_cases_within_tolerance(self, suite_results):
        results = suite_results
        names = [name for name, _ in results]
        # every differentiable op plus full model steps must be covered
        for required in (
            "dilated_conv2d DF=1",
            "dilated_conv2d DF=2",
            "dilated_conv2d DF=3",
            "relu",
            "concat_channels",
            "mse_loss",
            "bce_loss",
            "deglow_step",
            "dehaze_loss",
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
