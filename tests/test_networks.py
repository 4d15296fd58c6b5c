import gc
import hashlib
import tracemalloc
import weakref

import numpy as np
import pytest

from nightdehaze import networks
from nightdehaze.engine import Tensor, no_grad
from nightdehaze.engine import tensor as tensor_module
from nightdehaze.errors import CheckpointError, DimensionError, ParameterError
from nightdehaze.networks import (
    MAX_TAU,
    DeGlowModel,
    DeHazeModel,
    LossConfig,
    UnrollStep,
    deglow_loss,
    deglow_steps,
    deglow_unroll,
    dehaze_forward,
    dehaze_loss,
    load_model,
    save_model,
)

from conftest import REFERENCE_CORE, REFERENCE_CORE_REASON, blas_core

# sha256 of the sorted parameters' gradients in TestDeGlowLoss._tape_case, made on
# REFERENCE_CORE when every op output kept its array on the tape
LEAF_GRADIENTS_SHA256 = "b8c9738fc346ead5dbdaf9e18f07251dacdd8d0688fb656e15b335dda752fbab"


@pytest.fixture
def image(rng):
    return Tensor(rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32))


class TestDeGlowStep:
    def test_zero_weights_outputs(self, image):
        model = DeGlowModel(features=8)  # weights start at zero
        residual, glow_prob, streaks = model.step(image)[:3]
        assert np.all(residual.data == 0)
        assert np.allclose(glow_prob.data, 0.5)
        assert np.all(streaks.data == 0)

    def test_output_shapes(self, rng):
        model = DeGlowModel(features=8).init(rng)
        x = Tensor(rng.uniform(0, 1, (1, 3, 64, 64)).astype(np.float32))
        residual, glow_prob, streaks = model.step(x)[:3]
        assert residual.shape == (1, 3, 64, 64)
        assert glow_prob.shape == (1, 1, 64, 64)
        assert streaks.shape == (1, 3, 64, 64)

    def test_glow_probability_in_open_interval(self, rng, image):
        model = DeGlowModel(features=8).init(rng, std=0.1)
        _, glow_prob, _ = model.step(image)[:3]
        assert np.all(glow_prob.data > 0) and np.all(glow_prob.data < 1)

    def test_streaks_nonnegative(self, rng, image):
        model = DeGlowModel(features=8).init(rng, std=0.1)
        _, _, streaks = model.step(image)[:3]
        assert np.all(streaks.data >= 0)

    def test_wrong_channel_count_rejected(self, rng):
        model = DeGlowModel(features=8)
        with pytest.raises(DimensionError):
            model.step(Tensor(rng.uniform(0, 1, (1, 4, 8, 8))))

    def test_invalid_tau_rejected(self):
        for tau in (0, MAX_TAU + 1):
            with pytest.raises(ParameterError):
                DeGlowModel(tau=tau)


class TestDeGlowUnroll:
    def test_zero_model_is_identity(self, image):
        model = DeGlowModel(features=8, tau=3)
        steps = list(deglow_steps(image, model, model.step))
        assert np.array_equal(steps[-1].restored.data, image.data)
        assert len(steps) == 3

    def test_single_step(self, rng, image):
        model = DeGlowModel(features=8, tau=1).init(rng, std=0.1)
        steps = list(deglow_steps(image, model, model.step))
        assert len(steps) == 1
        assert np.allclose(steps[0].restored.data, image.data - steps[0].residual.data)

    def test_scripted_constant_residual(self, image):
        class Scripted(DeGlowModel):
            def step(self, img, prev_features=None):
                c = Tensor(np.full_like(img.data, 0.01))
                zeros = Tensor(np.zeros_like(img.data))
                half = Tensor(np.full(img.data.shape[:1] + (1,) + img.data.shape[2:], 0.5))
                return c, half, zeros, None

        final, _ = deglow_unroll(image, Scripted(features=8, tau=3))
        assert np.allclose(final.data, image.data - 3 * 0.01, atol=1e-6)

    def test_telescoping_sum(self, rng, image):
        model = DeGlowModel(features=8, tau=3).init(rng, std=0.1)
        steps = list(deglow_steps(image, model, model.step))
        total = sum(step.residual.data for step in steps)
        assert np.max(np.abs(steps[-1].restored.data - (image.data - total))) < 1e-6

    def test_unroll_returns_the_last_step(self, rng, image):
        model = DeGlowModel(features=8, tau=3).init(rng, std=0.1)
        final, last = deglow_unroll(image, model)
        want = list(deglow_steps(image, model, model.step))[-1]
        assert final is last.restored
        for name in ("residual", "glow_prob", "streaks", "restored"):
            assert getattr(last, name).data.tobytes() == getattr(want, name).data.tobytes()

    def test_finished_steps_are_released(self, image):
        # while step t runs, step t - 1's residual, glow and streaks are dead,
        # and so are its features once taken out of the one-item list that
        # hands them over: the unroll keeps the last step, not the trace of
        # every step
        dead_at_step = []
        outputs = []

        def step(img, prev_features):
            if outputs:
                prev_features.pop()  # what the block's gate does
                dead_at_step.append([r() is None for r in outputs[-1]])
            arrays = [
                np.full_like(img.data, 0.01),
                np.full_like(img.data[:, :1], 0.5),
                np.zeros_like(img.data),
                np.zeros((1, 8) + img.shape[2:], np.float32),
            ]
            outputs.append([weakref.ref(a) for a in arrays])
            return [Tensor(a) for a in arrays]

        with no_grad():
            final, _ = deglow_unroll(image, DeGlowModel(features=8, tau=4), step=step)
        assert dead_at_step == [[True] * 4] * 3
        assert np.allclose(final.data, image.data - 4 * 0.01, atol=1e-6)

    def test_block_frees_features_and_h_at_their_last_reader(self, rng):
        # without a tape the previous step's features are dead once the gate
        # has read them, and h, the paths' common input, once the last
        # path's first conv has read it
        model = DeGlowModel(features=4, tau=3).init(rng, std=0.1)
        block = model.block
        seen = {"features": [], "h": []}
        events = []

        class Spy:
            def __init__(self, conv, before):
                self.conv, self.before, self.radius = conv, before, conv.radius

            def __call__(self, x, window):
                self.before(x)
                return self.conv(x, window)

        def first_path_conv(x):
            events.append(("features dead", all(r() is None for r in seen["features"])))

        def last_path_first_conv(x):
            seen["h"].append(weakref.ref(x.data))

        def last_path_second_conv(x):
            events.append(("h dead", seen["h"][-1]() is None))

        block.paths[0][0] = Spy(block.paths[0][0], first_path_conv)
        block.paths[-1][0] = Spy(block.paths[-1][0], last_path_first_conv)
        block.paths[-1][1] = Spy(block.paths[-1][1], last_path_second_conv)

        def step(img, prev_features):
            outputs = model.step(img, prev_features)
            seen["features"].append(weakref.ref(outputs[3].data))
            return outputs

        image = rng.uniform(0, 1, (1, 3, 24, 24))
        with no_grad():
            deglow_unroll(image, model, step=step)
        assert events == [("features dead", True), ("h dead", True)] * model.tau


class TestDeGlowLoss:
    def _targets(self, rng, shape=(1, 3, 16, 16)):
        return {
            "haze": rng.uniform(0, 1, shape).astype(np.float32),
            "streak": rng.uniform(0, 0.3, shape).astype(np.float32),
            "glow": (rng.uniform(0, 1, (shape[0], 1) + shape[2:]) > 0.5).astype(np.float32),
        }

    def _perfect_trace(self, targets):
        g = targets["glow"]
        saturated = np.clip(g, 1e-12, 1 - 1e-12)
        return [
            UnrollStep(
                residual=Tensor(np.zeros_like(targets["haze"])),
                glow_prob=Tensor(saturated),
                streaks=Tensor(targets["streak"]),
                restored=Tensor(targets["haze"]),
            )
        ]

    def test_perfect_fit_loss_near_zero(self, rng):
        targets = self._targets(rng)
        loss = deglow_loss(self._perfect_trace(targets), targets)
        assert loss.item() < 1e-5

    def test_lambda_ablation_reduces_to_reconstruction_mse(self, rng):
        targets = self._targets(rng)
        restored = rng.uniform(0, 1, targets["haze"].shape).astype(np.float32)
        trace = [
            UnrollStep(
                residual=Tensor(np.zeros_like(restored)),
                glow_prob=Tensor(np.full_like(targets["glow"], 0.5)),
                streaks=Tensor(np.zeros_like(restored)),
                restored=Tensor(restored),
            )
        ]
        loss = deglow_loss(trace, targets, LossConfig(lambda1=0.0, lambda2=0.0))
        assert abs(loss.item() - np.mean((restored - targets["haze"]) ** 2)) < 1e-6

    def test_uniform_glow_probability_costs_ln2(self, rng):
        targets = self._targets(rng)
        targets["haze"] = targets["haze"] * 0  # zero out everything else
        targets["streak"] = targets["streak"] * 0
        trace = [
            UnrollStep(
                residual=Tensor(np.zeros_like(targets["haze"])),
                glow_prob=Tensor(np.full_like(targets["glow"], 0.5)),
                streaks=Tensor(np.zeros_like(targets["streak"])),
                restored=Tensor(np.zeros_like(targets["haze"])),
            )
        ]
        cfg = LossConfig(lambda1=0.0, lambda2=1.0)
        assert abs(deglow_loss(trace, targets, cfg).item() - np.log(2)) < 1e-5

    def test_loss_sums_over_steps(self, rng):
        targets = self._targets(rng)
        trace1 = self._perfect_trace(targets)
        one = deglow_loss(trace1, targets).item()
        two = deglow_loss(trace1 * 2, targets).item()
        assert abs(two - 2 * one) < 1e-9

    def test_nonbinary_glow_target_rejected(self, rng):
        targets = self._targets(rng)
        targets["glow"] = targets["glow"] * 0.7
        with pytest.raises(ParameterError):
            deglow_loss(self._perfect_trace(self._targets(rng)), targets)

    def test_loss_nonnegative(self, rng):
        model = DeGlowModel(features=8, tau=2).init(rng, std=0.1)
        image = Tensor(rng.uniform(0, 1, (1, 3, 16, 16)).astype(np.float32))
        loss = deglow_loss(deglow_steps(image, model, model.step), self._targets(rng))
        assert loss.item() >= 0

    def test_negative_weights_rejected(self):
        with pytest.raises(ParameterError):
            LossConfig(lambda1=-0.1)

    def _tape_case(self, rng):
        model = DeGlowModel(features=4, tau=2).init(rng, std=0.1)
        image = rng.uniform(0, 1, (2, 3, 16, 16)).astype(np.float32)
        return model, image, self._targets(rng, image.shape)

    def test_tape_holds_under_52_feature_maps(self, rng):
        # every array the loss's tape holds, node data and the arrays its
        # adjoints saved, in N x F x H x W float32 maps: 41.6 when an op's
        # output stands on the tape as a data-free node, 62.4 when each
        # output was its own node and kept its array
        model, image, targets = self._tape_case(rng)
        arrays = [tracemalloc.DomainFilter(True, np.lib.tracemalloc_domain)]
        tracemalloc.start()
        try:
            loss = deglow_loss(deglow_steps(image, model, model.step), targets)
            held = sum(t.size for t in tracemalloc.take_snapshot().filter_traces(arrays).traces)
        finally:
            tracemalloc.stop()
        assert loss.requires_grad
        assert held / (2 * 4 * 16 * 16 * 4) < 52

    def test_forward_frees_what_no_adjoint_reads(self, rng, monkeypatch):
        # with a tape recording, no adjoint reads the path outputs that
        # add_n sums or the values that mean averages (mse's squares, bce's
        # sums): each is freed once the forward drops it
        freed = {"add_n": [], "mean": []}
        real_add_n, real_mean = networks.add_n, tensor_module.mean

        def spied_add_n(tensors):
            def summands():
                for t in tensors:
                    freed["add_n"].append(weakref.ref(t.data))
                    yield t

            return real_add_n(summands())

        def spied_mean(a):
            freed["mean"].append(weakref.ref(a.data))
            return real_mean(a)

        monkeypatch.setattr(networks, "add_n", spied_add_n)
        monkeypatch.setattr(tensor_module, "mean", spied_mean)
        model, image, targets = self._tape_case(rng)
        gc.disable()
        try:
            loss = deglow_loss(deglow_steps(image, model, model.step), targets)
            alive = {name: sum(r() is not None for r in refs) for name, refs in freed.items()}
        finally:
            gc.enable()
        assert loss.requires_grad
        # 3 paths per step; per step a bce and 3 mses
        assert {name: len(refs) for name, refs in freed.items()} == {"add_n": 6, "mean": 8}
        assert alive == {"add_n": 0, "mean": 0}

    @pytest.mark.skipif(blas_core() != REFERENCE_CORE, reason=REFERENCE_CORE_REASON)
    def test_leaf_gradients_keep_their_bytes(self, rng):
        # the digest of the leaf gradients when every op output kept its
        # array on the tape: freeing what no adjoint reads moves no byte
        model, image, targets = self._tape_case(rng)
        deglow_loss(deglow_steps(image, model, model.step), targets).backward()
        digest = hashlib.sha256()
        for _, t in sorted(model.parameters().items()):
            digest.update(t.grad.tobytes())
        assert digest.hexdigest() == LEAF_GRADIENTS_SHA256


class TestDeHaze:
    def test_zero_model_outputs_half(self, image):
        model = DeHazeModel(features=8)
        out = dehaze_forward(image, model)
        assert np.allclose(out.data, 0.5)

    def test_output_shape(self, rng):
        model = DeHazeModel(features=8).init(rng)
        x = Tensor(rng.uniform(0, 1, (2, 3, 24, 20)).astype(np.float32))
        assert dehaze_forward(x, model).shape == (2, 1, 24, 20)

    def test_wrong_channels_rejected(self, rng):
        with pytest.raises(DimensionError):
            dehaze_forward(Tensor(rng.uniform(0, 1, (1, 1, 8, 8))), DeHazeModel(features=8))


class TestDeHazeLoss:
    def test_identical_maps_zero(self, rng):
        t = Tensor(rng.uniform(0, 1, (1, 1, 8, 8)))
        assert dehaze_loss(t, t).item() == 0.0

    def test_constant_maps(self):
        a = Tensor(np.full((1, 1, 4, 4), 0.2))
        b = Tensor(np.full((1, 1, 4, 4), 0.5))
        assert abs(dehaze_loss(a, b).item() - 0.09) < 1e-9

    def test_symmetry(self, rng):
        a = Tensor(rng.uniform(0, 1, (1, 1, 6, 6)))
        b = Tensor(rng.uniform(0, 1, (1, 1, 6, 6)))
        assert abs(dehaze_loss(a, b).item() - dehaze_loss(b, a).item()) < 1e-12

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(DimensionError):
            dehaze_loss(
                Tensor(rng.uniform(0, 1, (1, 1, 4, 4))),
                Tensor(rng.uniform(0, 1, (1, 1, 5, 5))),
            )


class TestModelCheckpoints:
    def test_deglow_round_trip_bit_exact(self, tmp_path, rng):
        model = DeGlowModel(features=8, tau=2).init(rng, std=0.1)
        path = tmp_path / "m.nckp"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, DeGlowModel)
        assert back.features == 8 and back.tau == 2
        for name, t in model.parameters().items():
            assert np.array_equal(back.parameters()[name].data, t.data)

    def test_dehaze_round_trip(self, tmp_path, rng):
        model = DeHazeModel(features=4).init(rng, std=0.1)
        path = tmp_path / "h.nckp"
        save_model(model, path)
        back = load_model(path)
        assert isinstance(back, DeHazeModel)
        assert back.features == 4
        for name, t in model.parameters().items():
            assert np.array_equal(back.parameters()[name].data, t.data)

    def test_save_is_deterministic(self, tmp_path, rng):
        model = DeGlowModel(features=4).init(rng, std=0.1)
        save_model(model, tmp_path / "a.nckp")
        save_model(model, tmp_path / "b.nckp")
        assert (tmp_path / "a.nckp").read_bytes() == (tmp_path / "b.nckp").read_bytes()

    def test_descriptorless_checkpoint_rejected(self, tmp_path, rng):
        from nightdehaze.engine import save_checkpoint

        save_checkpoint(tmp_path / "r.nckp", {"w": np.zeros(3, dtype=np.float32)})
        with pytest.raises(CheckpointError):
            load_model(tmp_path / "r.nckp")
