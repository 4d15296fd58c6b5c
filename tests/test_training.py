import numpy as np
import pytest

from nightdehaze.engine import Tensor, mul, no_grad, tsum
from nightdehaze.errors import ParameterError, TrainingDiverged
from nightdehaze.networks import DeGlowModel, DeHazeModel
from nightdehaze.training import (
    TrainSchedule,
    _collate,
    deglow_batch_loss,
    dehaze_batch_loss,
    load_samples_from_manifest,
    train,
    train_deglow,
    train_dehaze,
)

from conftest import make_training_sample


def tiny_schedule(**overrides):
    defaults = dict(
        learning_rate=0.005,
        batch_size=2,
        max_iterations=10,
        val_interval=5,
        checkpoint_interval=10**9,
        seed=0,
    )
    defaults.update(overrides)
    return TrainSchedule(**defaults)


@pytest.fixture(scope="module")
def samples():
    return [make_training_sample(seed, size=16) for seed in range(4)]


class TestTrainLoop:
    def test_zero_lr_freezes_parameters(self, samples, rng):
        model = DeGlowModel(features=4, tau=2).init(rng)
        before = {n: t.data.copy() for n, t in model.parameters().items()}
        train_deglow(model, samples, tiny_schedule(learning_rate=0.0))
        for name, t in model.parameters().items():
            assert np.array_equal(t.data, before[name])

    def test_deterministic_given_seed(self, samples):
        results = []
        for _ in range(2):
            model = DeGlowModel(features=4, tau=2).init(np.random.default_rng(1))
            train_deglow(model, samples, tiny_schedule())
            results.append({n: t.data.copy() for n, t in model.parameters().items()})
        for name in results[0]:
            assert np.array_equal(results[0][name], results[1][name])

    def test_loss_log_one_entry_per_iteration(self, samples, rng):
        model = DeHazeModel(features=4).init(rng)
        result = train_dehaze(model, samples, tiny_schedule(max_iterations=7))
        assert [it for it, _ in result.loss_log] == list(range(1, 8))

    def test_plateau_drops_lr_by_ten(self, rng):
        # scripted flat loss: validation can never improve
        model = DeHazeModel(features=4).init(rng)
        flat = lambda m, b: tsum(mul(m.head.bias, 0.0)) + 1.0

        schedule = tiny_schedule(
            learning_rate=0.5, max_iterations=200, val_interval=10, plateau_patience=50
        )
        dataset = [make_training_sample(0, size=16)]
        result = train(model, dataset, schedule, flat, val_set=dataset)
        assert result.lr_log, "plateau never triggered"
        first_it, first_lr = result.lr_log[0]
        assert first_lr == pytest.approx(0.05)
        # best val was set at iteration 10; patience 50 expires at 70
        assert first_it == 70

    def test_divergence_aborts_with_iteration(self, samples, rng):
        model = DeHazeModel(features=4).init(rng)
        bad = lambda m, b: Tensor(np.float32(np.nan))
        with pytest.raises(TrainingDiverged) as err:
            train(model, samples, tiny_schedule(), bad)
        assert err.value.iteration == 1

    def test_non_finite_validation_loss_diverges(self, samples, rng):
        # finite on the training batches (size 2), NaN on the validation batch (size 3)
        def scripted(model, batch):
            return Tensor(np.float32(1.0 if len(batch["haze"]) == 2 else np.nan))

        model = DeHazeModel(features=4).init(rng)
        with pytest.raises(TrainingDiverged) as err:
            train(model, samples, tiny_schedule(), scripted, val_set=samples[:3])
        assert err.value.iteration == 5 and np.isnan(err.value.loss)

    def test_empty_dataset_rejected(self, rng):
        with pytest.raises(ParameterError):
            train_dehaze(DeHazeModel(features=4).init(rng), [], tiny_schedule())

    def test_checkpoint_trail(self, samples, rng, tmp_path):
        model = DeHazeModel(features=4).init(rng)
        result = train_dehaze(
            model,
            samples,
            tiny_schedule(max_iterations=10, checkpoint_interval=5),
            checkpoint_dir=tmp_path / "ckpt",
        )
        names = [p.split("/")[-1] for p in result.checkpoints]
        assert names == ["ckpt_000005.nckp", "ckpt_000010.nckp", "ckpt_final.nckp"]
        for p in result.checkpoints:
            from nightdehaze.networks import load_model

            assert load_model(p).features == 4

    def test_invalid_schedule_rejected(self):
        with pytest.raises(ParameterError):
            TrainSchedule(learning_rate=-1)
        with pytest.raises(ParameterError):
            TrainSchedule(batch_size=0)


class TestValidationWithoutTape:
    @pytest.mark.parametrize("kind", ["deglow", "dehaze"])
    def test_batch_loss_bytes_do_not_depend_on_tape(self, samples, rng, kind):
        if kind == "deglow":
            model, loss_fn = DeGlowModel(features=4, tau=2).init(rng, std=0.1), deglow_batch_loss
        else:
            model, loss_fn = DeHazeModel(features=4).init(rng, std=0.1), dehaze_batch_loss
        batch = _collate(samples, range(len(samples)))
        taped = loss_fn(model, batch)
        with no_grad():
            untaped = loss_fn(model, batch)
        assert taped._parents != () and untaped._parents == ()
        assert untaped.data.tobytes() == taped.data.tobytes()

    def test_validation_loss_records_no_tape(self, samples, rng):
        losses = []

        def recording(model, batch):
            loss = dehaze_batch_loss(model, batch)
            losses.append((len(batch["haze"]), loss._parents != ()))
            return loss

        val_set = samples[:3]
        train(DeHazeModel(features=4).init(rng), samples, tiny_schedule(), recording, val_set)
        # batch size 2 for training, 3 for the two validations
        assert losses.count((2, True)) == 10 and losses.count((3, False)) == 2
        assert len(losses) == 12


class TestManifestLoading:
    def test_round_trip_through_disk(self, tmp_path):
        from nightdehaze.synthesis import build_dataset, procedural_scene

        from conftest import small_config

        cfg = small_config(
            24, beta_samples_per_image=1, q_samples_per_image=1, rng_seed=8
        )
        r = np.random.default_rng(5)
        pairs = [procedural_scene(r, (24, 24)) for _ in range(2)]
        build_dataset(pairs, cfg, tmp_path / "d")

        deglow = load_samples_from_manifest(tmp_path / "d", "deglow")
        assert len(deglow) == 2
        s = deglow[0]
        assert s["observed"].shape == (3, 24, 24)
        assert s["haze"].shape == (3, 24, 24)
        assert s["streak"].shape == (3, 24, 24)
        assert s["glow"].shape == (1, 24, 24)
        assert set(np.unique(s["glow"])) <= {0.0, 1.0}

        dehaze = load_samples_from_manifest(tmp_path / "d", "dehaze")
        assert dehaze[0]["haze"].shape == (3, 24, 24)
        assert dehaze[0]["transmission"].shape == (1, 24, 24)

    def test_unknown_kind_rejected(self, tmp_path):
        with pytest.raises(ParameterError):
            load_samples_from_manifest(tmp_path, "other")
