"""SGD training loop with plateau-driven learning-rate drops.

The loop is single-threaded and fully deterministic for a fixed seed: batch
sampling uses its own RNG stream and parameter updates touch numpy arrays in
a fixed order.  Validation loss is checked on a fixed held-out batch; when it
fails to improve by more than plateau_min_improvement (relative) within
plateau_patience iterations, the learning rate is divided by 10.
"""

import os
from dataclasses import dataclass, field

import numpy as np

from .engine import OptimizerState, no_grad, sgd_step
from .errors import ParameterError, TrainingDiverged
from .imageio import read_pgm, read_ppm
from .networks import (
    deglow_loss,
    deglow_steps,
    dehaze_forward,
    dehaze_loss,
    save_model,
)


@dataclass
class TrainSchedule:
    learning_rate: float = 0.01
    momentum: float = 0.9
    weight_decay: float = 0.001
    batch_size: int = 128
    max_iterations: int = 1200
    plateau_patience: int = 50
    plateau_min_improvement: float = 0.001
    val_interval: int = 10
    checkpoint_interval: int = 100
    seed: int = 0

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ParameterError("learning_rate must be >= 0")
        if self.batch_size < 1:
            raise ParameterError("batch_size must be >= 1")
        for key in ("val_interval", "checkpoint_interval"):
            if getattr(self, key) < 1:
                raise ParameterError(f"{key} must be >= 1, got {getattr(self, key)}")


@dataclass
class TrainResult:
    loss_log: list = field(default_factory=list)  # (iteration, train loss)
    val_log: list = field(default_factory=list)  # (iteration, val loss)
    lr_log: list = field(default_factory=list)  # (iteration, new lr) after drops
    checkpoints: list = field(default_factory=list)


def deglow_batch_loss(model, batch, loss_config=None):
    return deglow_loss(deglow_steps(batch["observed"], model, model.step), batch, loss_config)


def dehaze_batch_loss(model, batch):
    pred = dehaze_forward(batch["haze"], model)
    return dehaze_loss(pred, batch["transmission"])


def _collate(dataset, indices):
    # np.stack makes a new array, so float32 samples need no second copy
    return {
        k: np.stack([dataset[i][k] for i in indices]).astype(np.float32, copy=False)
        for k in dataset[0]
    }


# a diverging run is reported once, as TrainingDiverged from the finite-loss
# checks, not also as numpy overflow warnings
@np.errstate(over="ignore", invalid="ignore")
def train(model, dataset, schedule, loss_fn, val_set=None, checkpoint_dir=None):
    """Run momentum SGD; returns a TrainResult with logs and checkpoint paths.

    dataset / val_set: lists of per-sample dicts of C x H x W float arrays.
    loss_fn(model, batch) must return a scalar Tensor.  A non-finite training
    or validation loss raises TrainingDiverged.
    """
    if not dataset:
        raise ParameterError("dataset is empty")
    rng = np.random.default_rng(schedule.seed)
    params = model.parameters()
    state = OptimizerState(
        learning_rate=schedule.learning_rate,
        momentum=schedule.momentum,
        weight_decay=schedule.weight_decay,
        no_decay={name for name in params if name.endswith(".bias") or name == "bias"},
    )
    arrays = {name: t.data for name, t in params.items()}
    val_batch = _collate(val_set, range(len(val_set))) if val_set else None
    result = TrainResult()
    best_val = np.inf
    best_iter = 0
    if checkpoint_dir:
        os.makedirs(checkpoint_dir, exist_ok=True)

    for it in range(1, schedule.max_iterations + 1):
        idx = rng.integers(0, len(dataset), size=schedule.batch_size)
        batch = _collate(dataset, idx)
        model.zero_grad()
        loss = loss_fn(model, batch)
        loss_val = loss.item()
        if not np.isfinite(loss_val):
            raise TrainingDiverged(it, loss_val)
        loss.backward()
        grads = {
            name: (t.grad if t.grad is not None else np.zeros_like(t.data))
            for name, t in params.items()
        }
        sgd_step(arrays, grads, state)
        result.loss_log.append((it, loss_val))

        if it % schedule.val_interval == 0:
            if val_batch is not None:
                with no_grad():
                    vloss = loss_fn(model, val_batch)
                vval = vloss.item()
                if not np.isfinite(vval):
                    raise TrainingDiverged(it, vval)
            else:
                vval = loss_val
            result.val_log.append((it, vval))
            if vval < best_val * (1.0 - schedule.plateau_min_improvement):
                best_val = vval
                best_iter = it
            elif it - best_iter > schedule.plateau_patience:
                state.learning_rate /= 10.0
                result.lr_log.append((it, state.learning_rate))
                best_iter = it

        if checkpoint_dir and it % schedule.checkpoint_interval == 0:
            path = os.path.join(checkpoint_dir, f"ckpt_{it:06d}.nckp")
            save_model(model, path)
            result.checkpoints.append(path)

    if checkpoint_dir:
        path = os.path.join(checkpoint_dir, "ckpt_final.nckp")
        save_model(model, path)
        result.checkpoints.append(path)
    return result


def sample_from_layers(observed=None, haze=None, transmission=None, streak=None, glow=None):
    """Assemble a training sample dict (C x H x W float32) from H x W(x3) layers."""

    def chw(img):
        return np.ascontiguousarray(np.asarray(img).transpose(2, 0, 1)).astype(np.float32)

    sample = {}
    if observed is not None:
        sample["observed"] = chw(observed)
    if haze is not None:
        sample["haze"] = chw(haze)
    if streak is not None:
        sample["streak"] = chw(np.clip(streak, 0.0, 1.0))
    if transmission is not None:
        sample["transmission"] = np.asarray(transmission, dtype=np.float32)[None]
    if glow is not None:
        sample["glow"] = np.asarray(glow, dtype=np.float32)[None]
    return sample


def load_samples_from_manifest(data_dir, kind):
    """Load per-record training samples for 'deglow' or 'dehaze' from a
    dataset directory containing manifest.txt and the layer files."""
    from .synthesis import parse_manifest

    if kind not in ("deglow", "dehaze"):
        raise ParameterError(f"unknown sample kind '{kind}'")
    records = parse_manifest(os.path.join(data_dir, "manifest.txt"))
    samples = []
    for rec in records:
        path = lambda key: os.path.join(data_dir, rec.paths[key])  # noqa: E731
        if kind == "deglow":
            # masks round-trip through 16-bit PGM exactly at 0/1
            samples.append(
                sample_from_layers(
                    observed=read_ppm(path("observed")),
                    haze=read_ppm(path("haze")),
                    streak=read_ppm(path("streak_sum")),
                    glow=np.rint(read_pgm(path("glow_mask"))),
                )
            )
        else:
            samples.append(
                sample_from_layers(
                    haze=read_ppm(path("haze")),
                    transmission=read_pgm(path("transmission")),
                )
            )
    return samples


def train_deglow(model, dataset, schedule, loss_config=None, val_set=None, checkpoint_dir=None):
    return train(
        model,
        dataset,
        schedule,
        lambda m, b: deglow_batch_loss(m, b, loss_config),
        val_set=val_set,
        checkpoint_dir=checkpoint_dir,
    )


def train_dehaze(model, dataset, schedule, val_set=None, checkpoint_dir=None):
    return train(
        model,
        dataset,
        schedule,
        dehaze_batch_loss,
        val_set=val_set,
        checkpoint_dir=checkpoint_dir,
    )
