"""Benchmark inputs: seeded night scenes, models at trained-model scale, and
the training-pass configuration.

Everything here is a pure function of fixed seeds (the scene pool, the
inference models) or of a training variant number, so the stored references
in references/ stay valid for as long as the code under test does not change
its outputs.
"""

import hashlib
import os

import numpy as np

from nightdehaze.networks import DeGlowModel, DeHazeModel, save_model
from nightdehaze.synthesis import (
    SynthesisConfig,
    procedural_scene,
    sample_glow_sources,
    sample_scene_params,
    synthesize_example,
)
from nightdehaze.training import TrainSchedule

IMAGE_SIZE = (240, 320)  # (height, width): the ROADMAP baseline shape
TILE_SIZE = 96  # 12 tiles on 320x240, halo 48 px (deglow) and 13 px (dehaze)
SCENE_POOL = 4  # distinct inputs with a stored reference; the seed orders them
SCENE_SEED = 1902
MODEL_SEED = 855

# Dim night scenes: gray airlight well below 1 and compact glows, so that few
# input pixels saturate and every pipeline stage sees structure.
NIGHT = SynthesisConfig(
    light_range=(0.3, 0.7),
    q_range=(0.5, 0.9),
    glow_radius_range=(3.0, 12.0),
    sources_per_image_range=(1, 4),
    target_size=(IMAGE_SIZE[1], IMAGE_SIZE[0]),
)

# Weights are He-style, std sqrt(2 / fan_in), times a per-layer gain.  A
# trained DeGlow subtracts a small residual per step and a trained DeHaze
# predicts mid-range transmission.  Plain He scale on the recurrent gate makes
# the features grow each step and saturates the output, and plain He scale on
# the heads clips most pixels, so those layers are scaled down.  The dehaze
# head bias centres the transmission near sigmoid(1) ~ 0.73.
LAYER_GAIN = {"block.gate": 0.1, "head_residual": 0.03, "head": 0.3}
LAYER_BIAS = {"head": 1.0}

# Training: the criterion-6 configuration (64x64, features 8, tau 3, batch 8).
# One pass trains a fresh DeGlow for DEGLOW_ITERS iterations and then a fresh
# DeHaze for DEHAZE_ITERS; the final checkpoints of a pass are checked against
# the stored digest of its variant.
TRAIN_SIZE = 64
TRAIN_FEATURES = 8
TRAIN_BATCH = 8
TRAIN_PAIRS = 16  # x 2 betas x 2 glow q values = 64 records
TRAIN_INIT_STD = 0.05
DEGLOW_ITERS = 4
DEHAZE_ITERS = 8
TRAIN_VARIANTS = 8  # the workload seed picks variant seed % TRAIN_VARIANTS


def night_scene(index):
    """Observed H x W x 3 night image number `index` of the scene pool."""
    rng = np.random.default_rng((SCENE_SEED, index))
    clean, depth = procedural_scene(rng, IMAGE_SIZE)
    beta, q, light = sample_scene_params(rng, NIGHT)
    sources = sample_glow_sources(rng, IMAGE_SIZE, q, NIGHT)
    observed, _, _, _ = synthesize_example(clean, depth, beta, q, light, sources, NIGHT)
    return observed


def scene_order(seed):
    """Pool indices of consecutive images for a workload seed: an endless
    series of shuffled rounds over the whole pool."""
    rng = np.random.default_rng(seed)
    while True:
        yield from (int(i) for i in rng.permutation(SCENE_POOL))


def he_init(model, rng):
    """Set every weight to He-style normal draws (times LAYER_GAIN) and every
    bias to LAYER_BIAS or 0, in sorted parameter order."""
    for name, t in sorted(model.parameters().items()):
        layer, kind = name.rsplit(".", 1)
        if kind == "weight":
            fan_in = int(np.prod(t.shape[1:]))
            std = np.sqrt(2.0 / fan_in) * LAYER_GAIN.get(layer, 1.0)
            t.data = rng.normal(0.0, std, t.shape).astype(np.float32)
        else:
            t.data = np.full(t.shape, LAYER_BIAS.get(layer, 0.0), dtype=np.float32)
    return model


def model_paths(directory):
    """(deglow_path, dehaze_path) of the inference checkpoints in `directory`."""
    return os.path.join(directory, "deglow.nckp"), os.path.join(directory, "dehaze.nckp")


def write_models(directory):
    """Save the default-size inference models (features 16, tau 3) as NCKP
    checkpoints; returns (deglow_path, dehaze_path)."""
    rng = np.random.default_rng(MODEL_SEED)
    deglow, dehaze = model_paths(directory)
    save_model(he_init(DeGlowModel(), rng), deglow)
    save_model(he_init(DeHazeModel(), rng), dehaze)
    return deglow, dehaze


def train_synthesis(variant):
    return SynthesisConfig(
        target_size=(TRAIN_SIZE, TRAIN_SIZE),
        glow_radius_range=(4.0, 12.0),
        sources_per_image_range=(1, 2),
        beta_samples_per_image=2,
        q_samples_per_image=2,
        rng_seed=variant,
    )


def train_pairs(variant):
    """Clean/depth pairs the training dataset of a variant is built from."""
    return [
        procedural_scene(np.random.default_rng((variant, i)), (TRAIN_SIZE, TRAIN_SIZE))
        for i in range(TRAIN_PAIRS)
    ]


def fresh_train_models(variant):
    rng = np.random.default_rng((variant, 1))
    deglow = DeGlowModel(features=TRAIN_FEATURES).init(rng, std=TRAIN_INIT_STD)
    dehaze = DeHazeModel(features=TRAIN_FEATURES).init(rng, std=TRAIN_INIT_STD)
    return deglow, dehaze


def train_schedules(variant):
    """(deglow, dehaze) schedules: criterion 6's learning rates, no
    validation, no intermediate checkpoints."""
    common = dict(batch_size=TRAIN_BATCH, checkpoint_interval=10**9, seed=variant)
    return (
        TrainSchedule(learning_rate=0.005, max_iterations=DEGLOW_ITERS, **common),
        TrainSchedule(learning_rate=0.01, max_iterations=DEHAZE_ITERS, **common),
    )


def checkpoint_digest(models, directory):
    """sha256 over the NCKP bytes of each model, in order."""
    h = hashlib.sha256()
    for i, model in enumerate(models):
        path = os.path.join(directory, f"final{i}.nckp")
        save_model(model, path)
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def file_digest(path):
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def array_digest(array):
    """sha256 of a float64 array's C-order bytes: equal digests mean
    bit-identical outputs."""
    return hashlib.sha256(np.ascontiguousarray(array, dtype=np.float64).tobytes()).hexdigest()
