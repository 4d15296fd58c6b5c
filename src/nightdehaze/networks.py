"""Glow-removal and transmission-estimation networks.

Both models share a contextual block: an entry stage lifts the image into F
feature channels, three parallel paths of three 3x3 convolutions at dilations
1, 2, and 3 gather context at growing scale, and their sum is fused by one
more 3x3 convolution.  The glow model applies this block recursively,
predicting per step a glow-probability map, nonnegative streak layers, and a
residual that is subtracted from the running image.  The transmission model
runs the block once and squashes a single output channel through a sigmoid.

Every layer takes a `window`: which sides (top, bottom, left, right) of the
input are halo sides, context past the region whose outputs are wanted.  A
conv is valid there (it shrinks by its radius instead of reading zeros) and
same-size on the other sides, which lie on the image border.  Where tensors
meet, each is cropped on its halo sides to the smallest of their boxes.  The
whole image has no halo sides, so every crop is then a no-op.
"""

from dataclasses import dataclass

import numpy as np

from .engine import (
    INIT_STD,
    Tensor,
    add,
    add_n,
    astype,
    bce,
    channel_softmax,
    concat_channels,
    conv2d,
    crop,
    load_checkpoint,
    mean,
    mse,
    mul,
    save_checkpoint,
    sigmoid,
    split_channels,
    sub,
)
from .engine.optim import gaussian_init
from .errors import CheckpointError, DimensionError, ParameterError

CHANNELS = 3  # both networks read RGB images
DEFAULT_FEATURES = 16
DEFAULT_TAU = 3
# the most recurrences a DeGlow model may have: each one runs the whole block
# over the image, and a checkpoint's meta.tau is checked against it on load
MAX_TAU = 16
PATH_DILATIONS = (1, 2, 3)
CONVS_PER_PATH = 3
# the window of a whole image: no halo sides
WHOLE = (False, False, False, False)


@dataclass
class LossConfig:
    lambda1: float = 0.1  # streak/reconstruction prior weight
    lambda2: float = 0.05  # glow-mask cross-entropy weight

    def __post_init__(self):
        if self.lambda1 < 0 or self.lambda2 < 0:
            raise ParameterError("loss weights must be nonnegative")


class Conv:
    """A single conv layer owning its weight/bias tensors, and the ReLU that
    follows it when `relu` is set."""

    def __init__(self, in_channels, out_channels, dilation=1, kernel=3, relu=False):
        self.dilation = dilation
        self.relu = relu
        self.weight = Tensor(
            np.zeros((out_channels, in_channels, kernel, kernel), dtype=np.float32),
            requires_grad=True,
        )
        self.bias = Tensor(np.zeros(out_channels, dtype=np.float32), requires_grad=True)

    def init(self, rng, std=INIT_STD):
        self.weight.data = gaussian_init(self.weight.shape, rng, std)
        self.bias.data = np.zeros_like(self.bias.data)

    def __call__(self, x, window=WHOLE):
        pads = tuple(0 if halo else self.radius for halo in window)
        return conv2d(x, self.weight, self.bias, self.dilation, pads, self.relu)

    @property
    def radius(self):
        """Pixels of context this layer reads on each side of an output."""
        return (self.weight.shape[-1] // 2) * self.dilation

    def named(self, prefix):
        return {f"{prefix}.weight": self.weight, f"{prefix}.bias": self.bias}


def _radius(convs):
    return sum(conv.radius for conv in convs)


def halo_margins(window, outer, inner):
    """(top, bottom, left, right) widths that take a spatial size `outer`
    to `inner`: the difference on each axis, split equally between that
    axis's halo sides."""
    top, bottom, left, right = window
    dy = (outer[0] - inner[0]) // max(1, top + bottom)
    dx = (outer[1] - inner[1]) // max(1, left + right)
    return dy * top, dy * bottom, dx * left, dx * right


def _meet(window, *tensors):
    """The tensors cropped on their halo sides to the smallest box among
    them.  The boxes of one window share their border sides and each has
    shrunk equally on every halo side, so the smallest lies inside the rest."""
    inner = min(t.shape[2] for t in tensors), min(t.shape[3] for t in tensors)
    return [crop(t, *halo_margins(window, t.shape[2:], inner)) for t in tensors]


def _image_tensor(image):
    """`image` as a Tensor, which must be N x 3 x H x W."""
    image = image if isinstance(image, Tensor) else Tensor(image)
    if len(image.shape) != 4 or image.shape[1] != CHANNELS:
        raise DimensionError(f"expected N x 3 x H x W input, got {image.shape}")
    return image


class ContextualDilatedBlock:
    """Entry convs + three dilated paths + fusion; optional recurrence feedback."""

    def __init__(self, features=DEFAULT_FEATURES, feedback=True):
        if features < 1:
            raise ParameterError(f"features must be >= 1, got {features}")
        self.features = features
        self.entry = [Conv(CHANNELS, features, relu=True), Conv(features, features, relu=True)]
        self.paths = [
            [Conv(features, features, dilation=d, relu=True) for _ in range(CONVS_PER_PATH)]
            for d in PATH_DILATIONS
        ]
        self.fuse = Conv(features, features, relu=True)
        self.gate = Conv(features, features, kernel=1) if feedback else None

    def __call__(self, x, prev_features=None, window=WHOLE):
        h = x
        for conv in self.entry:
            h = conv(h, window)
        if prev_features is not None:
            if self.gate is None:
                raise ParameterError("block built without a feedback path")
            h = add(*_meet(window, h, self.gate(prev_features, window)))
        # each path starts from h cropped on its halo sides by the radius it
        # lacks of the widest path's, so that all three end on one box
        widest = max(_radius(path) for path in self.paths)

        def path_outputs():
            # a generator, so that without a tape each output is freed once
            # it has been added
            for path in self.paths:
                a = crop(h, *((widest - _radius(path)) * halo for halo in window))
                for conv in path:
                    a = conv(a, window)
                yield a

        return self.fuse(add_n(path_outputs()), window)

    @property
    def radius(self):
        # the deepest chain: entry, the widest path, fuse.  The feedback gate
        # reads features one step older, which reach no further back than the
        # current image does through the entry convs.
        path = max(_radius(path) for path in self.paths)
        return _radius(self.entry) + path + self.fuse.radius

    def layers(self, prefix):
        out = {}
        for i, conv in enumerate(self.entry):
            out[f"{prefix}.entry{i}"] = conv
        for d, path in zip(PATH_DILATIONS, self.paths):
            for i, conv in enumerate(path):
                out[f"{prefix}.path{d}.conv{i}"] = conv
        out[f"{prefix}.fuse"] = self.fuse
        if self.gate is not None:
            out[f"{prefix}.gate"] = self.gate
        return out


class _ModelBase:
    def _layer_map(self):
        raise NotImplementedError

    def parameters(self):
        params = {}
        for prefix, conv in self._layer_map().items():
            params.update(conv.named(prefix))
        return params

    def init(self, rng, std=INIT_STD):
        for conv in self._layer_map().values():
            conv.init(rng, std)
        return self

    @property
    def dtype(self):
        """The weights' dtype, at which the network computes."""
        return self.block.entry[0].weight.dtype

    def zero_grad(self):
        for t in self.parameters().values():
            t.zero_grad()

    def load_arrays(self, arrays):
        params = self.parameters()
        missing = set(params) - set(arrays)
        if missing:
            raise CheckpointError(f"checkpoint missing parameters: {sorted(missing)}")
        for name, t in params.items():
            if arrays[name].shape != t.shape:
                raise CheckpointError(
                    f"{name}: checkpoint shape {arrays[name].shape} != model {t.shape}"
                )
            t.data = arrays[name].astype(np.float32).copy()
        return self


class DeGlowModel(_ModelBase):
    """Recurrent residual glow removal: one contextual block and three
    prediction heads, shared by all `tau` recurrences."""

    kind = "deglow"

    def __init__(self, features=DEFAULT_FEATURES, tau=DEFAULT_TAU):
        if not 1 <= tau <= MAX_TAU:
            raise ParameterError(f"tau must be in 1..{MAX_TAU}, got {tau}")
        f = features
        self.features = features
        self.tau = tau
        self.block = ContextualDilatedBlock(f, feedback=True)
        self.head_glow = Conv(f, 2)
        self.head_streak = [Conv(f + 1, f, relu=True), Conv(f, 3, relu=True)]
        self.head_residual = Conv(f + 1 + 3 + 3, 3)

    def _layer_map(self):
        out = dict(self.block.layers("block"))
        out["head_glow"] = self.head_glow
        out["head_streak0"] = self.head_streak[0]
        out["head_streak1"] = self.head_streak[1]
        out["head_residual"] = self.head_residual
        return out

    @property
    def step_radius(self):
        """Pixels on each side that one step's outputs read of its image; the
        previous features, entering after the entry convs, reach less far."""
        # features -> glow logits -> streak convs -> residual is the deepest chain
        return self.block.radius + _radius([self.head_glow, *self.head_streak, self.head_residual])

    def receptive_radius(self):
        """Input pixels on each side that one output pixel of the unroll reads."""
        return self.tau * self.step_radius

    def step(self, image, prev_features=None, window=WHOLE):
        """One recurrence: returns (residual, glow_prob, streaks, features),
        each on its own box: on halo sides of `window` an output is smaller
        than the image by the depth of the chain that made it."""
        image = _image_tensor(image)
        feats = self.block(image, prev_features, window)
        logits = self.head_glow(feats, window)
        probs = channel_softmax(logits)
        glow_prob, _ = split_channels(probs, [1, 1])
        streaks = concat_channels(*_meet(window, feats, glow_prob))
        for conv in self.head_streak:
            streaks = conv(streaks, window)
        image_s, glow_s, streaks = _meet(window, image, glow_prob, streaks)
        masked = sub(image_s, mul(glow_s, streaks))
        joined = concat_channels(*_meet(window, feats, glow_prob, streaks, masked))
        residual = self.head_residual(joined, window)
        return residual, glow_prob, streaks, feats


@dataclass
class UnrollStep:
    residual: Tensor
    glow_prob: Tensor
    streaks: Tensor
    restored: Tensor  # J_t = I_t - residual


def deglow_steps(image, model, step):
    """Iterate J_t = I_t - eps_t for the model's `tau` steps, feeding J_t back
    as the next input, and yield each step's `UnrollStep` as it finishes.

    Each step runs at the weights' dtype; J_t keeps the image's dtype, so a
    zero residual leaves a float64 image bit-exact.  `step(image,
    prev_features)` computes one recurrence's outputs like `model.step`; the
    tiled pipeline passes one that runs `model.step` per tile.  No list of
    steps is kept: a step that its consumer drops is freed once the next
    step has returned.
    """
    current = image if isinstance(image, Tensor) else Tensor(image)
    feats = None
    for _ in range(model.tau):
        residual, glow_prob, streaks, feats = step(astype(current, model.dtype), feats)
        current = sub(current, residual)
        yield UnrollStep(residual, glow_prob, streaks, current)


def deglow_unroll(image, model, step=None):
    """Run `deglow_steps` to the end, by default with `model.step`: (final
    restored image, last step)."""
    for last in deglow_steps(image, model, step or model.step):
        pass
    return last.restored, last


def deglow_loss(steps, targets, config=None):
    """Joint per-step loss summed over the unroll's `UnrollStep`s, e.g.
    `deglow_steps(...)`.

    targets: dict with 'haze' (N,3,H,W), 'streak' (N,3,H,W) and binary
    'glow' (N,1,H,W).  Per step: reconstruction MSE, plus lambda1 times the
    streak and reconstruction prior terms, plus lambda2 times the glow-mask
    cross-entropy.
    """
    config = config or LossConfig()
    j_true = np.asarray(targets["haze"])
    s_true = np.asarray(targets["streak"])
    g_true = np.asarray(targets["glow"])
    if not np.all((g_true == 0) | (g_true == 1)):
        raise ParameterError("glow target must be binary")
    total = None
    for step in steps:
        direct = mse(step.restored, j_true)
        prior = mse(step.streaks, s_true) + mse(step.restored, j_true)
        glow = bce(step.glow_prob, g_true)
        loss_t = direct + mul(prior, config.lambda1) + mul(glow, config.lambda2)
        total = loss_t if total is None else total + loss_t
    return total


class DeHazeModel(_ModelBase):
    """Single-recurrence transmission estimator: block + 1-channel sigmoid head."""

    kind = "dehaze"
    tau = 1

    def __init__(self, features=DEFAULT_FEATURES):
        self.features = features
        self.block = ContextualDilatedBlock(features, feedback=False)
        self.head = Conv(features, 1)

    def _layer_map(self):
        out = dict(self.block.layers("block"))
        out["head"] = self.head
        return out

    def receptive_radius(self):
        """Input pixels on each side that one transmission pixel reads."""
        return self.block.radius + self.head.radius


def dehaze_forward(image, model, window=WHOLE):
    """Estimate the transmission map of a (deglowed) haze image: a Tensor of
    sigmoid outputs at the weights' dtype, unfloored, smaller than the image
    by `model.receptive_radius()` on each halo side of `window`."""
    features = model.block(astype(_image_tensor(image), model.dtype), window=window)
    return sigmoid(model.head(features, window))


def dehaze_loss(t_pred, t_true):
    """Mean squared error between predicted and reference transmission maps."""
    return mse(t_pred, np.asarray(t_true.data if isinstance(t_true, Tensor) else t_true))


# ---------------------------------------------------------------------------
# checkpointing: architecture descriptor rides along as meta.* records

_META_KINDS = {"deglow": 0.0, "dehaze": 1.0}


def save_model(model, path):
    params = {name: t.data for name, t in model.parameters().items()}
    params["meta.kind"] = np.array([_META_KINDS[model.kind]], dtype=np.float32)
    params["meta.features"] = np.array([model.features], dtype=np.float32)
    params["meta.tau"] = np.array([model.tau], dtype=np.float32)
    # weights are always shared across recurrences; the record keeps the layout
    params["meta.tied"] = np.array([1.0], dtype=np.float32)
    save_checkpoint(path, params)


def _meta_value(arrays, name, path):
    if name not in arrays:
        raise CheckpointError(f"{path}: missing architecture descriptor '{name}'")
    record = arrays.pop(name)
    if record.size != 1:
        raise CheckpointError(f"{path}: {name} holds {record.size} values, expected 1")
    return float(record.reshape(-1)[0])


def _meta_count(arrays, name, path, upper):
    value = _meta_value(arrays, name, path)
    if not (value.is_integer() and 1 <= value <= upper):
        raise CheckpointError(f"{path}: {name} is {value}, expected an integer in 1..{upper}")
    return int(value)


def load_model(path):
    """Rebuild the model a checkpoint describes.  Its parameters must be
    finite, and its descriptor must be consistent with them: the entry
    convs' stored shapes are checked against meta.features before any layer
    of that width is allocated."""
    arrays = load_checkpoint(path)
    kind = _meta_value(arrays, "meta.kind", path)
    features = _meta_count(arrays, "meta.features", path, np.inf)
    tau = _meta_count(arrays, "meta.tau", path, MAX_TAU)
    tied = _meta_value(arrays, "meta.tied", path)
    if tied != 1.0:
        raise CheckpointError(f"{path}: meta.tied is {tied}; only shared weights are supported")
    for name, data in arrays.items():
        if not np.isfinite(data).all():
            raise CheckpointError(f"{path}: parameter {name} holds a non-finite value")
    # the entry pair is (F, 3, 3, 3) then (F, F, 3, 3) in both models, so a
    # model of the stated width is never larger than a constant times the file
    entry = {
        "block.entry0.weight": (features, CHANNELS, 3, 3),
        "block.entry1.weight": (features, features, 3, 3),
    }
    for name, shape in entry.items():
        stored = arrays[name].shape if name in arrays else "missing"
        if stored != shape:
            raise CheckpointError(
                f"{path}: meta.features {features} needs {name} of shape {shape}, got {stored}"
            )
    if kind == _META_KINDS["deglow"]:
        model = DeGlowModel(features=features, tau=tau)
    elif kind == _META_KINDS["dehaze"]:
        model = DeHazeModel(features=features)
    else:
        raise CheckpointError(f"{path}: unknown model kind {kind}")
    return model.load_arrays(arrays)
