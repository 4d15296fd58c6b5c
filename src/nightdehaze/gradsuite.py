"""Finite-difference verification suite for every differentiable operation.

Every case goes through one checker, `check`: it runs backward once, then
compares each tensor's largest-magnitude gradient coordinates against central
differences on small float64 fixtures.  One probe per coordinate and step
builds the loss at x + step and x - step; the same two builds give both the
central difference and the kink test.  A coordinate is used at the first
step of STEPS whose +-step interval is kink-free: the constants on the two
tapes (targets, cotangents and ReLU sign masks, of which only the masks can
move) are all equal, so no ReLU changes sign inside it.  Used by the
`gradcheck` CLI subcommand and the acceptance tests; everything must come in
under 1e-3 max relative error.
"""

from dataclasses import dataclass

import numpy as np

from .engine import Tensor, add_n, bce, concat_channels, conv2d, crop, mse, mul, relu, tsum
from .engine.tensor import walk
from .networks import DeGlowModel, DeHazeModel, LossConfig, deglow_loss, deglow_steps, dehaze_forward, dehaze_loss

TOLERANCE = 1e-3
# central-difference steps, largest first: a coordinate whose interval
# crosses a kink at one step is probed again at the next
STEPS = (1e-3, 1e-4, 1e-5, 1e-6)
# below this magnitude both gradients count as zero: compared absolutely
FLOOR = 1e-6


def _cast_model_f64(model):
    for t in model.parameters().values():
        t.data = t.data.astype(np.float64)
    return model


def _constants(root):
    """The data of every constant on root's tape, in walk order: each node
    that is neither an op's output nor a leaf being differentiated."""
    return [node.data for node in walk(root) if not node.requires_grad]


def _probe(build_loss, data, i, step):
    """(loss at x + step, loss at x - step, kink-free) for coordinate i of the
    float64 array `data`, which build_loss reads; kink-free is True when the
    two tapes hold equal constants, i.e. no ReLU flips sign in between."""
    flat = data.reshape(-1)
    orig = flat[i]
    losses, tapes = [], []
    try:
        for value in (orig + step, orig - step):
            flat[i] = value
            loss = build_loss()
            losses.append(float(loss.data))
            tapes.append(_constants(loss))
    finally:
        flat[i] = orig
    hi, lo = tapes
    return *losses, all(np.array_equal(a, b) for a, b in zip(hi, lo, strict=True))


def _rel_error(analytic, numeric):
    scale = max(abs(analytic), abs(numeric))
    err = abs(analytic - numeric)
    return err / scale if scale > FLOOR else err


@dataclass
class Report:
    """What one `check` found.  `steps`: for each step of STEPS, the
    coordinates checked at it and their worst relative error.  `checked`:
    for each tensor, the coordinates checked, None for one the loss does not
    use."""

    steps: dict
    checked: list

    @property
    def error(self):
        """The worst relative error at any step, NaN when any is."""
        return np.max([worst for _, worst in self.steps.values()])


def check(build_loss, tensors, max_coords):
    """Backward against central differences, as a Report.

    build_loss() must rebuild the scalar loss from `tensors` (float64,
    requires-grad) on every call.  For each tensor, up to max_coords (an int,
    or one per tensor) of its largest-|grad| coordinates that are kink-free
    at some step are checked; a tensor the loss does not use (grad None) is
    skipped.  A NaN error on any coordinate makes the error NaN, which fails
    every tolerance.
    """
    for t in tensors:
        t.zero_grad()
    build_loss().backward()
    steps = dict.fromkeys(STEPS, (0, 0.0))
    checked = []
    for t, budget in zip(tensors, np.broadcast_to(max_coords, len(tensors))):
        if t.grad is None:
            checked.append(None)  # e.g. the feedback gate of a single DeGlow step
            continue
        grad = t.grad.reshape(-1)
        used = 0
        for i in np.argsort(-np.abs(t.grad), axis=None, kind="stable"):
            if used == budget:
                break
            for step in STEPS:
                hi, lo, kink_free = _probe(build_loss, t.data, i, step)
                if kink_free:
                    used += 1
                    count, worst = steps[step]
                    err = _rel_error(float(grad[i]), (hi - lo) / (2.0 * step))
                    # np.maximum keeps a NaN where max() would drop it
                    steps[step] = count + 1, np.maximum(worst, err)
                    break
        checked.append(used)
    return Report(steps, checked)


def _leaves(*arrays):
    return [Tensor(a, requires_grad=True) for a in arrays]


def _check_model(build_loss, model, image):
    """4 coordinates per parameter and 12 of the input image."""
    params = list(model.parameters().values())
    return check(build_loss, params + [image], [4] * len(params) + [12])


def run_gradient_suite(seed=0):
    """Run every gradient check; returns [(case name, Report), ...]."""
    rng = np.random.default_rng(seed)
    results = []

    for dilation in (1, 2, 3):
        x, w, b = _leaves(
            rng.normal(0, 1, (1, 4, 8, 8)), rng.normal(0, 0.5, (3, 4, 3, 3)), rng.normal(0, 0.5, 3)
        )
        cot = Tensor(rng.normal(0, 1, (1, 3, 8, 8)))
        results.append((
            f"dilated_conv2d DF={dilation}",
            check(lambda: tsum(mul(conv2d(x, w, b, dilation), cot)), [x, w, b], 24),
        ))

    (x,) = _leaves(rng.normal(0, 1, (2, 3, 6, 6)))
    cot = Tensor(rng.normal(0, 1, x.shape))
    results.append(("relu", check(lambda: tsum(mul(relu(x), cot)), [x], 24)))

    a, b2 = _leaves(rng.normal(0, 1, (1, 2, 5, 5)), rng.normal(0, 1, (1, 3, 5, 5)))
    cot = Tensor(rng.normal(0, 1, (1, 5, 5, 5)))
    results.append(
        ("concat_channels", check(lambda: tsum(mul(concat_channels(a, b2), cot)), [a, b2], 24))
    )

    target = rng.uniform(0.1, 0.9, (1, 3, 6, 6))
    (pred,) = _leaves(rng.normal(0, 1, target.shape))
    results.append(("mse_loss", check(lambda: mse(pred, target), [pred], 24)))

    g_target = (rng.uniform(0, 1, (1, 1, 6, 6)) > 0.5).astype(np.float64)
    (probs,) = _leaves(rng.uniform(0.1, 0.9, (1, 1, 6, 6)))
    results.append(("bce_loss", check(lambda: bce(probs, g_target), [probs], 24)))

    # full glow-network step and its joint loss at 1 x 3 x 8 x 8
    model = _cast_model_f64(DeGlowModel(features=8, tau=2).init(rng, std=0.12))
    image = Tensor(rng.uniform(0.05, 0.95, (1, 3, 8, 8)), requires_grad=True)
    cots = [Tensor(rng.normal(0, 1, s)) for s in [(1, 3, 8, 8), (1, 1, 8, 8), (1, 3, 8, 8)]]

    def step_loss():
        eps, g, s, _ = model.step(image)
        return tsum(mul(eps, cots[0])) + tsum(mul(g, cots[1])) + tsum(mul(s, cots[2]))

    results.append(("deglow_step", _check_model(step_loss, model, image)))

    targets = {
        "haze": rng.uniform(0.1, 0.9, (1, 3, 8, 8)),
        "streak": rng.uniform(0.0, 0.4, (1, 3, 8, 8)),
        "glow": (rng.uniform(0, 1, (1, 1, 8, 8)) > 0.5).astype(np.float64),
    }
    cfg = LossConfig(lambda1=0.1, lambda2=0.05)

    def unroll_loss():
        return deglow_loss(deglow_steps(image, model, model.step), targets, cfg)

    results.append(("deglow_loss (tau=2 unroll)", _check_model(unroll_loss, model, image)))

    dh = _cast_model_f64(DeHazeModel(features=8).init(rng, std=0.12))
    dh_in = Tensor(rng.uniform(0.05, 0.95, (1, 3, 8, 8)), requires_grad=True)
    t_target = rng.uniform(0.2, 0.95, (1, 1, 8, 8))

    def dh_loss():
        return dehaze_loss(dehaze_forward(dh_in, dh), t_target)

    results.append(("dehaze_loss", _check_model(dh_loss, dh, dh_in)))

    # a conv as a tile runs it, valid on its halo sides, then cropped where
    # tensors meet: top and right unpadded, left padded by 1 of radius 2
    x, w, b = _leaves(
        rng.normal(0, 1, (1, 4, 9, 8)), rng.normal(0, 0.5, (3, 4, 3, 3)), rng.normal(0, 0.5, 3)
    )
    cot = Tensor(rng.normal(0, 1, (1, 3, 6, 3)))

    def windowed_loss():
        return tsum(mul(crop(conv2d(x, w, b, 2, (0, 2, 1, 0)), 1, 0, 0, 2), cot))

    results.append(("dilated_conv2d windowed DF=2", check(windowed_loss, [x, w, b], 24)))

    # a conv that carries its ReLU: the adjoint masks the gradient before the
    # conv's, and the mask it keeps on the tape is what the kink test compares
    x, w, b = _leaves(
        rng.normal(0, 1, (1, 4, 8, 8)), rng.normal(0, 0.5, (3, 4, 3, 3)), rng.normal(0, 0.5, 3)
    )
    cot = Tensor(rng.normal(0, 1, (1, 3, 8, 8)))
    results.append((
        "dilated_conv2d relu DF=2",
        check(lambda: tsum(mul(conv2d(x, w, b, 2, relu=True), cot)), [x, w, b], 24),
    ))

    # a sum of several tensors as one node, fed by a generator as the
    # contextual block's paths are; last, so that no other case's draws move
    leaves = _leaves(*(rng.normal(0, 1, (1, 2, 5, 5)) for _ in range(3)))
    cot = Tensor(rng.normal(0, 1, (1, 2, 5, 5)))
    results.append((
        "add_n",
        check(lambda: tsum(mul(add_n(mul(t, t) for t in leaves), cot)), leaves, 24),
    ))
    return results
