"""Finite-difference verification suite for every differentiable operation.

Each case compares backward-pass gradients against central differences
(step 1e-3) on small float64 fixtures, sampling a subset of coordinates for
the larger parameter groups.  Used by the `gradcheck` CLI subcommand and the
acceptance tests; everything must come in under 1e-3 max relative error.
"""

import numpy as np

from .engine import Tensor, bce, concat_channels, conv2d, mse, mul, relu, tsum
from .engine.tensor import record_relu_masks
from .engine.gradcheck import max_rel_error, numeric_grad
from .networks import DeGlowModel, DeHazeModel, LossConfig, deglow_loss, deglow_unroll, dehaze_forward, dehaze_loss

TOLERANCE = 1e-3


def _cast_model_f64(model):
    for t in model.parameters().values():
        t.data = t.data.astype(np.float64)
    return model


def _coords(rng, size, max_coords):
    if size <= max_coords:
        return np.arange(size)
    return np.sort(rng.choice(size, size=max_coords, replace=False))


def check_arrays(make_loss, arrays, rng, max_coords=24):
    """Gradients of make_loss(list of Tensors) wrt every array; returns the
    worst relative disagreement with central differences."""
    base = [np.asarray(a, dtype=np.float64).copy() for a in arrays]
    tensors = [Tensor(b.copy(), requires_grad=True) for b in base]
    loss = make_loss(tensors)
    loss.backward()
    worst = 0.0
    for i in range(len(base)):
        idx = _coords(rng, base[i].size, max_coords)

        def f(x, i=i):
            ts = [Tensor(base[j] if j != i else x) for j in range(len(base))]
            return float(make_loss(ts).data)

        num = numeric_grad(f, base[i].copy(), indices=idx)
        worst = max(worst, max_rel_error(tensors[i].grad, num, indices=idx))
    return worst


def _top_coords(grad, max_coords):
    """Largest-magnitude gradient coordinates: well-conditioned for central
    differences at step 1e-3 (little cancellation in the local sensitivity)."""
    flat = np.abs(np.asarray(grad).reshape(-1))
    order = np.argsort(flat)[::-1][:max_coords]
    return [int(i) for i in order if flat[i] > 0]


def _masks_at(build_loss, flat, i, value):
    orig = flat[i]
    flat[i] = value
    with record_relu_masks() as masks:
        build_loss()
    flat[i] = orig
    return masks


def _kink_free(build_loss, data, i, step):
    """True when perturbing coordinate i by +-step flips no ReLU sign, i.e.
    the finite-difference interval stays away from every kink."""
    flat = data.reshape(-1)
    hi = _masks_at(build_loss, flat, i, flat[i] + step)
    lo = _masks_at(build_loss, flat, i, flat[i] - step)
    return all(np.array_equal(a, b) for a, b in zip(hi, lo))


def _check_tensor_coords(build_loss, data, analytic, rng, max_coords, step=1e-3):
    """FD-check the largest-gradient coordinates whose +-step interval is
    kink-free; returns the worst relative error (or None if no coordinate
    qualifies)."""
    candidates = _top_coords(analytic, max_coords * 4)
    idx = [i for i in candidates if _kink_free(build_loss, data, i, step)][:max_coords]
    if not idx:
        return None
    # data is float64, so numeric_grad's in-place perturbation is visible
    # to build_loss without reassignment
    num = numeric_grad(lambda _: float(build_loss().data), data, step=step, indices=idx)
    return max_rel_error(analytic, num, indices=idx)


def check_model(build_loss, model, inputs, rng, max_coords=4, input_coords=12):
    """Gradients wrt all model parameters and the given input tensors.

    build_loss() must rebuild the graph from model parameters and `inputs`
    (a list of requires-grad Tensors) on every call.
    """
    model.zero_grad()
    for t in inputs:
        t.zero_grad()
    loss = build_loss()
    loss.backward()
    analytic = {name: t.grad for name, t in model.parameters().items()}
    worst = 0.0
    for name, t in model.parameters().items():
        if analytic[name] is None:
            continue  # parameter unused in this graph (e.g. feedback gate at tau=1)
        err = _check_tensor_coords(build_loss, t.data, analytic[name], rng, max_coords)
        if err is not None:
            worst = max(worst, err)
    for t in inputs:
        err = _check_tensor_coords(build_loss, t.data, t.grad, rng, input_coords)
        if err is not None:
            worst = max(worst, err)
    return worst


def _away_from_zero(x, margin=0.05):
    return np.where(np.abs(x) < margin, np.sign(x) * margin + (x == 0) * margin, x)


def run_gradient_suite(seed=0):
    """Run every gradient check; returns [(case name, max rel error), ...]."""
    rng = np.random.default_rng(seed)
    results = []

    for dilation in (1, 2, 3):
        x = rng.normal(0, 1, (1, 4, 8, 8))
        w = rng.normal(0, 0.5, (3, 4, 3, 3))
        b = rng.normal(0, 0.5, 3)
        cot = Tensor(rng.normal(0, 1, (1, 3, 8, 8)))

        def conv_loss(ts, dilation=dilation, cot=cot):
            return tsum(mul(conv2d(ts[0], ts[1], ts[2], dilation), cot))

        results.append(
            (f"dilated_conv2d DF={dilation}", check_arrays(conv_loss, [x, w, b], rng))
        )

    x = _away_from_zero(rng.normal(0, 1, (2, 3, 6, 6)))
    cot = Tensor(rng.normal(0, 1, x.shape))
    results.append(
        ("relu", check_arrays(lambda ts: tsum(mul(relu(ts[0]), cot)), [x], rng))
    )

    a = rng.normal(0, 1, (1, 2, 5, 5))
    b2 = rng.normal(0, 1, (1, 3, 5, 5))
    cot = Tensor(rng.normal(0, 1, (1, 5, 5, 5)))
    results.append(
        (
            "concat_channels",
            check_arrays(
                lambda ts: tsum(mul(concat_channels(ts[0], ts[1]), cot)), [a, b2], rng
            ),
        )
    )

    target = rng.uniform(0.1, 0.9, (1, 3, 6, 6))
    results.append(
        ("mse_loss", check_arrays(lambda ts: mse(ts[0], target), [rng.normal(0, 1, target.shape)], rng))
    )

    g_target = (rng.uniform(0, 1, (1, 1, 6, 6)) > 0.5).astype(np.float64)
    probs = rng.uniform(0.1, 0.9, (1, 1, 6, 6))
    results.append(
        ("bce_loss", check_arrays(lambda ts: bce(ts[0], g_target), [probs], rng))
    )

    # full glow-network step and its joint loss at 1 x 3 x 8 x 8
    model = _cast_model_f64(DeGlowModel(features=8, tau=2).init(rng, std=0.12))
    image = Tensor(rng.uniform(0.05, 0.95, (1, 3, 8, 8)), requires_grad=True)
    cots = [Tensor(rng.normal(0, 1, s)) for s in [(1, 3, 8, 8), (1, 1, 8, 8), (1, 3, 8, 8)]]

    def step_loss():
        eps, g, s, _ = model.step(image)
        return tsum(mul(eps, cots[0])) + tsum(mul(g, cots[1])) + tsum(mul(s, cots[2]))

    results.append(("deglow_step", check_model(step_loss, model, [image], rng)))

    targets = {
        "haze": rng.uniform(0.1, 0.9, (1, 3, 8, 8)),
        "streak": rng.uniform(0.0, 0.4, (1, 3, 8, 8)),
        "glow": (rng.uniform(0, 1, (1, 1, 8, 8)) > 0.5).astype(np.float64),
    }
    cfg = LossConfig(lambda1=0.1, lambda2=0.05)

    def unroll_loss():
        _, trace = deglow_unroll(image, model)
        return deglow_loss(trace, targets, cfg)

    results.append(("deglow_loss (tau=2 unroll)", check_model(unroll_loss, model, [image], rng)))

    dh = _cast_model_f64(DeHazeModel(features=8).init(rng, std=0.12))
    dh_in = Tensor(rng.uniform(0.05, 0.95, (1, 3, 8, 8)), requires_grad=True)
    t_target = rng.uniform(0.2, 0.95, (1, 1, 8, 8))

    def dh_loss():
        return dehaze_loss(dehaze_forward(dh_in, dh), t_target)

    results.append(("dehaze_loss", check_model(dh_loss, dh, [dh_in], rng)))
    return results
