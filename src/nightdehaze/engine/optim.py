"""SGD with momentum and (decoupled) weight decay, plus parameter init.

Update rule, per parameter p with gradient g:
    v <- momentum * v + (g + weight_decay * p)
    p <- p - learning_rate * v
Weight decay is skipped for parameters listed in OptimizerState.no_decay
(bias terms, by convention).
"""

from dataclasses import dataclass, field

import numpy as np

from ..errors import DimensionError

INIT_STD = 1e-4  # weight init: zero-mean Gaussian, biases start at exactly 0


@dataclass
class OptimizerState:
    learning_rate: float
    momentum: float = 0.9
    weight_decay: float = 0.001
    no_decay: set = field(default_factory=set)
    velocities: dict = field(default_factory=dict)


def gaussian_init(shape, rng, std=INIT_STD):
    """i.i.d. normal(0, std^2) float32 draws; deterministic for a seeded rng."""
    return rng.normal(0.0, std, size=shape).astype(np.float32)


def sgd_step(params, grads, state):
    """One momentum-SGD update over a dict of named parameter arrays, in place."""
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise DimensionError(f"{name}: grad shape {g.shape} != param shape {p.shape}")
        if name not in state.velocities:
            state.velocities[name] = np.zeros_like(p)
        v = state.velocities[name]
        wd = 0.0 if name in state.no_decay else state.weight_decay
        v *= state.momentum
        v += g + wd * p
        p -= (state.learning_rate * v).astype(p.dtype)
    return params
