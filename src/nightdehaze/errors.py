"""Shared exception types, and the range check of config dataclass fields."""

import operator
from dataclasses import field, fields


class NightDehazeError(Exception):
    pass


class DimensionError(NightDehazeError):
    """Array shapes do not satisfy an operation's contract."""


class ParameterError(NightDehazeError):
    """A scalar parameter is outside its valid range."""


class DataError(NightDehazeError):
    """Array contents violate an operation's contract (non-finite, non-binary, ...)."""


class CheckpointError(NightDehazeError):
    """Checkpoint file is missing, truncated, or malformed."""


class TrainingDiverged(NightDehazeError):
    """Loss became NaN/Inf during training."""

    def __init__(self, iteration, loss):
        super().__init__(f"training diverged at iteration {iteration} (loss={loss})")
        self.iteration = iteration
        self.loss = loss


def ranged(default, interval):
    """A dataclass field whose value, or each value of a pair, must lie in
    `interval`, written as in "[0, 1)" or "(0, inf)"."""
    return field(default=default, metadata={"range": interval})


def check_fields(config):
    """Raise ParameterError unless each ranged field of the dataclass `config`
    lies in its interval (NaN lies in none, and infinite ends are open), and
    each `*_range` pair increases: strictly for decimals, non-strictly for
    counts."""
    for f in fields(config):
        if "range" not in f.metadata:
            continue
        interval = f.metadata["range"]
        low, high = map(float, interval[1:-1].split(","))
        above = operator.le if interval[0] == "[" else operator.lt
        below = operator.le if interval[-1] == "]" else operator.lt
        value = getattr(config, f.name)
        ends = value if isinstance(value, tuple) else (value,)
        if not all(above(low, v) and below(v, high) for v in ends):
            raise ParameterError(f"{f.name} must be in {interval}, got {value}")
        if f.name.endswith("_range"):
            increases = operator.lt if isinstance(f.default[0], float) else operator.le
            if not increases(*ends):
                raise ParameterError(f"{f.name} must increase, got {value}")
