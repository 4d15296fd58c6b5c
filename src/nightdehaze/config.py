"""Flat key=value configuration files with [sections], via configparser.

Each section fills one dataclass: [synthesis], [training], [loss],
[pipeline].  Every key is optional; missing keys keep the dataclass defaults,
and a given value is read as the type of its default (a tuple default as two
comma-separated values of its element type, a boolean as a configparser
boolean word).  Each field declares its range beside its default, and a
value out of range fails as `[section] key must be in <range>, got <value>`.
"""

import configparser
import os
from dataclasses import fields

from .errors import ParameterError
from .networks import LossConfig
from .pipeline import PipelineConfig
from .synthesis import SynthesisConfig
from .training import TrainSchedule

SECTIONS = {
    "synthesis": SynthesisConfig,
    "training": TrainSchedule,
    "loss": LossConfig,
    "pipeline": PipelineConfig,
}


def _cast(text, default):
    # bool before int: bool is a subclass of int
    if isinstance(default, bool):
        states = configparser.ConfigParser.BOOLEAN_STATES
        if text.lower() not in states:
            raise ValueError(f"expected one of {', '.join(states)}, got {text!r}")
        return states[text.lower()]
    if isinstance(default, tuple):
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != 2:
            raise ValueError(f"expected two comma-separated values, got {text!r}")
        return tuple(type(default[0])(p) for p in parts)
    return type(default)(text)


def _section(parser, name, cls):
    defaults = {f.name: f.default for f in fields(cls)}
    values = {}
    if parser.has_section(name):
        for key in parser[name]:
            if key not in defaults:
                raise ParameterError(f"[{name}] {key}: unknown key")
            try:
                values[key] = _cast(parser.get(name, key), defaults[key])
            except (ValueError, configparser.Error) as e:
                raise ParameterError(f"[{name}] {key}: {e}") from e
    try:
        return cls(**values)
    except ParameterError as e:
        raise ParameterError(f"[{name}] {e}") from e


def load_config(path):
    """Parse a config file into the four per-module config objects."""
    if not os.path.exists(path):
        raise ParameterError(f"config file not found: {path}")
    parser = configparser.ConfigParser()
    try:
        parser.read(path)
    except (ValueError, configparser.Error) as e:
        raise ParameterError(f"config {path}: {e}") from e
    return {name: _section(parser, name, cls) for name, cls in SECTIONS.items()}


def default_config():
    return {name: cls() for name, cls in SECTIONS.items()}
