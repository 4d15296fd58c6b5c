import math
import re
from dataclasses import fields
from pathlib import Path

import pytest

from nightdehaze.config import SECTIONS, default_config, load_config
from nightdehaze.errors import ParameterError
from nightdehaze.networks import LossConfig
from nightdehaze.synthesis import SynthesisConfig
from nightdehaze.training import TrainSchedule

README = Path(__file__).resolve().parents[1] / "README.md"


def test_defaults(tmp_path):
    cfgs = default_config()
    assert cfgs["synthesis"].beta_range == (0.5, 1.5)
    assert cfgs["synthesis"].q_range == (0.2, 0.9)
    assert cfgs["synthesis"].light_range == (0.5, 1.0)
    assert cfgs["synthesis"].target_size == (320, 240)
    assert cfgs["training"].momentum == 0.9
    assert cfgs["training"].weight_decay == 0.001
    assert cfgs["training"].batch_size == 128
    assert cfgs["loss"].lambda1 == 0.1
    assert cfgs["loss"].lambda2 == 0.05
    assert cfgs["pipeline"].t_min == 0.05


def test_load_overrides(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text(
        "[synthesis]\n"
        "target_size = 32, 32\n"
        "beta_range = 0.6, 1.2\n"
        "rng_seed = 5\n"
        "use_taylor_glow = true\n"
        "[training]\n"
        "learning_rate = 0.002\n"
        "batch_size = 4\n"
        "[loss]\n"
        "lambda2 = 0.1\n"
        "[pipeline]\n"
        "tile_size = 64\n"
    )
    cfgs = load_config(path)
    assert cfgs["synthesis"].target_size == (32, 32)
    assert cfgs["synthesis"].beta_range == (0.6, 1.2)
    assert cfgs["synthesis"].rng_seed == 5
    assert cfgs["synthesis"].use_taylor_glow is True
    assert cfgs["training"].learning_rate == 0.002
    assert cfgs["training"].batch_size == 4
    assert cfgs["training"].momentum == 0.9  # untouched default
    assert cfgs["loss"].lambda2 == 0.1
    assert cfgs["pipeline"].tile_size == 64


def test_unknown_key_rejected(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("[training]\nbogus = 1\n")
    with pytest.raises(ParameterError):
        load_config(path)


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ParameterError):
        load_config(tmp_path / "nope.cfg")


@pytest.mark.parametrize(
    "text, where",
    [
        ("[pipeline]\ntile_size = abc\n", "[pipeline] tile_size"),
        ("[pipeline]\ntile_size = -4\n", "[pipeline] tile_size"),
        ("[synthesis]\ntarget_size = 32.5, 20\n", "[synthesis] target_size"),
        ("[synthesis]\nbeta_range = 0.5\n", "[synthesis] beta_range"),
        ("[training]\nlearning_rate = %(nope)s\n", "[training] learning_rate"),
        ("[synthesis]\nbeta_samples_per_image = 0\n", "[synthesis] beta_samples_per_image"),
        ("[synthesis]\ntarget_size = 8, 8\n", "[synthesis] target_size"),
        ("[synthesis]\nuse_taylor_glow = maybe\n", "[synthesis] use_taylor_glow"),
        ("[synthesis]\nsources_per_image_range = 3, 1\n", "[synthesis] sources_per_image_range"),
        ("[loss]\nlambda2 = -1\n", "[loss] lambda2"),
    ],
)
def test_bad_value_names_section_and_key(tmp_path, text, where):
    path = tmp_path / "c.cfg"
    path.write_text(text)
    with pytest.raises(ParameterError, match=re.escape(where)):
        load_config(path)


def test_readme_example_parses(tmp_path):
    # the README's example config must name only keys that exist
    readme = README.read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.cfg"
    path.write_text(blocks[0])
    cfgs = load_config(path)
    assert cfgs["pipeline"].deglow_checkpoint == "ckpt-deglow/ckpt_final.nckp"
    assert cfgs["pipeline"].tile_size == 0


@pytest.mark.parametrize(
    "word, value", [("on", True), ("Yes", True), ("0", False), ("off", False)]
)
def test_boolean_words(tmp_path, word, value):
    path = tmp_path / "c.cfg"
    path.write_text(f"[synthesis]\nuse_taylor_glow = {word}\n")
    assert load_config(path)["synthesis"].use_taylor_glow is value


RANGED = [(cls, f) for cls in SECTIONS.values() for f in fields(cls) if f.metadata]


@pytest.mark.parametrize(
    "cls, field", RANGED, ids=[f"{cls.__name__}.{f.name}" for cls, f in RANGED]
)
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_value_rejected_at_construction(cls, field, bad):
    # NaN used to pass every `value < bound` check, so a NaN weight or rate
    # ran until the loss diverged
    value = (bad, bad) if isinstance(field.default, tuple) else bad
    with pytest.raises(ParameterError, match=rf"^{field.name} must be in "):
        cls(**{field.name: value})


def test_nan_weight_and_rate_rejected_at_construction():
    with pytest.raises(ParameterError, match="lambda1"):
        LossConfig(lambda1=math.nan)
    with pytest.raises(ParameterError, match="learning_rate"):
        TrainSchedule(learning_rate=math.nan)


def test_equal_ends_accepted_for_counts_only():
    assert SynthesisConfig(sources_per_image_range=(1, 1)).sources_per_image_range == (1, 1)
    with pytest.raises(ParameterError, match="beta_range must increase"):
        SynthesisConfig(beta_range=(1.0, 1.0))


def _cell(value):
    """A default as the README's key table writes it: as in a config file."""
    if isinstance(value, tuple):
        value = ", ".join(map(str, value))
    elif isinstance(value, bool):
        value = str(value).lower()
    return f"`{value}`" if value != "" else "(empty)"


def test_readme_key_table_matches_declared_fields():
    # one row per config field: section, key, default, declared range, meaning
    row = r"^\| `\[(\w+)\]` \| `(\w+)` \| (.*?) \| (.*?) \| .* \|$"
    table = re.findall(row, README.read_text(), re.M)
    declared = [
        (name, f.name, _cell(f.default), f"`{f.metadata['range']}`" if f.metadata else "—")
        for name, cls in SECTIONS.items()
        for f in fields(cls)
    ]
    assert table == declared
