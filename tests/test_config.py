import re
from pathlib import Path

import pytest

from nightdehaze.config import default_config, load_config
from nightdehaze.errors import ParameterError


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
    ],
)
def test_bad_value_names_section_and_key(tmp_path, text, where):
    path = tmp_path / "c.cfg"
    path.write_text(text)
    with pytest.raises(ParameterError, match=re.escape(where)):
        load_config(path)


def test_readme_example_parses(tmp_path):
    # the README's example config must name only keys that exist
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"```ini\n(.*?)```", readme, flags=re.S)
    assert len(blocks) == 1
    path = tmp_path / "readme.cfg"
    path.write_text(blocks[0])
    cfgs = load_config(path)
    assert cfgs["pipeline"].deglow_checkpoint == "ckpt-deglow/ckpt_final.nckp"
    assert cfgs["pipeline"].tile_size == 0
