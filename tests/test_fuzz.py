"""Property tests: the file readers turn any byte string into a typed
NightDehazeError or a valid result, never into another exception; a model
loads from a well-formed checkpoint only when its values are valid; tiled
inference matches whole-image inference at any tile size and recurrence
count; and radiance recovery inverts the haze blend wherever t >= t_min."""

import io

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from nightdehaze.atmospherics import compose_haze, recover_radiance
from nightdehaze.cli import SIDECAR_KEYS, read_intermediates
from nightdehaze.engine import load_checkpoint, save_checkpoint
from nightdehaze.engine.checkpoint import MAGIC
from nightdehaze.errors import DataError, NightDehazeError
from nightdehaze.imageio import read_pgm, read_ppm
from nightdehaze.networks import DeGlowModel, DeHazeModel, load_model
from nightdehaze.pipeline import run_pipeline
from nightdehaze.synthesis import LAYER_KEYS, DatasetRecord, format_manifest_line, parse_manifest

from conftest import make_scene, small_config


def _prefixed(*prefixes):
    # bare bytes rarely pass the magic check, so most examples start with a
    # valid prefix and exercise the parser behind it
    return st.one_of(
        st.binary(max_size=64),
        *(st.binary(max_size=256).map(lambda tail, p=p: p + tail) for p in prefixes),
    )


def _edit(blob, edits):
    out = bytearray(blob)
    for position, byte in edits:
        out[position] = byte
    return bytes(out)


def _mutated(valid):
    """`valid` with 1 to 4 of its bytes replaced by any bytes."""
    position = st.integers(0, len(valid) - 1)
    edits = st.lists(st.tuples(position, st.integers(0, 255)), min_size=1, max_size=4)
    return edits.map(lambda e: _edit(valid, e))


PNM_BYTES = _prefixed(b"P6", b"P6\n", b"P6\n4 4\n255\n", b"P5\n", b"P5\n3 2\n65535\n")
NCKP_BYTES = _prefixed(MAGIC, MAGIC + b"\x01\x00\x00\x00")

FUZZ = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


@pytest.mark.parametrize("reader", [read_ppm, read_pgm], ids=["ppm", "pgm"])
@FUZZ
@given(blob=PNM_BYTES)
def test_pnm_readers_raise_only_typed_errors(tmp_path, reader, blob):
    path = tmp_path / "fuzz.pnm"
    path.write_bytes(blob)
    try:
        image = reader(path)
    except NightDehazeError:
        return
    assert 0.0 <= image.min(initial=0.0) and image.max(initial=1.0) <= 1.0


@FUZZ
@given(blob=NCKP_BYTES)
def test_checkpoint_reader_raises_only_typed_errors(tmp_path, blob):
    path = tmp_path / "fuzz.nckp"
    path.write_bytes(blob)
    try:
        load_checkpoint(path)
    except NightDehazeError:
        pass


def _valid_manifest():
    paths = {key: f"rec_000000.{key}.ppm" for key in LAYER_KEYS}
    record = DatasetRecord("rec_000000", paths, 0.7, 0.4, (0.6, 0.6, 0.6), [(3, 4), (10, 2)])
    return (format_manifest_line(record) + "\n").encode()


def _valid_sidecar():
    arrays = (np.zeros((4, 4, 3)), np.ones((4, 4)), np.ones(3), 0.05)
    out = io.BytesIO()
    np.savez(out, **dict(zip(SIDECAR_KEYS, arrays)))
    return out.getvalue()


@FUZZ
@given(blob=st.one_of(st.binary(max_size=256), _mutated(_valid_manifest())))
def test_manifest_reader_raises_only_typed_errors(tmp_path, blob):
    path = tmp_path / "manifest.txt"
    path.write_bytes(blob)
    try:
        records = parse_manifest(path)
    except DataError:
        return
    for record in records:
        assert sorted(record.paths) == sorted(LAYER_KEYS)
        assert not any("\0" in name for name in record.paths.values())


@FUZZ
@given(blob=st.one_of(_prefixed(b"PK\x03\x04", b"\x93NUMPY"), _mutated(_valid_sidecar())))
def test_sidecar_reader_raises_only_typed_errors(tmp_path, blob):
    path = tmp_path / "x.stages.npz"
    path.write_bytes(blob)
    try:
        *arrays, t_min = read_intermediates(path)
    except DataError:
        return
    assert all(a.dtype == np.float64 for a in arrays) and isinstance(t_min, float)


FLOAT32 = st.floats(width=32)


@settings(FUZZ, max_examples=100)
@given(data=st.data(), kind=st.sampled_from(["deglow", "dehaze"]), features=st.integers(1, 2))
def test_load_model_rejects_or_returns_finite_weights(tmp_path, data, kind, features):
    # well-formed NCKP records of a real layout, with arbitrary values: each
    # descriptor is either the one the layout was built with or any float
    model = DeGlowModel(features, tau=2) if kind == "deglow" else DeHazeModel(features)
    records = {
        name: data.draw(arrays(np.float32, t.shape, elements=FLOAT32), label=name)
        for name, t in model.parameters().items()
    }
    valid = {
        "meta.kind": kind == "dehaze",
        "meta.features": features,
        "meta.tau": 2,
        "meta.tied": 1,
    }
    for name, value in valid.items():
        drawn = data.draw(st.one_of(st.just(float(value)), FLOAT32), label=name)
        records[name] = np.array([drawn], dtype=np.float32)
    path = tmp_path / "m.nckp"
    save_checkpoint(path, records)
    try:
        loaded = load_model(path)
    except NightDehazeError:
        return
    assert all(np.isfinite(t.data).all() for t in loaded.parameters().values())


@pytest.fixture(scope="module")
def whole_runs():
    """Per tau in 1..3: the models, a 28x40 scene and its whole-image run."""
    observed = make_scene(0, config=small_config(40, target_size=(40, 28)))[0]
    runs = {}
    for tau in (1, 2, 3):
        rng = np.random.default_rng(tau)
        models = (
            DeGlowModel(features=2, tau=tau).init(rng, std=0.3),
            DeHazeModel(features=2).init(rng, std=0.3),
        )
        runs[tau] = models, run_pipeline(observed, *models)
    return observed, runs


@settings(max_examples=20, deadline=None)
@given(tau=st.integers(1, 3), tile_size=st.integers(4, 40))
def test_tiled_matches_whole_image(whole_runs, tau, tile_size):
    observed, runs = whole_runs
    models, whole = runs[tau]
    tiled = run_pipeline(observed, *models, tile_size=tile_size)
    for name in ("deglowed", "transmission", "radiance"):
        assert np.array_equal(getattr(tiled, name), getattr(whole, name)), name


UNIT = st.floats(0.0, 1.0)


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    shape=st.tuples(st.integers(1, 6), st.integers(1, 6)),
    t_min=st.floats(0.01, 0.99),
)
def test_recover_inverts_compose_above_t_min(data, shape, t_min):
    reflection = data.draw(arrays(np.float64, (*shape, 3), elements=UNIT))
    t = data.draw(arrays(np.float64, shape, elements=st.floats(t_min, 1.0)))
    light = data.draw(arrays(np.float64, 3, elements=UNIT))
    recovered = recover_radiance(compose_haze(reflection, t, light), t, light, t_min)
    assert np.max(np.abs(recovered - reflection)) < 1e-9
