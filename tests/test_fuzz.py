"""Property tests: the file readers turn any byte string into a typed
NightDehazeError or a valid result, never into another exception."""

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from nightdehaze.engine import load_checkpoint
from nightdehaze.engine.checkpoint import MAGIC
from nightdehaze.errors import NightDehazeError
from nightdehaze.imageio import read_pgm, read_ppm


def _prefixed(*prefixes):
    # bare bytes rarely pass the magic check, so most examples start with a
    # valid prefix and exercise the parser behind it
    return st.one_of(
        st.binary(max_size=64),
        *(st.binary(max_size=256).map(lambda tail, p=p: p + tail) for p in prefixes),
    )


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
