"""The traced benchmark (perfbench/spans.py) wraps library functions by name;
a rename in the library must fail here, not only as a KeyError in a traced run."""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_patched_name_exists_on_its_owner():
    table = _load_spans()._patch_table()
    assert table
    for owner, attr, _, _ in table:
        assert attr in owner.__dict__, f"{owner.__name__}.{attr}"
