"""The benchmark (perfbench/) imports and wraps library functions by name; a
rename or deletion in the library must fail here, not only in a benchmark run."""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
SPANS = PERFBENCH / "spans.py"


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


def _library_imports():
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "nightdehaze":
                for alias in node.names:
                    yield path.name, node.module, alias.name


IMPORTS = list(_library_imports())


def test_benchmark_imports_something_from_the_library():
    assert {name for name, _, _ in IMPORTS} >= {"scenes.py", "spans.py", "workloads.py"}


@pytest.mark.parametrize(("path", "module", "name"), IMPORTS)
def test_every_benchmark_import_resolves(path, module, name):
    owner = importlib.import_module(module)
    if not hasattr(owner, name):
        importlib.import_module(f"{module}.{name}")  # a submodule the package does not import
