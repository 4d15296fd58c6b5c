"""Every name a module imports is read in that module.

No linter ships with the project, so this walks the syntax tree of each
module under src/ and tests/.  Package `__init__.py` files are exempt: their
imports are the package's re-exports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def unused_imports(source):
    """(line, name) of each imported name that `source` never reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a.b import c, d\nprint(np, d)\n"
    assert unused_imports(source) == [(1, "os"), (3, "c")]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_every_import_is_read(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
