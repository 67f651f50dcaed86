"""Every module-level import in src/specsum and in the test files is used
in its module.

Neither ruff nor pyflakes is a dependency, so this reads each module's
syntax tree with the standard library: a name bound by a top-level import
must be read somewhere in the module (annotations count)."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "specsum").glob("*.py")) + \
    sorted((ROOT / "tests").glob("*.py"))


def unused_imports(source: str):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in used)


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]


@pytest.mark.parametrize(
    "path", MODULES,
    ids=lambda p: p.name if p.parent.name == "specsum" else f"tests/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []
