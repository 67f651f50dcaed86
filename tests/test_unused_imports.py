"""Every module-level import in src/specsum and in the test files is used
in its module, and every private function, method and module-level name of
src/specsum is read somewhere in src/specsum.

Neither ruff nor pyflakes is a dependency, so this reads each module's
syntax tree with the standard library: a name bound by a top-level import
must be read somewhere in the module (annotations count), and a top-level
`def _name`, a `def _name` (classmethods included) in a top-level class,
or a module-level `_name = ...` must be read somewhere in the package
outside its own definition (a helper whose last caller went, or that only
calls itself, fails).  Dunders such as `__init__` and `__all__` are not
private."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "specsum").glob("*.py"))
MODULES = PACKAGE + sorted((ROOT / "tests").glob("*.py"))


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


def reads(tree):
    """Every name a syntax tree reads, bare or as an attribute (an import
    counts through the names that use it)."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(tree) if isinstance(n, (ast.Name, ast.Attribute))]


def private_definitions(tree):
    """(name, node) of each private top-level function, method of a
    top-level class and module-level assigned name, dunders excluded."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            defs = [(n.name, n) for n in node.body
                    if isinstance(n, ast.FunctionDef)]
        elif isinstance(node, ast.FunctionDef):
            defs = [(node.name, node)]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            defs = [(n.id, node) for t in targets for n in ast.walk(t)
                    if isinstance(n, ast.Name)]
        else:
            continue
        yield from ((name, n) for name, n in defs if name.startswith("_")
                    and not (name.startswith("__") and name.endswith("__")))


def unread_private_functions(sources):
    """(module, name) of each private definition in the sources (module
    name -> text) that no module reads outside the definition itself: a
    function's or method's body, an assignment's targets and value."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    everywhere = [r for tree in trees.values() for r in reads(tree)]
    return sorted(
        (module, name)
        for module, tree in trees.items()
        for name, node in private_definitions(tree)
        if everywhere.count(name) <= reads(node).count(name))


def test_detects_an_unused_import():
    assert unused_imports("import os\nimport sys\nsys.exit()\n") == [(1, "os")]


@pytest.mark.parametrize(
    "path", MODULES,
    ids=lambda p: p.name if p.parent.name == "specsum" else f"tests/{p.name}")
def test_no_unused_module_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unread_private_function():
    sources = {"a": "def _used():\n    pass\n\n\ndef _self(n):\n"
                    "    return _self(n - 1)\n\n\ndef _dead():\n    pass\n",
               "b": "from .a import _used\n_used()\n"}
    assert unread_private_functions(sources) == [("a", "_dead"),
                                                 ("a", "_self")]


def test_detects_an_unread_private_method_and_constant():
    sources = {"a": "_LIMIT = 3\n_DEAD: int = 4\n__all__ = ['C']\n\n\n"
                    "class C:\n    def __init__(self):\n"
                    "        self.n = _LIMIT\n\n"
                    "    def _loop(self):\n        return self._loop()\n\n"
                    "    @classmethod\n    def _make(cls):\n"
                    "        return cls()\n\n"
                    "    @classmethod\n    def _unused(cls):\n"
                    "        pass\n",
               "b": "from .a import C\nC._make()\n"}
    assert unread_private_functions(sources) == [
        ("a", "_DEAD"), ("a", "_loop"), ("a", "_unused")]


def test_every_private_function_is_read():
    assert unread_private_functions(
        {p.stem: p.read_text() for p in PACKAGE}) == []
