"""Static checks on the package source, parsed with `ast` (no import, no run)."""

import ast
import os

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src", "dtraj"))
MODULES = sorted(f for f in os.listdir(SRC) if f.endswith(".py"))


def unread_parameters(source: str) -> list[str]:
    """Each "function: parameter" whose name no expression in the body reads.

    A read in a nested function or lambda counts, since the closure reads it;
    `self` and `cls` are exempt. Defaults and decorators are not the body.
    """
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        a = node.args
        params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
        body = node.body if isinstance(node.body, list) else [node.body]
        read = {n.id for stmt in body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        name = getattr(node, "name", f"<lambda at line {node.lineno}>")
        found += [f"{name}: {p.arg}" for p in params
                  if p.arg not in read and p.arg not in ("self", "cls")]
    return found


def unreferenced_private_definitions(sources: dict[str, str]) -> list[str]:
    """Each "module: name" of a private function or class that no source reads.

    Private is one leading underscore and no trailing dunder; a read is a
    loaded name or attribute anywhere in `sources` (module name -> text).
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    return [f"{module}: {node.name}" for module, tree in trees.items() for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and node.name.startswith("_") and not node.name.endswith("__")
            and node.name not in read]


def read_source(module: str) -> str:
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        return fh.read()


@pytest.mark.parametrize("module", MODULES)
def test_no_parameter_is_accepted_and_ignored(module):
    unread = unread_parameters(read_source(module))
    assert not unread, f"src/dtraj/{module} never reads " + ", ".join(unread)


def test_the_check_sees_each_kind_of_parameter():
    source = (
        "def f(a, /, b, *c, d, **e):\n"
        "    return a\n"
        "g = lambda x, y: y\n"
        "def h(k, self):\n"
        "    def inner():\n"
        "        return k\n"
        "    return inner\n"
    )
    assert unread_parameters(source) == ["f: b", "f: d", "f: c", "f: e",
                                         "<lambda at line 3>: x"]


def test_every_private_definition_is_used():
    unused = unreferenced_private_definitions({m: read_source(m) for m in MODULES})
    assert not unused, "no src/dtraj module uses " + ", ".join(unused)


def test_the_check_sees_each_kind_of_private_definition():
    sources = {
        "a.py": (
            "def _used(): pass\n"
            "def _unused(): pass\n"
            "class _Gone: pass\n"
            "class K:\n"
            "    def __init__(self): self._method = None\n"
            "    def _method(self): pass\n"
            "    def _called(self): return self\n"
        ),
        "b.py": "from a import _used, K\n_used()\nK()._called()\n",
    }
    assert unreferenced_private_definitions(sources) == [
        "a.py: _unused", "a.py: _Gone", "a.py: _method"]


def dataclasses_imports(source: str) -> list[int]:
    """The line of each `import dataclasses` or `from dataclasses import ...`."""
    return [node.lineno for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Import)
            and any(a.name.split(".")[0] == "dataclasses" for a in node.names)
            or isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module == "dataclasses"]


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_dataclasses(module):
    # records are named tuples and validating types plain classes, so no
    # command pays for importing dataclasses (and the inspect module it loads)
    lines = dataclasses_imports(read_source(module))
    assert not lines, f"src/dtraj/{module} imports dataclasses on line(s) {lines}"


def test_the_check_sees_each_kind_of_dataclasses_import():
    source = (
        "import dataclasses\n"
        "from dataclasses import dataclass\n"
        "import os, dataclasses as dc\n"
        "def f():\n"
        "    from dataclasses import field\n"
        "from typing import NamedTuple\n"
        "from .dataclasses import x\n"
    )
    assert dataclasses_imports(source) == [1, 2, 3, 5]
