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


def unread_imports(source: str) -> list[str]:
    """Each "line: name" an import binds that no expression in its scope reads.

    The scope is the function the import is in, nested functions included,
    or the module; a read is a loaded name, such as the first name of an
    attribute chain. `from __future__` imports bind nothing.
    """
    found = set()
    for scope in ast.walk(ast.parse(source)):
        if not isinstance(scope, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        nodes = list(ast.walk(scope))
        read = {n.id for n in nodes if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        found |= {(node.lineno, name) for node in nodes
                  if isinstance(node, ast.Import)
                  or isinstance(node, ast.ImportFrom) and node.module != "__future__"
                  for name in ((a.asname or a.name).split(".")[0] for a in node.names)
                  if name not in read}
    return [f"{line}: {name}" for line, name in sorted(found)]


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


@pytest.mark.parametrize("module", MODULES)
def test_every_import_is_read(module):
    unread = unread_imports(read_source(module))
    assert not unread, f"src/dtraj/{module} never reads the import on line " + ", ".join(unread)


def test_the_check_sees_each_kind_of_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path, sys as system\n"
        "from itertools import accumulate, islice\n"
        "from operator import itemgetter as get, mul\n"
        "def f():\n"
        "    import json\n"
        "    return islice, mul.__name__, system\n"
        "def g():\n"
        "    import math\n"
        "    def inner():\n"
        "        return math.pi\n"
        "    return inner\n"
        "def h():\n"
        "    from math import pi\n"
        "def k():\n"
        "    return pi\n"
    )
    # pi is read in the module, but not in h, the scope its import binds it in
    assert unread_imports(source) == ["2: os", "3: accumulate", "4: get", "6: json", "14: pi"]


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
