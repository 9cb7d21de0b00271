"""Static checks on the package source, parsed with `ast` (no import, no run)."""

import ast
import os

import pytest

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
SRC = os.path.join(ROOT, "src", "dtraj")
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
    """Each "module: name" of a private function, class or module-level name
    that no source reads.

    Private is one leading underscore and no trailing dunder; a module-level
    name is one an assignment at the top of a module binds, `_X = ...` or
    `_X: T = ...`. A read is a loaded name or attribute anywhere in `sources`
    (module name -> text). Functions and classes come first in each module.
    """
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees.values() for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}

    def defined(tree: ast.Module) -> list[str]:
        defs = [n.name for n in ast.walk(tree)
                if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))]
        bound = [t.id for n in tree.body
                 if isinstance(n, ast.Assign) or isinstance(n, ast.AnnAssign) and n.value
                 for t in (n.targets if isinstance(n, ast.Assign) else [n.target]) if isinstance(t, ast.Name)]
        return defs + bound

    return [f"{module}: {name}" for module, tree in trees.items() for name in defined(tree)
            if name.startswith("_") and not name.endswith("__") and name not in read]


def unpassed_defaults(defs: dict[str, str], callers: dict[str, str]) -> list[str]:
    """Each "function: parameter" with a default that no call in `callers` passes.

    A function in `defs` (module name -> text) is matched to the calls of
    its name, bare or as an attribute's, and a class's `__init__` to the
    calls of the class. A call passes a parameter by its keyword, by a
    positional argument at its place (`self` or `cls` takes none), or by a
    * or ** argument that could hold it.
    """
    calls: dict[str, list[ast.Call]] = {}
    for text in callers.values():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls.setdefault(name, []).append(node)

    def passed(call: ast.Call, arg: str, place: int | None) -> bool:
        args = call.args
        return (any(k.arg in (arg, None) for k in call.keywords) or place is not None
                and (len(args) > place or any(isinstance(a, ast.Starred) for a in args)))

    found = []
    for text in defs.values():
        tree = ast.parse(text)
        inits = {f: c.name for c in ast.walk(tree) if isinstance(c, ast.ClassDef)
                 for f in c.body if isinstance(f, ast.FunctionDef) and f.name == "__init__"}
        for node in ast.walk(tree):
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            a = node.args
            positional = a.posonlyargs + a.args
            skip = int(bool(positional) and positional[0].arg in ("self", "cls"))
            defaulted = [(p.arg, k - skip) for k, p in enumerate(positional)
                         if k >= len(positional) - len(a.defaults)]
            defaulted += [(p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                          if d is not None]
            name = inits.get(node, node.name)
            found += [f"{name}: {arg}" for arg, place in defaulted
                      if not any(passed(c, arg, place) for c in calls.get(name, []))]
    return found


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
            "    _ATTR = 1\n"
            "_READ = 2\n"
            "_LOST = _ALSO_LOST = 3\n"
            "_TYPED: int = 4\n"
            "_DECLARED: int\n"
            "_PAIR, _UNPACKED = 5, 6\n"
            "__dunder__ = 7\n"
        ),
        "b.py": "from a import _used, K\n_used()\nK()._called()\nprint(_READ)\n",
    }
    # a class body's name, a bare annotation and a tuple target bind no module-level name
    assert unreferenced_private_definitions(sources) == [
        "a.py: _unused", "a.py: _Gone", "a.py: _method",
        "a.py: _LOST", "a.py: _ALSO_LOST", "a.py: _TYPED"]


def test_every_default_is_passed_somewhere():
    # a default that no call of the program, its bench or its scripts
    # overrides is a knob only tests turn; tests do not count as callers
    callers = {}
    for folder in ("src/dtraj", "bench", "scripts"):
        for f in sorted(os.listdir(os.path.join(ROOT, folder))):
            if f.endswith(".py"):
                with open(os.path.join(ROOT, folder, f), encoding="utf-8") as fh:
                    callers[f"{folder}/{f}"] = fh.read()
    unpassed = unpassed_defaults({m: read_source(m) for m in MODULES}, callers)
    assert not unpassed, "no call in src/, bench/ or scripts/ passes " + ", ".join(unpassed)


def test_the_check_sees_each_way_to_pass_a_default():
    defs = {"a.py": (
        "def f(a, b=1, /, c=2, *, d=3, e=4): pass\n"
        "def g(x=0, y=1): pass\n"
        "def h(z=0, *, w=1): pass\n"
        "def unused(u=0): pass\n"
        "class K:\n"
        "    def __init__(self, size=1, depth=2): pass\n"
        "    def m(self, k=0, j=1): pass\n"
    )}
    callers = {"b.py": "f(0, 1, d=2)\ng(*xs)\nh(**kw)\nK(5)\nobj.m(j=1)\n"}
    assert unpassed_defaults(defs, callers) == ["f: c", "f: e", "unused: u", "K: depth", "m: k"]


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
