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


@pytest.mark.parametrize("module", MODULES)
def test_no_parameter_is_accepted_and_ignored(module):
    with open(os.path.join(SRC, module), encoding="utf-8") as fh:
        unread = unread_parameters(fh.read())
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
