"""Hygiene of the package modules: every imported name and every
parameter is used.

A name a module imports only for others to reach (a name that
``perfbench/tracing.py`` wraps, say) says so on its import line with
``# noqa`` and a reason.  ``__init__.py`` re-exports the public API and is
not checked for imports.  A parameter of a function or lambda, nested ones
included, is read by its body, unless it is ``self``, ``cls`` or starts
with ``_``, or its def line says ``# noqa`` with a reason.
"""

import ast
import re
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "olmfsi"
# "# noqa", an optional code list, then a reason
EXCUSED = re.compile(r"#\s*noqa(:\s*[A-Z]+\d+(,\s*[A-Z]+\d+)*)?\s+\S")


def unused_imports(source):
    """(line, name) of each name the module imports and never reads,
    unless that line excuses it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            if name not in read and not EXCUSED.search(lines[alias.lineno - 1]):
                out.append((alias.lineno, name))
    return out


FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def parameters(node):
    a = node.args
    return [arg for arg in a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
            if arg is not None]


def reads(nodes, name):
    """Whether the nodes read ``name``, leaving out the bodies of nested
    functions and lambdas that rebind it as a parameter."""
    for node in nodes:
        if isinstance(node, ast.Name) and node.id == name and isinstance(node.ctx, ast.Load):
            return True
        if isinstance(node, FUNCTIONS) and name in {arg.arg for arg in parameters(node)}:
            # defaults and decorators are evaluated in the enclosing scope
            outside = node.args.defaults + [d for d in node.args.kw_defaults if d]
            if reads(outside + getattr(node, "decorator_list", []), name):
                return True
        elif reads(ast.iter_child_nodes(node), name):
            return True
    return False


def unused_parameters(source):
    """(line, name) of each parameter of a function or lambda that its body
    never reads, unless it is exempt or its def line excuses it."""
    tree = ast.parse(source)
    lines = source.splitlines()
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, FUNCTIONS):
            continue
        body = node.body if isinstance(node.body, list) else [node.body]
        for arg in parameters(node):
            if arg.arg in ("self", "cls") or arg.arg.startswith("_"):
                continue
            if not reads(body, arg.arg) and not EXCUSED.search(lines[node.lineno - 1]):
                out.append((arg.lineno, arg.arg))
    return sorted(out)


MODULES = sorted(PACKAGE.glob("*.py"))


@pytest.mark.parametrize("path", [p for p in MODULES if p.name != "__init__.py"],
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_module_reads_every_parameter(path):
    assert unused_parameters(path.read_text()) == []


def test_unused_import_detection():
    source = "\n".join([
        "from __future__ import annotations",
        "from types import SimpleNamespace",
        "import numpy as np",
        "import scipy.sparse as sp",
        "import scipy.sparse",
        "from .linalg import (SparseSystem, Constrained,",
        "                     solve_direct)",
        "from .solid import solve_newton  # noqa: F401  (wrapped by name)",
        "from .solid import assemble  # noqa",
        "x = np.zeros(SparseSystem(2).n)",
    ])
    assert unused_imports(source) == [(2, "SimpleNamespace"), (4, "sp"), (5, "scipy"),
                                      (6, "Constrained"), (7, "solve_direct"),
                                      (9, "assemble")]


def test_unused_parameter_detection():
    source = "\n".join([
        "def error_norms(solution, exact_u, exact_p, order=4, *args, **kwargs):",
        "    def fields(pts, shape):",
        "        return exact_p(pts), solution",
        "    return fields, (lambda x, y: x)",
        "class Space:",
        "    def dofs(self, mesh_id, _unused):",
        "        return 0",
        "    @classmethod",
        "    def empty(cls, n):",
        "        return cls()",
        "def callback(pts, t):  # noqa: ARG001  (a field callback's signature)",
        "    return pts",
        "def bump(n, /, *, k):",
        "    del n",
        "    return k",
        "def shadowed(x, y, z):",
        "    def inner(x, y=y):",
        "        return x + y",
        "    return inner, lambda z: z",
    ])
    assert unused_parameters(source) == [(1, "args"), (1, "exact_u"), (1, "kwargs"),
                                         (1, "order"), (2, "shape"), (4, "y"),
                                         (6, "mesh_id"), (9, "n"), (13, "n"),
                                         (16, "x"), (16, "z")]
