"""Import hygiene of the package modules: every imported name is used.

A name a module imports only for others to reach (a name that
``perfbench/tracing.py`` wraps, say) says so on its import line with
``# noqa`` and a reason.  ``__init__.py`` re-exports the public API and is
not checked.
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


@pytest.mark.parametrize("path", sorted(p for p in PACKAGE.glob("*.py")
                                        if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text()) == []


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
