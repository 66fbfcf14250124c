"""Source hygiene: no module of the package imports a name it never reads.

``__init__.py`` is exempt, because its imports are the package's exports, and
so is an import on a line marked ``# noqa: F401``.
"""

import ast
from pathlib import Path

import pytest

import fusehash

MODULES = sorted(
    path for path in Path(fusehash.__file__).parent.glob("*.py") if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    """``name (line n)`` for each name an import binds and no code reads."""
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if "# noqa: F401" not in lines[alias.lineno - 1]:
                bound[alias.asname or alias.name.split(".")[0]] = alias.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in bound.items() if name not in read]


@pytest.mark.parametrize("path", MODULES, ids=[path.name for path in MODULES])
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_finds_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .a import b, c\n"
        "from .d import e  # noqa: F401 (re-exported)\n"
        "np.zeros(b)\n"
    )
    assert unused_imports(source) == ["os (line 2)", "c (line 4)"]
