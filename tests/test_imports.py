"""No module of ``src/`` or ``tests/`` imports a name it never uses.

A standard-library scan of each file's syntax tree: every name an import
binds must be read somewhere in the file, as a name in code or inside a
quoted annotation. Package ``__init__.py`` files import in order to
re-export, so they are skipped; so is ``from __future__ import``.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
FILES = sorted(
    path
    for folder in ("src", "tests")
    for path in (ROOT / folder).rglob("*.py")
    if path.name != "__init__.py"
)


def imported_names(tree):
    """Each name an import binds, with the line of its import."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds `a`
                names.setdefault(alias.asname or alias.name.split(".")[0], node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                names.setdefault(alias.asname or alias.name, node.lineno)
    return names


def read_names(tree):
    """Every name the file reads, quoted annotations included."""
    used = set()
    annotations = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg) and node.annotation is not None:
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in annotations:
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                used.update(n.id for n in ast.walk(quoted) if isinstance(n, ast.Name))
    return used


def unused_imports(source):
    tree = ast.parse(source)
    used = read_names(tree)
    return sorted(
        (line, name) for name, line in imported_names(tree).items() if name not in used
    )


@pytest.mark.parametrize("path", FILES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_finds_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from typing import Any, Mapping\n"
        "from dataclasses import dataclass\n"
        "def f(x: 'Mapping[str, int]') -> Any:\n"
        "    return np.zeros(1)\n"
    )
    assert unused_imports(source) == [(2, "os"), (5, "dataclass")]
