"""Every name imported under ``src/`` is used.

A name counts as used when the module reads it (annotations included,
quoted ones too), lists it in ``__all__``, or imports it on a line marked
``# noqa: F401``, as a deliberate re-export.  No linter ships with the
project, so this is the check for imports left behind by a refactor.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
MODULES = sorted(SRC.rglob("*.py"))


def imported_names(tree: ast.Module, lines: list[str]) -> dict[str, int]:
    """Names bound by import statements, with their line numbers."""
    names = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if "# noqa: F401" in lines[node.lineno - 1]:
            continue
        for alias in node.names:
            names[alias.asname or alias.name.split(".")[0]] = node.lineno
    return names


def used_names(tree: ast.Module) -> set[str]:
    """Names read anywhere in the module, in ``__all__`` or in a quoted
    annotation."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
        annotations = []
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
        for note in annotations:
            if isinstance(note, ast.Constant) and isinstance(note.value, str):
                used |= used_names(ast.parse(note.value, mode="eval"))
    return used


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted(
        f"line {line}: {name}"
        for name, line in imported_names(tree, source.splitlines()).items()
        if name not in used
    )


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(SRC)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_sees_each_kind_of_use():
    source = (
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "from typing import Any, Sequence\n"
        "from .kernels import interp  # noqa: F401\n"
        "from .events import Event, Tree\n"
        "__all__ = ['Event']\n"
        "def f(x: 'Sequence[int]') -> np.ndarray:\n"
        "    return x\n"
    )
    assert unused_imports(source) == ["line 2: os", "line 4: Any", "line 6: Tree"]
