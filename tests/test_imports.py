"""Every name imported under ``src/`` is used, and every module-level
private name defined there is read there.

An import counts as used when the module reads it (annotations included,
quoted ones too), lists it in ``__all__``, or imports it on a line marked
``# noqa: F401``, as a deliberate re-export.  A private name (``_name``)
bound by a module-level statement counts as read when another statement of
``src/`` reads it or imports it by name, so a helper kept only for tests
fails.  No linter ships with the project, so these are the checks for
names left behind by a refactor.
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
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
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


def private_names(stmt: ast.stmt) -> list[str]:
    """The ``_name``s a module-level statement binds: a function, a class
    or assignment targets."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if len(n) > 1 and n.startswith("_") and not n.startswith("__")]


def unread_private_names(sources: dict[str, str]) -> list[str]:
    """Private module-level names of ``sources`` (module -> text) that no
    other statement of any module reads or imports by name."""
    statements = [(module, stmt) for module, text in sources.items()
                  for stmt in ast.parse(text).body]
    reads = [used_names(stmt) | {alias.name for node in ast.walk(stmt)
                                 if isinstance(node, ast.ImportFrom) for alias in node.names}
             for _, stmt in statements]
    return sorted(
        f"{module} line {stmt.lineno}: {name}"
        for i, (module, stmt) in enumerate(statements)
        for name in private_names(stmt)
        if not any(name in names for j, names in enumerate(reads) if j != i)
    )


def test_every_private_name_is_read_in_src():
    sources = {str(path.relative_to(SRC)): path.read_text() for path in MODULES}
    assert unread_private_names(sources) == []


def test_the_private_name_check_counts_reads_beyond_the_definition():
    sources = {
        "a.py": (
            "def _used(): pass\n"
            "def _unused(n): return _unused(n - 1)\n"
            "_LIMIT, _spare = 1, 2\n"
            "_imported = 3\n"
            "def f(): return _used() + _LIMIT\n"
        ),
        "b.py": "from .a import _imported\n_spare = 4\n",
    }
    assert unread_private_names(sources) == [
        "a.py line 2: _unused", "a.py line 3: _spare", "b.py line 2: _spare",
    ]
