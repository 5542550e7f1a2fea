"""Source hygiene: every name a package module imports is used there.

Each module under ``src/coxorbits`` is parsed with ``ast``; an imported
name counts as used when it occurs as a name anywhere in the module
(annotations included) or is listed in ``__all__``, which is how
``__init__`` re-exports.  ``from __future__`` imports are exempt.
"""
import ast
import pathlib

import pytest

import coxorbits

MODULES = sorted(pathlib.Path(coxorbits.__file__).parent.glob("*.py"))


def unused_imports(tree: ast.Module) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items()
                  if name not in used)


def test_unused_imports_are_found():
    tree = ast.parse(
        "import os\nfrom typing import Callable, Iterator\n"
        "from .x import y\n__all__ = ['y']\n"
        "def f(a: Iterator[int]) -> None: pass\n"
    )
    assert unused_imports(tree) == ["Callable (line 2)", "os (line 1)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []
