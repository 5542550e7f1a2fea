"""Source hygiene: every name a package module imports is used there,
every private module-level helper is referenced somewhere in the package,
and per-group state goes through ``groups.per_group``.

Each module under ``src/coxorbits`` is parsed with ``ast``; an imported
name counts as used when it occurs as a name anywhere in the module
(annotations included) or is listed in ``__all__``, which is how
``__init__`` re-exports.  ``from __future__`` imports are exempt.  A
function or class named ``_x`` at module level counts as live when any
module names it outside its own definition, so a helper that a refactor
leaves dead fails the gate.  Only ``groups.py`` touches the memo store
``memos``, and no module names ``_cache``, so a new per-group memo is a
decorated function rather than a hand-kept dict.
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


def unreferenced_private(trees: list[ast.Module]) -> list[str]:
    """Module-level functions and classes named ``_x`` (dunders aside) that
    no module references outside their own definition.  A reference is a
    name, an attribute or an imported name."""
    defined: dict[str, int] = {}
    used: set[str] = set()
    for tree in trees:
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            if owner and owner.startswith("_") and not owner.startswith("__"):
                defined[owner] = stmt.lineno
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    name = node.id
                elif isinstance(node, ast.Attribute):
                    name = node.attr
                elif isinstance(node, ast.alias):
                    name = node.name
                else:
                    continue
                if name != owner:
                    used.add(name)
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in used)


def test_unreferenced_private_helpers_are_found():
    trees = [
        ast.parse("def _dead(n):\n    return _dead(n - 1)\n"
                  "def _live():\n    pass\nclass _Base:\n    pass\n"),
        ast.parse("from .a import _live\nclass B(m._Base):\n    x = _live\n"),
    ]
    assert unreferenced_private(trees) == ["_dead (line 1)"]


def test_no_unreferenced_private_helpers():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    assert unreferenced_private(trees) == []


def memo_store_uses(trees: dict[str, ast.Module]) -> list[str]:
    """Names or attributes ``memos`` outside ``groups.py``, and ``_cache``
    anywhere, as ``file:line name``."""
    found = []
    for filename, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Name):
                name = node.id
            else:
                continue
            if name == "_cache" or (name == "memos" and filename != "groups.py"):
                found.append((filename, node.lineno, name))
    return [f"{filename}:{line} {name}" for filename, line, name in sorted(found)]


def test_memo_store_uses_are_found():
    trees = {
        "groups.py": ast.parse("memo = w.memos[name]\n"),
        "absorder.py": ast.parse(
            "memos = {}\nw.memos.clear()\nw._cache['k'] = lru_cache\n"
        ),
    }
    assert memo_store_uses(trees) == [
        "absorder.py:1 memos", "absorder.py:2 memos", "absorder.py:3 _cache",
    ]


def test_per_group_state_goes_through_the_decorator():
    trees = {path.name: ast.parse(path.read_text()) for path in MODULES}
    assert memo_store_uses(trees) == []
