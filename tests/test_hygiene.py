"""Source hygiene: every name a package module imports is used there,
every private module-level helper is referenced somewhere in the package,
every public module-level function is referenced by the package, by
``__all__`` or by a README or docstring example, and per-group state goes
through ``groups.per_group``.

Each module under ``src/coxorbits`` is parsed with ``ast``; an imported
name counts as used when it occurs as a name anywhere in the module
(annotations included) or is listed in ``__all__``, which is how
``__init__`` re-exports.  ``from __future__`` imports are exempt.  A
function or class named ``_x`` at module level counts as live when any
module names it outside its own definition, so a helper that a refactor
leaves dead fails the gate.  A public function may also be named by
``__all__`` or an example; the functions that ``perfbench``'s layer
tracer wraps are exempt, since the tracer names them from outside.  Only
``groups.py`` touches the memo store ``memos``, and no module names
``_cache``, so a new per-group memo is a decorated function rather than a
hand-kept dict.
"""
import ast
import doctest
import pathlib
from typing import Callable, Iterator

import pytest
from test_doctests import FENCED_PYTHON, README

import coxorbits

MODULES = sorted(pathlib.Path(coxorbits.__file__).parent.glob("*.py"))
LAYERTRACE = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "layertrace.py"


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


def names_in(node: ast.AST) -> Iterator[str]:
    """The names, attributes and imported names under ``node``."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def unreferenced(
    trees: list[ast.Module],
    picks: Callable[[ast.stmt], bool],
    elsewhere: frozenset[str] = frozenset(),
) -> list[str]:
    """Module-level definitions that ``picks`` selects and that no module
    references outside their own definition, nor names in ``__all__`` or
    in ``elsewhere``.  A reference is a name, an attribute or an imported
    name."""
    defined: dict[str, int] = {}
    used: set[str] = set(elsewhere)
    for tree in trees:
        for stmt in tree.body:
            owner = getattr(stmt, "name", None)
            if owner and picks(stmt):
                defined[owner] = stmt.lineno
            if isinstance(stmt, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in stmt.targets
            ):
                used.update(ast.literal_eval(stmt.value))
            used.update(name for name in names_in(stmt) if name != owner)
    return sorted(f"{name} (line {line})" for name, line in defined.items()
                  if name not in used)


def is_private(stmt: ast.stmt) -> bool:
    """A function or class named ``_x``, dunders aside."""
    return stmt.name.startswith("_") and not stmt.name.startswith("__")


def is_public_function(stmt: ast.stmt) -> bool:
    return isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_")


def test_unreferenced_private_helpers_are_found():
    trees = [
        ast.parse("def _dead(n):\n    return _dead(n - 1)\n"
                  "def _live():\n    pass\nclass _Base:\n    pass\n"),
        ast.parse("from .a import _live\nclass B(m._Base):\n    x = _live\n"),
    ]
    assert unreferenced(trees, is_private) == ["_dead (line 1)"]


def test_no_unreferenced_private_helpers():
    trees = [ast.parse(path.read_text()) for path in MODULES]
    assert unreferenced(trees, is_private) == []


def example_names(trees: list[ast.Module]) -> frozenset[str]:
    """The names and attributes in the README's ``python`` blocks and in
    the docstring examples of the package's modules, classes and
    functions."""
    texts = FENCED_PYTHON.findall(README.read_text())
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
                texts.append(ast.get_docstring(node) or "")
    parser = doctest.DocTestParser()
    return frozenset(
        name
        for text in texts
        for example in parser.get_examples(text)
        for name in names_in(ast.parse(example.source))
    )


def traced_functions() -> set[str]:
    """The functions the benchmark's layer tracer wraps, read from its
    ``FUNCTIONS`` and ``GENERATORS`` lists of ``(module, name)`` pairs."""
    names = set()
    for stmt in ast.parse(LAYERTRACE.read_text()).body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id in ("FUNCTIONS", "GENERATORS")
            for t in stmt.targets
        ):
            names.update(name for _, name in ast.literal_eval(stmt.value))
    return names


def test_unreferenced_public_functions_are_found():
    trees = [
        ast.parse("__all__ = ['exported']\ndef exported():\n    pass\n"
                  "def shown():\n    '>>> shown()'\ndef dead():\n    pass\n"
                  "def _private():\n    pass\nclass Public:\n    pass\n"),
    ]
    found = unreferenced(trees, is_public_function, example_names(trees))
    assert found == ["dead (line 6)"]


def test_every_public_function_is_referenced():
    """Every public module-level function is referenced by the package, by
    ``__all__``, or by a README or docstring example.  The only exemptions
    are the unreferenced functions that the benchmark's layer tracer wraps:
    the tracer names them, so they stay until the tracer drops them."""
    trees = [ast.parse(path.read_text()) for path in MODULES]
    found = unreferenced(trees, is_public_function, example_names(trees))
    exempt = traced_functions()
    assert [entry for entry in found if entry.split()[0] not in exempt] == []


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
