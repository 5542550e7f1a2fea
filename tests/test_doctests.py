"""The documented examples run: the README's fenced ``python`` blocks, in
order and in one namespace (a later block uses names an earlier one
imported), and the docstring examples of every ``coxorbits`` module.

The README is parsed block by block rather than handed to ``doctest`` whole,
because a closing fence right after an expected output line would be read
as part of that output."""
import doctest
import importlib
import pathlib
import pkgutil
import re

import coxorbits

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"
FENCED_PYTHON = re.compile(r"^```python\n(.*?)^```", re.MULTILINE | re.DOTALL)


def test_readme_examples_run():
    text = README.read_text()
    parser, runner = doctest.DocTestParser(), doctest.DocTestRunner()
    failures: list[str] = []
    globs: dict = {}
    blocks = list(FENCED_PYTHON.finditer(text))
    for k, block in enumerate(blocks):
        lineno = text.count("\n", 0, block.start(1))
        test = parser.get_doctest(
            block.group(1), globs, f"README block {k}", str(README), lineno
        )
        runner.run(test, out=failures.append, clear_globs=False)
        globs = test.globs  # the next block sees this block's names
    assert len(blocks) >= 2 and runner.tries > 0
    assert not failures, "".join(failures)


def test_module_docstring_examples_run():
    finder, runner = doctest.DocTestFinder(), doctest.DocTestRunner()
    failures: list[str] = []
    names = ["coxorbits"] + [
        info.name for info in pkgutil.iter_modules(coxorbits.__path__, "coxorbits.")
    ]
    for name in names:
        for test in finder.find(importlib.import_module(name)):
            runner.run(test, out=failures.append)
    assert runner.tries > 0
    assert not failures, "".join(failures)
