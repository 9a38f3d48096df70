"""Every public name of ncdr has a caller outside the package's __init__.

A name in ncdr.__all__ must appear as a word in src/ncdr/*.py (not
__init__.py) or in bench/**/*.py, on a line that is neither part of an
import statement nor the name's own def or class line.  A name that only
tests use fails here: delete it, or give it a caller.
"""

import ast
import pathlib
import re

import pytest

import ncdr

ROOT = pathlib.Path(__file__).resolve().parents[1]
SOURCES = sorted(p for p in (ROOT / "src" / "ncdr").glob("*.py") if p.name != "__init__.py")
SOURCES += sorted((ROOT / "bench").glob("**/*.py"))


def _lines_outside_imports(path: pathlib.Path) -> list[str]:
    text = path.read_text()
    skip = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            skip.update(range(node.lineno, node.end_lineno + 1))
    return [line for n, line in enumerate(text.splitlines(), 1) if n not in skip]


LINES = [line for path in SOURCES for line in _lines_outside_imports(path)]


@pytest.mark.parametrize("name", ncdr.__all__)
def test_public_name_has_a_caller(name):
    word = re.compile(rf"\b{re.escape(name)}\b")
    own = re.compile(rf"^\s*(def|class)\s+{re.escape(name)}\b")
    assert any(word.search(line) and not own.match(line) for line in LINES), (
        f"{name} appears only in its own definition, imports or tests"
    )
