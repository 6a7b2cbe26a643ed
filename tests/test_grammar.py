"""Every package module parses under the Python 3.10 grammar, the oldest
version ``pyproject.toml`` accepts.  This checks syntax only: code that
calls a library feature newer than 3.10 still passes here, so it is no
substitute for running the tests on 3.10."""

import ast
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "typetaste").glob("*.py"))


def test_sources_found():
    assert len(SOURCES) > 5


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_parses_as_python_310(path):
    ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=(3, 10))
