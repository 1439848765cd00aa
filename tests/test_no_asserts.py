"""Correctness checks in the package raise real errors: ``python -O`` strips ``assert``."""

import ast
from pathlib import Path

import rcreg

SOURCES = sorted(Path(rcreg.__file__).parent.glob("*.py"))


def test_package_sources_hold_no_assert_statement():
    assert len(SOURCES) >= 8
    found = [f"{path.name}:{node.lineno}" for path in SOURCES
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []
