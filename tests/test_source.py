"""Checks on the library source itself."""

import ast
from pathlib import Path

import padiccf

SOURCES = sorted(Path(padiccf.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # python -O strips assert statements, so no check the library relies on
    # may be written as one; core._invariant raises instead
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert len(SOURCES) >= 9
    assert found == []
