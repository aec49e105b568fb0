"""Checks on the library source itself."""

import ast
from pathlib import Path

import padiccf

PACKAGE = Path(padiccf.__file__).parent
SOURCES = sorted(PACKAGE.glob("*.py"))
PERFBENCH = sorted((Path(__file__).resolve().parents[1] / "perfbench").glob("*.py"))


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


def _loaded_names(path):
    """Names a file reads, as bare names or as attributes; an assignment or
    a def does not count, so a name is not its own reference."""
    names = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
    return names


def test_every_package_export_has_a_caller():
    # an export that only the tests call is dead weight in the library
    init = PACKAGE / "__init__.py"
    tree = ast.parse(init.read_text(encoding="utf-8"), filename=str(init))
    exported = [alias.asname or alias.name for node in tree.body
                if isinstance(node, ast.ImportFrom) for alias in node.names]
    used = set()
    for path in SOURCES + PERFBENCH:
        if path != init:
            used |= _loaded_names(path)
    assert len(exported) >= 40 and PERFBENCH
    assert [name for name in exported if name not in used] == []
