"""Checks on the package source itself."""

import ast
from pathlib import Path

import dsheffer

SOURCE = Path(dsheffer.__file__).parent


def test_no_module_guards_with_assert():
    # python -O strips assert statements, so a check made with one could
    # vanish; the package raises instead (BackSubstitutionError, for one)
    found = [f"{path.name}:{node.lineno}"
             for path in sorted(SOURCE.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
             if isinstance(node, ast.Assert)]
    assert not found, found
    assert len(list(SOURCE.glob("*.py"))) >= 9


def test_every_exported_name_resolves():
    missing = [name for name in dsheffer.__all__ if not hasattr(dsheffer, name)]
    assert not missing, missing
