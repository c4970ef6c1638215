"""Checks on the package source itself."""

import ast
import os
import subprocess
import sys
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


def test_importing_the_cli_loads_no_typing():
    # the modules take their abstract types from collections.abc; -S keeps the
    # site hooks of the interpreter from loading typing before the import
    code = ("import sys; before = set(sys.modules); import dsheffer.cli; "
            "print('typing' in set(sys.modules) - before)")
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
