"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import dsheffer

SOURCE = Path(dsheffer.__file__).parent
PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


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


# the library-only entry points, which nothing but the tests reads: the
# catalog's non-raising validation API (family_couple raises on the same
# verdict) and Theorem 2.2's converse, the couple recovered from a pair
UNREAD_PUBLIC = {"catalog.validate_params", "sheffer.couple_from_pair"}


def public_definitions():
    """(module, qualified name, name) of each public top-level function, class and method."""
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                yield path.stem, node.name, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield path.stem, f"{node.name}.{item.name}", item.name


def test_every_public_name_has_a_reader():
    # a public name is read by package code (a name, an attribute or an
    # import) or by the benchmark; anything else is surface that only tests
    # keep alive.  dsheffer's re-exports and __all__ read nothing: a name
    # does not count as read by being exported
    read = set()
    for path in SOURCE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name)
    benchmark = {word for path in PERFBENCH.iterdir() if path.is_file()
                 for word in re.findall(r"\w+", path.read_text())}
    unread = {f"{module}.{qualname}" for module, qualname, name in public_definitions()
              if name not in read | benchmark}
    assert unread == UNREAD_PUBLIC


def test_importing_the_cli_loads_no_typing():
    # the modules take their abstract types from collections.abc; -S keeps the
    # site hooks of the interpreter from loading typing before the import
    code = ("import sys; before = set(sys.modules); import dsheffer.cli; "
            "print('typing' in set(sys.modules) - before)")
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
