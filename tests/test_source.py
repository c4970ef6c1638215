"""Checks on the package source itself."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

from reach import EXEMPT, LIBRARY

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


# the library API that no CLI run enters, each with its reason and its
# test (Theorem 2.2's converse, couple_from_pair, among them)
UNREAD_PUBLIC = {name for name, (group, _, _) in EXEMPT.items() if group == LIBRARY}


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


def package_reads(source: Path = SOURCE) -> set[str]:
    """The names the modules in `source` read: each Name and attribute, and
    each name a module imports that it then reads under its bound name.

    dsheffer's re-exports and __all__ read nothing: a name does not count as
    read by being exported, nor by an import that nothing in its module reads.
    """
    read = set()
    for path in source.glob("*.py"):
        if path.name == "__init__.py":
            continue
        nodes = list(ast.walk(ast.parse(path.read_text(), filename=str(path))))
        names = {node.id for node in nodes if isinstance(node, ast.Name)}
        read |= names
        read |= {node.attr for node in nodes if isinstance(node, ast.Attribute)}
        read |= {alias.name for node in nodes if isinstance(node, ast.ImportFrom)
                 for alias in node.names if (alias.asname or alias.name) in names}
    return read


def test_an_import_counts_only_when_its_module_reads_it(tmp_path):
    (tmp_path / "a.py").write_text("from b import kept, dropped as gone\nkept()\n")
    (tmp_path / "__init__.py").write_text("from a import exported\n")
    assert package_reads(tmp_path) == {"kept"}


def test_every_public_name_has_a_reader():
    # a public name is read by package code or by the benchmark, or it is
    # library API that tests/reach.py exempts; anything else is surface
    # that only tests keep alive
    read = package_reads()
    benchmark = {word for path in PERFBENCH.iterdir() if path.is_file()
                 for word in re.findall(r"\w+", path.read_text())}
    unread = {f"{module}.{qualname}" for module, qualname, name in public_definitions()
              if name not in read | benchmark}
    assert unread <= UNREAD_PUBLIC, unread - UNREAD_PUBLIC


def test_every_top_level_export_has_a_package_reader():
    # the top level exports the product path; the operators module keeps the
    # test and benchmark routes, and the exports no package code reads are
    # exactly tests/reach.py's library API (Theorem 2.2's converse among them)
    read = package_reads()
    unread = {name for name in dsheffer.__all__ if name not in read}
    assert unread == {name.rpartition(".")[2] for name in UNREAD_PUBLIC} & set(dsheffer.__all__)


def test_importing_the_cli_loads_no_typing():
    # the modules take their abstract types from collections.abc; -S keeps the
    # site hooks of the interpreter from loading typing before the import
    code = ("import sys; before = set(sys.modules); import dsheffer.cli; "
            "print('typing' in set(sys.modules) - before)")
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout == "False\n"
