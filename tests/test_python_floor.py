"""The declared Python floor, 3.10 (pyproject.toml's requires-python), held by reading the source.

CI runs the tier-1 tests on 3.10 to 3.13, but a change made and run on a
later interpreter can still use what 3.10 lacks.  Two checks see it first:
every `.py` under src/, tests/ and perfbench/ parses under 3.10's grammar,
and none reads a name added after 3.10 except under a `sys.version_info`
check or through `getattr` with a default.  Neither can see behaviour that
changes between versions; the sweep pin on every CI leg covers the CLI's
bytes.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
FLOOR = (3, 10)

# what 3.10 lacks: attributes of any object, code.co_qualname (3.11) and
# int.is_integer and Fraction.is_integer (3.12), and names by their module
LATER_ATTRIBUTES = {"co_qualname", "is_integer"}
LATER = {
    "math": {"sumprod"},
    "itertools": {"batched"},
    "typing": {"Self"},
    "enum": {"StrEnum"},
}
LATER_MODULES = {"tomllib"}
LATER_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}


def sources() -> list[Path]:
    return sorted(path for part in ("src", "tests", "perfbench")
                  for path in (ROOT / part).rglob("*.py"))


def _version_guarded(node, parents) -> bool:
    """Whether node sits in the branch of an `if` that only a later interpreter takes."""
    child = node
    while child in parents:
        parent = parents[child]
        if isinstance(parent, (ast.If, ast.IfExp)) and isinstance(parent.test, ast.Compare) \
                and ast.unparse(parent.test.left) == "sys.version_info":
            later = isinstance(parent.test.ops[0], (ast.Gt, ast.GtE))
            branch = parent.body if isinstance(parent, ast.If) else [parent.body]
            if (child in branch) == later and child is not parent.test:
                return True
        child = parent
    return False


def later_names(source: str) -> list[str]:
    """`line: name` of each read of a name 3.10 lacks, outside a version check."""
    tree = ast.parse(source)
    parents = {child: node for node in ast.walk(tree) for child in ast.iter_child_nodes(node)}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            module = node.value.id if isinstance(node.value, ast.Name) else None
            name = node.attr if node.attr in LATER_ATTRIBUTES | LATER.get(module, set()) else None
        elif isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr" \
                and len(node.args) == 2 and isinstance(node.args[1], ast.Constant):
            # getattr(obj, name) with no default raises where name is missing
            name = node.args[1].value if node.args[1].value in LATER_ATTRIBUTES else None
        elif isinstance(node, ast.Import):
            name = next((a.name for a in node.names if a.name in LATER_MODULES), None)
        elif isinstance(node, ast.ImportFrom):
            name = node.module if node.module in LATER_MODULES else next(
                (a.name for a in node.names if a.name in LATER.get(node.module, ())), None)
        elif isinstance(node, ast.Name):
            name = node.id if node.id in LATER_BUILTINS else None
        else:
            continue
        if name is not None and not _version_guarded(node, parents):
            found.append(f"{node.lineno}: {name}")
    return found


def test_every_source_parses_under_the_floor_grammar():
    files = sources()
    assert len(files) >= 46
    failed = []
    for path in files:
        try:
            ast.parse(path.read_text(), filename=str(path), feature_version=FLOOR)
        except SyntaxError as exc:
            failed.append(f"{path.relative_to(ROOT)}:{exc.lineno}: {exc.msg}")
    assert failed == []


def test_no_source_reads_a_name_the_floor_lacks():
    found = [f"{path.relative_to(ROOT)}:{line}" for path in sources()
             for line in later_names(path.read_text())]
    assert found == []


@pytest.mark.parametrize("source", [
    "f.__code__.co_qualname",
    "getattr(code, 'co_qualname')",
    "(3).is_integer()",
    "import math\nmath.sumprod(a, b)",
    "from math import sumprod",
    "import itertools\nitertools.batched(a, 2)",
    "from itertools import batched",
    "import tomllib",
    "from tomllib import loads",
    "raise ExceptionGroup('x', [])",
    "from typing import Self",
    "import typing\ntyping.Self",
    "from enum import StrEnum",
    "import enum\nenum.StrEnum",
    "import sys\nif sys.version_info < (3, 11):\n    f.__code__.co_qualname",
    "import sys\nif sys.version_info >= (3, 11):\n    pass\nelse:\n    f.__code__.co_qualname",
])
def test_a_later_name_is_found(source):
    assert len(later_names(source)) == 1


@pytest.mark.parametrize("source", [
    "getattr(code, 'co_qualname', None)",
    "import sys\nif sys.version_info >= (3, 11):\n    f.__code__.co_qualname",
    "import sys\nname = f.__code__.co_qualname if sys.version_info >= (3, 11) else None",
    "import sys\nif sys.version_info < (3, 11):\n    pass\nelse:\n    import tomllib",
    "'co_qualname'",
    "import math\nmath.prod(a)",
])
def test_a_guarded_or_unread_name_is_not_found(source):
    assert later_names(source) == []
