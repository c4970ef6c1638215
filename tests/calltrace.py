"""The src/ functions a call enters, recorded with `sys.setprofile`.

Each function of the package is keyed by its code object.  `FUNCTIONS`
finds every one of them, lambdas and functions defined inside others
included, by compiling each module's source once more: a code object
compares by value, so the code the interpreter runs is equal to the one
compiled here.  It names each `module.qualname` by the path of the codes
that hold it, because a code object carries its qualified name
(`co_qualname`) only from Python 3.11; where it does, the two must agree.

    with recording() as codes:
        route(*args)
    names(codes)            # the module.qualname of each function entered

`tests/test_route_independence.py` and `tests/reach.py` read it.
"""

from __future__ import annotations

import importlib.util
import inspect
import sys
from contextlib import contextmanager
from pathlib import Path

SRC = Path(importlib.util.find_spec("dsheffer").origin).parent

# the codes of comprehensions and generator expressions are parts of the
# function that holds them, not functions of their own
COMPREHENSIONS = {"<listcomp>", "<setcomp>", "<dictcomp>", "<genexpr>"}


def _nested(code, prefix: str):
    """(code, qualname) of each function held in code, at any depth."""
    for const in code.co_consts:
        if not inspect.iscode(const):
            continue
        qualname = prefix + const.co_name
        if const.co_flags & inspect.CO_NEWLOCALS:       # a function, not a class body
            if const.co_name not in COMPREHENSIONS:
                yield const, qualname
            yield from _nested(const, qualname + ".<locals>.")
        else:
            yield from _nested(const, qualname + ".")


def _functions(src: Path) -> dict:
    """Each src/ function's code object mapped to module.qualname."""
    functions = {}
    for path in sorted(src.glob("*.py")):
        # dont_inherit: compiled as the import compiles it, without this
        # module's own __future__ flags
        module = compile(path.read_text(), str(path), "exec", dont_inherit=True)
        for code, qualname in _nested(module, ""):
            if code in functions:
                raise ValueError(f"{path.stem}.{qualname} equals {functions[code]}")
            own = getattr(code, "co_qualname", qualname)
            if own != qualname:
                raise ValueError(f"{path.stem}.{qualname} is named {own}")
            functions[code] = f"{path.stem}.{qualname}"
    return functions


FUNCTIONS = _functions(SRC)


@contextmanager
def recording():
    """The set of code objects of the src/ functions entered in the block."""
    codes, prefix = set(), str(SRC)

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(prefix):
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(record)
    try:
        yield codes
    finally:
        sys.setprofile(previous)


def names(codes) -> set[str]:
    """The module.qualname of each function among codes.

    A module or class body, or a comprehension, is no function and has no
    name; any other code that FUNCTIONS misses would drop out unseen, so it
    raises.
    """
    missed = {code.co_name for code in codes if code not in FUNCTIONS
              and code.co_flags & inspect.CO_NEWLOCALS and code.co_name not in COMPREHENSIONS}
    if missed:
        raise LookupError(f"src/ functions with no name: {sorted(missed)}")
    return {FUNCTIONS[code] for code in codes if code in FUNCTIONS}
