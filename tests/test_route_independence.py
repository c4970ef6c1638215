"""What each claim's two routes share, held to a list with a reason per entry.

`verify` decides a claim by computing one object two ways and comparing the
results: two_path (the closed-form expansion against the couple's
recurrence), recurrence (back-substitution in the checked sequence against
the couple's own rows), and lowering and orthogonality (the checked
sequence against the couple's FunctionalVector).  A fault in a function
that both ways call can move both results alike and pass the comparison
(Knight and Leveson, IEEE TSE 12(1), 1986).  The test records with
`sys.setprofile` the `src/` functions each route enters, over the 21
default samples and the sweep's rational edge couples, and requires the
functions both routes of a claim enter to be exactly those listed in
SHARED, each with the reason it may be shared.  A newly shared function
fails the test until it is listed with its reason, and a listed one that
is no longer shared fails it until it is taken off.
"""

import functools
import importlib
import inspect
import pkgutil
import sys
from pathlib import Path

from sweep import EDGE_COUPLES

import dsheffer
from dsheffer import catalog, dorth
from dsheffer.operators import FunctionalVector
from dsheffer.sheffer import (couple_from_json_dict, expand_from_couple, expand_polynomials,
                              pair_from_couple)

N = 8
SRC = str(Path(dsheffer.__file__).parent)

SCALED = ("reads the couple's rationals over one denominator; the recurrence claim's "
          "couple rows read each p/q alone, so a fault here fails that claim (the "
          "`scaled` mutant in tests/mutants.py)")
STORE = ("the integer form every Poly and Series is stored in, reduced by its content; "
         "tests/test_kernels.py holds each kernel that fills it to a Fraction oracle")
REFUSAL = ("the input refusal (beta_d = 0 or sigma_0 = 0) a raw couple passes before "
           "either route reads it; it computes no value")
SEQUENCE = ("PolySequence's construction check (P_0 = 1, deg P_n = n) that both "
            "sequences pass; it refuses a malformed sequence and computes no value")

CHECKED_AGAINST_FUNCTIONALS = {
    "exactnum.scaled": SCALED,
    "exactnum.content_reduced": STORE,
    "series._Vector.of": STORE,
    "series._Vector._store": STORE,
    "sheffer.CoupleSpec.validate": REFUSAL,
    "sheffer.CoupleSpec.alpha_0": REFUSAL,
    "sheffer.CoupleSpec.beta_d": REFUSAL,
}
SHARED = {
    "two_path": {
        "exactnum.scaled": SCALED,
        "exactnum.content_reduced": STORE,
        "series._Vector.of": STORE,
        "series._Vector._store": STORE,
        "sheffer.PolySequence.__post_init__": SEQUENCE,
        "series.Poly.one": SEQUENCE,
        "series.Poly.degree": SEQUENCE,
        "series.Poly.__eq__": SEQUENCE + "; also two_path's comparison itself",
        "series._Vector._same_form": SEQUENCE + "; also two_path's comparison itself",
    },
    "recurrence": {},
    "lowering": CHECKED_AGAINST_FUNCTIONALS,
    "orthogonality": CHECKED_AGAINST_FUNCTIONALS,
}


def _functions(namespace, module):
    """The functions defined in a module's or class's namespace, unwrapped."""
    for value in vars(namespace).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, functools.cached_property):
            value = value.func
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if f is not None)
        elif inspect.isclass(value) and value.__module__ == module:
            yield from _functions(value, module)
        elif callable(value) and getattr(value, "__module__", None) == module:
            value = inspect.unwrap(value)
            if inspect.isfunction(value):
                yield value


def _qualnames() -> tuple[dict, set]:
    """Each src/ function's code object mapped to module.qualname, and the nested codes.

    A code object carries its qualified name (co_qualname) only from Python
    3.11, so the names are read off the functions themselves.  The codes
    nested in those functions (inner functions, lambdas, comprehensions)
    are returned apart: the test records no function defined inside another.
    """
    names, nested = {}, set()
    for info in pkgutil.iter_modules(dsheffer.__path__, "dsheffer."):
        module = importlib.import_module(info.name)
        for function in _functions(module, info.name):
            code = function.__code__
            if code.co_filename.startswith(SRC):    # not dataclass's generated methods
                names[code] = f"{Path(code.co_filename).stem}.{function.__qualname__}"
    stack = list(names)
    while stack:
        inner = [c for c in stack.pop().co_consts if inspect.iscode(c) and c not in nested]
        nested.update(inner)
        stack += inner
    return names, nested


QUALNAMES, NESTED = _qualnames()


def entered(route, *args) -> set[str]:
    """The src/ functions that route(*args) enters, as module.qualname."""
    codes = set()

    def record(frame, event, arg):
        if event == "call" and frame.f_code.co_filename.startswith(SRC):
            codes.add(frame.f_code)

    sys.setprofile(record)
    try:
        route(*args)
    finally:
        sys.setprofile(None)
    # a src/ function the map misses would drop out of the comparison unseen;
    # lambdas and comprehensions (co_name "<lambda>", "<genexpr>", ...) are not recorded
    assert {code.co_name for code in codes
            if code not in QUALNAMES and code not in NESTED and code.co_name[0] != "<"} == set()
    names = {QUALNAMES[code] for code in codes if code in QUALNAMES}
    # where the interpreter names a code itself (3.11 on), the map must agree
    assert all(name.endswith("." + getattr(code, "co_qualname", name.split(".", 1)[1]))
               for code, name in QUALNAMES.items())
    return {name for name in names if "<" not in name}


def checked_sequence(spec, couple):
    """The sequence verify checks: a family's closed form, a raw couple's own pair."""
    if spec is None:
        return expand_polynomials(pair_from_couple(couple, N))
    return expand_polynomials(catalog.family_generating(spec, N))


def sources():
    yield from ((spec, spec.couple) for spec in catalog.default_sample_specs())
    for name in ("rational-d1", "rational-d2", "rational-d3"):
        yield None, couple_from_json_dict(EDGE_COUPLES[name])


def test_each_claims_routes_share_only_the_listed_functions(monkeypatch):
    shared = {claim: set() for claim in SHARED}
    for spec, couple in sources():
        d = couple.d
        seq = checked_sequence(spec, couple)
        table = dorth.extract_recurrence(seq, d)
        sequence = entered(checked_sequence, spec, couple)
        functionals = entered(FunctionalVector, couple, N + N // d, d)
        back_substitution = entered(
            lambda: dorth.extract_recurrence(checked_sequence(spec, couple), d))
        # the couple's rows are read inside verify's recurrence section, which
        # is entered here with back-substitution's table handed in
        monkeypatch.setattr(dorth, "extract_recurrence", lambda *_: table)
        couple_rows = entered(dorth._recurrence_section, seq, d, couple)
        monkeypatch.undo()
        routes = {
            "recurrence": (back_substitution, couple_rows),
            "lowering": (sequence, functionals),
            "orthogonality": (sequence, functionals),
        }
        if spec is not None:        # a raw couple has a single construction route
            routes["two_path"] = (sequence, entered(expand_from_couple, couple, N))
        for claim, (one, other) in routes.items():
            shared[claim] |= one & other
    assert {claim: sorted(names ^ SHARED[claim].keys()) for claim, names in shared.items()} \
        == {claim: [] for claim in SHARED}
    assert all(reason for reasons in SHARED.values() for reason in reasons.values())
