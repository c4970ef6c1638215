"""Reachability guard: each src/ function is entered by a CLI run, or is exempt.

    python tests/reach.py

builds the byte-identity sweep's corpus (tests/sweep.py) untraced, then
records (tests/calltrace.py) every src/ function entered while dsheffer is
imported and while each corpus argv runs through cli.main.  It exits 1 and
names each fault:
- a src/ function, method, property or lambda that no run enters and that
  EXEMPT does not list;
- an EXEMPT entry that a run enters, or whose function no longer exists;
- an entry with no reason or group, or whose test is not defined; an entry
  of a function perfbench/tracing.py's TARGETS wrap whose group is not
  BENCHMARK, and a BENCHMARK entry of one they do not wrap;
- an entry whose test, run under the same recorder, fails or does not
  enter the function.
On success it prints the exempt functions by group: the list of what the
CLI does not run.
"""

from __future__ import annotations

import ast
import sys
import tempfile
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# every reason falls in one of these groups
BENCHMARK = ("held by the benchmark: perfbench/tracing.py's TARGETS wrap it; ROADMAP "
             "item 2 deletes function and entry together once item 1 edits TARGETS")
UNREACHABLE = "a path the corpus cannot reach"
DUNDER = "a dunder that Python semantics or immutability need"
LIBRARY = "library API that an acceptance criterion or the README uses"
GROUPS = (BENCHMARK, UNREACHABLE, DUNDER, LIBRARY)

REPR = "the text a failing assertion or a traceback prints for the record"

# function: (group, reason, the tier-1 test that runs it)
EXEMPT = {
    "series.Series.compose": (
        BENCHMARK, "Horner's rule on the numerators; verify builds H* from the couple",
        "tests/test_series.py::test_compose_frozen_example"),
    "series.Series.reversion": (
        BENCHMARK, "Lagrange inversion; verify builds H* from the couple",
        "tests/test_series.py::test_reversion_of_catalan_generator"),
    "series.Poly.shift": (
        BENCHMARK, "p(x + omega), the tests' forward-difference oracle",
        "tests/test_series.py::test_poly_shift"),
    "operators.lowering_from_H": (
        BENCHMARK, "H* by reverting H; FunctionalVector solves the couple's ODE instead",
        "tests/test_operators.py::test_lowering_annihilates_constants"),
    "operators.apply_lowering": (
        BENCHMARK, "H*(D) on one polynomial; verify_lowering applies it to the whole sequence",
        "tests/test_operators.py::test_derivative_base"),
    "operators.functional_eval": (
        BENCHMARK, "one <u_i, f>; the checks read the moment rows directly",
        "tests/test_operators.py::test_functional_index_contract"),
    "catalog.family_lowering": (
        BENCHMARK, "a family's H* by reversion; verify builds it from the family's couple",
        "tests/test_catalog.py::test_lowering_kind_follows_family"),
    "dorth.BackSubstitutionError.__init__": (
        UNREACHABLE, "back-substitution's remainder, nonzero only for a sequence with "
        "deg P_n != n, which no source builds",
        "tests/test_dorth.py::test_back_substitution_remainder_raises_typed_error"),
    "series.Poly.pretty": (
        UNREACHABLE, "the mismatch text of a failing two_path; the two routes of every "
        "family agree",
        "tests/test_cli.py::test_verify_two_path_fails_where_the_couple_route_differs"),
    "cli.main.<locals>.<lambda>": (
        UNREACHABLE, "the digit limit's absence before Python 3.10.7, older than any "
        "interpreter CI runs",
        "tests/test_cli.py::test_an_interpreter_with_no_digit_limit_prints_the_same"),
    "series.Poly.__bool__": (
        DUNDER, "the zero polynomial is false",
        "tests/test_series.py::test_poly_trims_trailing_zeros"),
    "series.Poly.__hash__": (
        DUNDER, "a constant hashes like the Fraction it equals; without it __eq__ "
        "makes Poly unhashable",
        "tests/test_series.py::test_constant_poly_hashes_like_its_value"),
    "series.Series.__eq__": (
        DUNDER, "equal values at equal orders compare equal",
        "tests/test_series.py::test_series_equality_and_text"),
    "series._Vector.__setattr__": (
        DUNDER, "Poly and Series are immutable",
        "tests/test_series.py::test_poly_is_immutable"),
    "operators.FunctionalVector.__setattr__": (
        DUNDER, "a FunctionalVector is immutable",
        "tests/test_operators.py::test_functional_vector_is_immutable_and_prints_its_shape"),
    "series.Poly.__repr__": (
        DUNDER, REPR, "tests/test_kernels.py::test_printing_keeps_nothing_on_the_poly"),
    "series.Series.__repr__": (
        DUNDER, REPR, "tests/test_series.py::test_series_equality_and_text"),
    "operators.FunctionalVector.__repr__": (
        DUNDER, REPR,
        "tests/test_operators.py::test_functional_vector_is_immutable_and_prints_its_shape"),
    "dorth.RecurrenceTable.__repr__": (
        DUNDER, REPR, "tests/test_dorth.py::test_recurrence_row_accessor_and_jsonable"),
    "dorth.OrthogonalityReport.__repr__": (
        DUNDER, REPR,
        "tests/test_dorth.py::test_a_passing_report_builds_no_orth_cell_until_its_cells_are_read"),
    "sheffer.couple_from_pair": (
        LIBRARY, "Theorem 2.2's converse, the couple recovered from a pair (criterion 1)",
        "tests/test_acceptance.py::test_criterion_1_roundtrip"),
    "catalog.default_spec": (
        LIBRARY, "a family's default parameters; the corpus builder and perfbench read it",
        "tests/test_catalog.py::test_default_spec_shapes"),
    "catalog.default_sample_specs": (
        LIBRARY, "the 21 acceptance samples; the corpus builder and perfbench read them",
        "tests/test_catalog.py::test_default_samples_are_valid"),
    "series.Series.__init__": (
        LIBRARY, "Series(coeffs), the public constructor; the package builds by Series.of",
        "tests/test_acceptance.py::test_criterion_1_roundtrip"),
    "dorth.RecurrenceTable.rows": (
        LIBRARY, "the rows as Fractions (criteria 3 and 8); the CLI prints row_strings",
        "tests/test_acceptance.py::test_criterion_8_classical_reductions"),
}


def names_a_test(test_id: str) -> bool:
    """Whether test_id (path::name, perhaps [params]) names a test function of a test file."""
    path, _, name = test_id.partition("::")
    file = ROOT / path
    if not (name.startswith("test") and file.name.startswith("test_") and file.suffix == ".py"
            and file.is_file()):
        return False
    name = name.split("[", 1)[0]
    return any(isinstance(node, ast.FunctionDef) and node.name == name
               for node in ast.parse(file.read_text()).body)


def faults(defined: dict, entered: set, exempt: dict, traced: set[str]) -> list[str]:
    """What the guard refuses, one line each.

    defined maps each function's key to its name, entered holds the keys a
    run entered, exempt is shaped as EXEMPT, and traced holds the names
    that TARGETS wrap.
    """
    names = set(defined.values())
    reached = {name for key, name in defined.items() if key in entered}
    found = [f"no run enters {name}, and EXEMPT does not list it"
             for key, name in defined.items() if key not in entered and name not in exempt]
    for name, (group, reason, test) in exempt.items():
        if name not in names:
            found.append(f"EXEMPT lists {name}, which no longer exists")
        elif name in reached:
            found.append(f"EXEMPT lists {name}, which a run enters")
        if group not in GROUPS or not reason:
            found.append(f"EXEMPT gives {name} no reason")
        if not names_a_test(test):
            found.append(f"EXEMPT names {test} for {name}, which is not a test")
        if (group == BENCHMARK) != (name in traced):
            found.append(f"EXEMPT groups {name} as {group.split(':')[0]!r}, "
                         f"but TARGETS {'wrap' if name in traced else 'do not wrap'} it")
    return found


def unique_names(functions: dict) -> dict:
    """module.qualname, with the first line appended where a module holds two alike."""
    count = Counter(functions.values())
    return {code: name if count[name] == 1 else f"{name}:{code.co_firstlineno}"
            for code, name in functions.items()}


def _tests_enter(exempt: dict, functions: dict) -> list[str]:
    """Run each entry's test under the recorder; the entries it fails or does not enter."""
    import calltrace
    import pytest

    entered: dict[str, set[str]] = {}

    class Recorder:
        @pytest.hookimpl(hookwrapper=True)
        def pytest_runtest_call(self, item):
            with calltrace.recording() as codes:
                yield
            entered.setdefault(item.nodeid, set()).update(
                functions[code] for code in codes if code in functions)

    tests = sorted({test for _, _, test in exempt.values()})
    code = pytest.main(["-q", "-p", "no:cacheprovider", "--rootdir", str(ROOT),
                        *(str(ROOT / test) for test in tests)], plugins=[Recorder()])
    found = [f"the tests EXEMPT names fail (pytest exit code {code})"] if code else []
    for name, (_, _, test) in exempt.items():
        if not any(name in names for nodeid, names in entered.items()
                   if nodeid == test or nodeid.startswith(test + "[")):
            found.append(f"{test} does not enter {name}")
    return found


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    import calltrace
    import sweep
    from test_traced_names import load_targets

    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        argvs = sweep.corpus(workdir)
        # the corpus builder's calls are not a CLI run's, but the import is:
        # digests imports dsheffer afresh under the recorder
        for module in [m for m in sys.modules if m.split(".")[0] == "dsheffer"]:
            del sys.modules[module]
        with calltrace.recording() as codes:
            sweep.digests(argvs, workdir)
    functions = unique_names(calltrace.FUNCTIONS)
    entered = sum(code in codes for code in functions)
    print(f"{len(argvs)} runs entered {entered} of {len(functions)} src/ functions")
    for group in GROUPS:
        print(f"exempt, {group.split(':')[0]}: "
              + ", ".join(name for name, entry in EXEMPT.items() if entry[0] == group))
    traced = {f"{module}.{path}" for module, path, _, _ in load_targets()}
    found = faults(functions, codes, EXEMPT, traced) or _tests_enter(EXEMPT, functions)
    for fault in found:
        print("FAULT:", fault)
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
