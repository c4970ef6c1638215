"""The reachability guard's decision (tests/reach.py) on made-up functions and runs; no trace."""

from calltrace import FUNCTIONS
from reach import BENCHMARK, DUNDER, EXEMPT, GROUPS, faults, unique_names
from test_traced_names import load_targets

TEST = "tests/test_reach.py::test_an_unreached_function_is_reported"
DEFINED = {1: "m.f", 2: "m.g", 3: "m.h"}


def test_an_unreached_function_is_reported():
    assert faults(DEFINED, {1, 2, 3}, {}, set()) == []
    assert faults(DEFINED, {1, 3}, {}, set()) == ["no run enters m.g, and EXEMPT does not list it"]
    assert faults(DEFINED, {1, 3}, {"m.g": (DUNDER, "why", TEST)}, set()) == []


def test_an_exempt_function_that_a_run_enters_or_that_is_gone_is_reported():
    exempt = {"m.g": (DUNDER, "why", TEST)}
    assert faults(DEFINED, {1, 2, 3}, exempt, set()) == ["EXEMPT lists m.g, which a run enters"]
    assert faults({1: "m.f", 3: "m.h"}, {1, 3}, exempt, set()) \
        == ["EXEMPT lists m.g, which no longer exists"]


def test_an_entry_with_no_reason_or_no_test_is_refused():
    for entry in ((DUNDER, "", TEST), ("a group of its own", "why", TEST)):
        assert faults(DEFINED, {1, 3}, {"m.g": entry}, set()) == ["EXEMPT gives m.g no reason"]
    for test in ("", "tests/test_reach.py", "tests/test_reach.py::test_that_is_not_here",
                 "tests/test_nothing.py::test_x", "tests/reach.py::faults",
                 "tests/test_reach.py::DEFINED"):
        assert faults(DEFINED, {1, 3}, {"m.g": (DUNDER, "why", test)}, set()) \
            == [f"EXEMPT names {test} for m.g, which is not a test"]
    # a parametrized test may be named with or without its parameters
    for test in (TEST, TEST + "[1]"):
        assert faults(DEFINED, {1, 3}, {"m.g": (DUNDER, "why", test)}, set()) == []


def test_a_function_the_benchmark_wraps_is_exempt_as_held_by_it_and_only_then():
    assert faults(DEFINED, {1, 3}, {"m.g": (BENCHMARK, "why", TEST)}, {"m.g", "m.f"}) == []
    assert faults(DEFINED, {1, 3}, {"m.g": (DUNDER, "why", TEST)}, {"m.g"}) \
        == ["EXEMPT groups m.g as 'a dunder that Python semantics or immutability need', "
            "but TARGETS wrap it"]
    assert faults(DEFINED, {1, 3}, {"m.g": (BENCHMARK, "why", TEST)}, set()) \
        == ["EXEMPT groups m.g as 'held by the benchmark', but TARGETS do not wrap it"]


def test_the_exempt_table_passes_every_check_but_the_trace():
    # with every function but the exempt ones entered, only the table's own
    # checks can fail: each entry names a function, a reason and a test
    defined = unique_names(FUNCTIONS)
    entered = {code for code, name in defined.items() if name not in EXEMPT}
    traced = {f"{module}.{path}" for module, path, _, _ in load_targets()}
    assert faults(defined, entered, EXEMPT, traced) == []
    assert {group for group, _, _ in EXEMPT.values()} == set(GROUPS)


def test_functions_that_share_a_qualname_are_told_apart_by_their_line():
    # the family records' lambdas are all catalog.<lambda>
    defined = unique_names(FUNCTIONS)
    assert len(set(defined.values())) == len(defined)
    assert "catalog.<lambda>" in FUNCTIONS.values() and "catalog.<lambda>" not in defined.values()
