"""The one regularity decision on the couple, against the rules it replaced.

`CoupleSpec.irregular_n` decides n*alpha_(d+1) != beta_d for every n >= 1 at
once, and `CoupleSpec.violations` adds alpha_0 != 0 and beta_d != 0.  The
n <= N scan and the catalog's per-family restatements (kept in
`legacy_rules`) must agree with it wherever they could see the answer.  The
paper's closed-form recurrence ties the same decision to the recurrence
table: its alpha_0(n) vanishes exactly at n = d + irregular_n().  That table
(`recurrence_numerators`) and the sequence it generates (`expand_from_couple`) are
checked against back-substitution and the generating-function expansion.
"""

import itertools
import json
import random
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from legacy_rules import per_family_violations, scan_conditions

from dsheffer import (
    CoupleSpec,
    InvalidCoupleError,
    RegularityViolationError,
    check_conditions,
    expand_from_couple,
    expand_polynomials,
    extract_recurrence,
    pair_from_couple,
    recurrence_from_couple,
)
from dsheffer import catalog
from dsheffer.catalog import FAMILIES, FamilySpec
from dsheffer.cli import main
from dsheffer.sheffer import recurrence_numerators

F = Fraction

OVER_N = CoupleSpec(d=1, gamma=(F(0), F(20)), sigma=(F(1), F(0), F(1)))


def couple_of(d, gamma, sigma):
    return CoupleSpec(d=d, gamma=tuple(map(F, gamma)), sigma=tuple(map(F, sigma)))


# ---------------------------------------------------------------- the decision

@pytest.mark.parametrize("couple, root", [
    (OVER_N, 20),
    (couple_of(1, (1, 3), (1, 0, 1)), 3),
    (couple_of(2, (1, 0, 6), (1, 0, 0, 3)), 2),
    (couple_of(1, (0, "5/2"), (1, 0, 1)), None),     # ratio not an integer
    (couple_of(1, (0, -2), (1, 0, 1)), None),        # negative ratio
    (couple_of(1, (0, 1), (1, 0, 0)), None),         # alpha_(d+1) = 0
    (couple_of(1, (1, 0), (1, 0, 1)), None),         # ratio 0 is not an n >= 1
    (couple_of(1, (1, 0), (1, 0, 0)), 1),            # both vanish: every n
])
def test_irregular_n_is_the_smallest_root(couple, root):
    assert couple.irregular_n() == root


def test_violations_name_each_broken_fact():
    assert OVER_N.violations() == ("n*alpha_(d+1) = beta_d at n = 20",)
    assert couple_of(1, (1, 0), (0, 0, 0)).violations() == ("alpha_0 = 0", "beta_d = 0")
    assert couple_of(1, (-1, 1), (-1, 2, -1)).violations() == ()


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def couples(draw):
    d = draw(st.integers(1, 3))
    gamma = draw(st.lists(rationals, min_size=d + 1, max_size=d + 1))
    sigma = draw(st.lists(rationals, min_size=d + 2, max_size=d + 2))
    if draw(st.booleans()):
        # plant beta_d / alpha_(d+1) = n0, often beyond any N drawn below
        sigma[d + 1] = draw(rationals.filter(bool))
        gamma[d] = draw(st.integers(-3, 40)) * sigma[d + 1]
    return CoupleSpec(d=d, gamma=tuple(gamma), sigma=tuple(sigma))


@settings(max_examples=150, deadline=None)
@given(couples(), st.integers(1, 30))
def test_exact_decision_agrees_with_the_scan(couple, N):
    rep = check_conditions(couple, N)
    failures, passed = scan_conditions(couple, N)
    root = couple.irregular_n()
    assert rep.to_jsonable()["checked_n"] == N
    if root is not None and root > N:
        # the scan cannot see the root; the exact decision reports it anyway
        assert (failures, passed) == ((), couple.alpha_0 != 0)
        assert rep.failures == (root,) and not rep.passed
        assert scan_conditions(couple, root)[0] == (root,)
        return
    assert rep.passed == passed
    if couple.alpha_top == 0 and couple.beta_d == 0:
        assert failures == tuple(range(1, N + 1)) and rep.failures == (1,)
    else:
        assert rep.failures == failures
        assert rep.to_jsonable()["failures"] == [{"n": n, "value": "0"} for n in failures]


# ---------------------------------------------------------------- family restrictions

VALUES = tuple(F(v) for v in ("0", "1", "-1", "2", "-2", "-3", "1/2", "-1/2", "-3/2",
                              "1/3", "-1/3", "-2/3", "-4/3"))
AUX = (F(0), F(1), F(-2))


def family_grid():
    """(family, d, values, aux) over d = 1..4, the rationals above and aux in {0, 1, -2}."""
    for family, info in FAMILIES.items():
        for d in range(1, 5):
            auxes = [None]                    # omitted: the zero polynomial
            if info.aux_len is not None:
                auxes += itertools.product(AUX, repeat=max(info.aux_len(d), 0))
            for values in itertools.product(VALUES, repeat=len(info.params)):
                for aux in auxes:
                    yield family, d, values, aux


def test_derived_restrictions_accept_what_the_per_family_rules_accept():
    grid = list(family_grid())
    assert len(grid) > 35_000
    sample = random.Random(20261018).sample(grid, 8000)
    differ = []
    accepted = 0
    for family, d, values, aux in sample:
        spec = FamilySpec(family=family, d=d, params=dict(zip(FAMILIES[family].params, values)),
                          aux=aux)
        ok = not catalog.validate_params(spec)
        accepted += ok
        if ok != (not per_family_violations(spec)):
            differ.append(spec)
    assert differ == []
    assert 1000 < accepted < 7000


@pytest.mark.parametrize("spec, parts", [
    (FamilySpec("laguerre-eq9", 1, {"alpha": -1}),
     ("alpha = -1", "n/d + alpha + 1 != 0 for all n >= 0", "beta_d = 0")),
    (FamilySpec("laguerre-eq9", 2, {"alpha": F(-3, 2)}),
     ("alpha = -3/2", "n*alpha_(d+1) = beta_d at n = 1")),
    (FamilySpec("meixner-eq16", 3, {"c": 4, "beta": F(-2, 3)}),
     ("c = 4, beta = -2/3", "beta != -n/d", "n*alpha_(d+1) = beta_d at n = 2")),
    (FamilySpec("hermite-eq12", 1, {}, (1, 1, 0)),
     ("aux = 1,1,0", "a_(d+1) != 0", "beta_d = 0")),
])
def test_a_regularity_violation_names_restriction_values_and_fact(spec, parts):
    (message,) = catalog.validate_params(spec)
    assert spec.family in message
    for part in parts:
        assert part in message


def test_rules_outside_the_couple_come_first():
    assert catalog.validate_params(FamilySpec("meixner-eq14", 1, {"c": 1, "beta": 0})) == (
        "c = 1 must avoid 0 and 1",)
    assert catalog.validate_params(FamilySpec("charlier-eq13", 1, {"omega": 0}, (0, 0))) == (
        "omega must be nonzero",)
    # at d = 2 the auxiliary constant a_0 never reaches the couple
    assert catalog.validate_params(FamilySpec("meixner-eq21", 2, {"c": 2, "beta": 1}, (0,))) == (
        "leading auxiliary coefficient a_(d-2) must be nonzero",)


# ---------------------------------------------------------------- the recurrence

SAMPLES = catalog.default_sample_specs()


@pytest.mark.parametrize("spec", SAMPLES, ids=[f"{s.family}-d{s.d}" for s in SAMPLES])
def test_closed_form_recurrence_equals_back_substitution(spec):
    seq = expand_polynomials(catalog.family_generating(spec, 24), 24)
    couple = catalog.family_couple(spec)
    table = extract_recurrence(seq, spec.d)
    assert recurrence_from_couple(couple, 24) == table
    assert expand_from_couple(couple, 24) == seq


@st.composite
def couples_and_orders(draw):
    """Valid couples with an order N, half of them with an integer root n0 <= N."""
    d = draw(st.integers(1, 3))
    N = draw(st.integers(d + 2, 14))
    gamma = draw(st.lists(rationals, min_size=d + 1, max_size=d + 1))
    sigma = draw(st.lists(rationals, min_size=d + 2, max_size=d + 2))
    sigma[0] = draw(rationals.filter(bool))
    gamma[d] = draw(rationals.filter(bool))
    if draw(st.booleans()):
        # alpha_0(n) vanishes at row d + n0, inside the table when d + n0 < N
        sigma[d + 1] = draw(rationals.filter(bool))
        gamma[d] = draw(st.integers(1, N)) * sigma[d + 1]
    return CoupleSpec(d=d, gamma=tuple(gamma), sigma=tuple(sigma)), N


@settings(max_examples=100, deadline=None)
@given(couples_and_orders())
def test_the_couple_recurrence_equals_expansion_and_back_substitution(case):
    couple, N = case
    seq = expand_polynomials(pair_from_couple(couple, N), N)
    assert expand_from_couple(couple, N) == seq
    try:
        table = extract_recurrence(seq, couple.d)
    except RegularityViolationError as exc:
        with pytest.raises(RegularityViolationError) as info:
            recurrence_from_couple(couple, N)
        assert info.value.rows == exc.rows
    else:
        assert recurrence_from_couple(couple, N) == table


def alpha_0_zeros(couple: CoupleSpec, top: int) -> list[int]:
    return [n for n, row in enumerate(recurrence_numerators(couple, top)[0])
            if n >= couple.d and row[0] == 0]


def test_alpha_0_of_the_samples_never_vanishes():
    for spec in SAMPLES:
        couple = catalog.family_couple(spec)
        assert couple.irregular_n() is None
        assert alpha_0_zeros(couple, 80) == [], spec


@settings(max_examples=100, deadline=None)
@given(couples())
def test_alpha_0_vanishes_exactly_at_d_plus_the_root(couple):
    # alpha_0(n) = n^(d) ((n - d) alpha_(d+1) - beta_d); planted roots reach 40
    assume(couple.beta_d != 0)
    if couple.alpha_0 == 0:
        with pytest.raises(InvalidCoupleError):
            recurrence_numerators(couple, 1)
        # refused as a whole, but alpha_0(n) does not read sigma_0
        couple = replace(couple, sigma=(F(1),) + couple.sigma[1:])
    root = couple.irregular_n()
    assert alpha_0_zeros(couple, couple.d + 45) == ([] if root is None else [couple.d + root])


def test_back_substitution_breaks_at_the_same_row():
    seq = expand_polynomials(pair_from_couple(OVER_N, 24), 24)
    with pytest.raises(RegularityViolationError) as info:
        extract_recurrence(seq, 1)
    assert info.value.rows == (1 + OVER_N.irregular_n(),)
    with pytest.raises(RegularityViolationError) as info:
        recurrence_from_couple(OVER_N, 24)
    assert info.value.rows == (1 + OVER_N.irregular_n(),)
    assert expand_from_couple(OVER_N, 24) == seq


def run_over_n(tmp_path, capsys, *argv):
    path = tmp_path / "couple.json"
    path.write_text(json.dumps({"d": 1, "gamma": [0, 20], "sigma": [1, 0, 1]}))
    code = main([*argv, "--couple-file", str(path)])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_recurrence_fails_at_the_row_of_the_root(tmp_path, capsys):
    assert run_over_n(tmp_path, capsys, "recurrence", "--order", "24") == (
        1, "", "verification failure: regularity violation for d=1 at n in [21]: "
               "alpha_0(n) * alpha_(d+1)(n) must stay nonzero\n")


def test_recurrence_below_the_row_of_the_root_prints_its_rows(tmp_path, capsys):
    code, out, err = run_over_n(tmp_path, capsys, "recurrence", "--order", "12")
    assert (code, err) == (0, "")
    rows = json.loads(out)["table"]["rows"]
    assert len(rows) == 12
    # alpha_0(n) = n ((n - 1) - 20), alpha_1(n) = 0, alpha_2(n) = 1
    assert rows[11] == ["-110", "0", "1"]


def test_expand_runs_past_the_row_of_the_root(tmp_path, capsys):
    code, out, err = run_over_n(tmp_path, capsys, "expand", "--order", "24")
    assert (code, err) == (0, "")
    got = [[F(c) for c in p["coeffs"]] for p in json.loads(out)["polynomials"]]
    want = expand_polynomials(pair_from_couple(OVER_N, 24), 24)
    assert got == [list(p.coeffs) for p in want]


# ---------------------------------------------------------------- verify

def verify_over_n(tmp_path, capsys, order):
    code, out, _ = run_over_n(tmp_path, capsys, "verify", "--order", str(order))
    return code, json.loads(out)


def test_verify_fails_a_root_beyond_the_order(tmp_path, capsys):
    code, doc = verify_over_n(tmp_path, capsys, 12)
    assert (code, doc["overall"], doc["conditions"]["status"]) == (1, "fail", "fail")
    assert doc["conditions"]["details"]["failures"] == [{"n": 20, "value": "0"}]
    assert doc["conditions"]["details"]["checked_n"] == 12
    # nothing else up to n = 12 can see the root
    assert all(doc[s]["status"] in ("pass", "skipped")
               for s in ("two_path", "recurrence", "duality", "orthogonality", "lowering"))


def test_verify_within_the_order_keeps_its_conditions_section(tmp_path, capsys):
    code, doc = verify_over_n(tmp_path, capsys, 22)
    assert code == 1
    assert doc["conditions"] == {
        "status": "fail",
        "details": {
            "alpha_0": "1", "alpha_0_nonzero": True, "alpha_top": "1", "beta_d": "20",
            "beta_d_nonzero": True, "checked_n": 22, "d": 1,
            "failures": [{"n": 20, "value": "0"}],
        },
    }


def test_a_couple_with_every_n_a_root_is_rejected_before_any_report(tmp_path, capsys):
    path = tmp_path / "couple.json"
    path.write_text(json.dumps({"d": 1, "gamma": [1, 0], "sigma": [1, 0, 0]}))
    code = main(["verify", "--couple-file", str(path), "--order", "8"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (2, "")
    assert "gamma must have degree exactly d=1" in captured.err
