"""Couple <-> generating pair <-> polynomial sequence, in both directions."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import constant, exp, monomial

from dsheffer import (
    CoupleFileError,
    CoupleSpec,
    InvalidCoupleError,
    NotDOrthogonalShefferError,
    Poly,
    PolySequence,
    Series,
    ShefferPair,
    check_conditions,
    couple_from_json_dict,
    couple_from_pair,
    expand_polynomials,
    pair_from_couple,
)

F = Fraction

# Classical Laguerre at alpha = 0: gamma = -(1-t), sigma = -(1-t)^2.
LAGUERRE = CoupleSpec(d=1, gamma=(F(-1), F(1)), sigma=(F(-1), F(2), F(-1)))
# Probabilist's Hermite: A = exp(-t^2/2), H = t.
HERMITE = CoupleSpec(d=1, gamma=(F(0), F(-1)), sigma=(F(1),))


# ---------------------------------------------------------------- CoupleSpec

def test_couple_pads_to_declared_degrees():
    assert HERMITE.gamma == (0, -1)
    assert HERMITE.sigma == (1, 0, 0)
    assert HERMITE.alpha_top == 0


def test_couple_trims_zero_padding_but_rejects_excess_degree():
    c = CoupleSpec(d=1, gamma=(F(1), F(2), F(0)), sigma=(F(1), F(0), F(0), F(0)))
    assert c.gamma == (1, 2)
    with pytest.raises(ValueError):
        CoupleSpec(d=1, gamma=(F(1), F(2), F(3)), sigma=(F(1),))
    with pytest.raises(ValueError):
        CoupleSpec(d=1, gamma=(F(1), F(2)), sigma=(F(1), 0, 0, F(4)))


def test_couple_rejects_nonpositive_d():
    with pytest.raises(ValueError):
        CoupleSpec(d=0, gamma=(F(1),), sigma=(F(1),))


def test_couple_leading_accessors():
    assert LAGUERRE.beta_d == 1
    assert LAGUERRE.alpha_0 == -1
    assert LAGUERRE.alpha_top == -1


def test_validate_rejects_zero_beta_d():
    broken = CoupleSpec(d=1, gamma=(F(1), F(0)), sigma=(F(1),))
    with pytest.raises(InvalidCoupleError,
                       match=r"^gamma must have degree exactly d=1 \(leading coefficient is 0\)$"):
        broken.validate()


def test_validate_rejects_zero_alpha_0():
    broken = CoupleSpec(d=1, gamma=(F(0), F(1)), sigma=(F(0), F(1)))
    with pytest.raises(InvalidCoupleError, match="^sigma must have a nonzero constant term$"):
        broken.validate()


def test_couple_jsonable_uses_exact_strings():
    c = CoupleSpec(d=1, gamma=(F(1, 3), F(1)), sigma=(F(1),))
    assert c.to_jsonable() == {"d": 1, "gamma": ["1/3", "1"], "sigma": ["1", "0", "0"]}


# ---------------------------------------------------------------- JSON ingestion

def test_couple_from_json_accepts_ints_and_strings():
    c = couple_from_json_dict({"d": 1, "gamma": [-1, "1"], "sigma": ["-1", 2, -1]})
    assert c == LAGUERRE


EXACT_ONLY = "gamma: coefficients must be exact ('p/q' strings)"
DECIMAL = "gamma: not an exact rational (expected p or p/q): '0.5'"


MALFORMED = [
    ([], "couple document must be a JSON object"),                          # not an object
    ({"d": 1, "gamma": [1, 1]}, "couple document is missing key 'sigma'"),  # missing sigma
    ({"d": "1", "gamma": [1, 1], "sigma": [1]}, "'d' must be an integer"),  # d not an int
    ({"d": True, "gamma": [1, 1], "sigma": [1]}, "'d' must be an integer"),  # bool masquerading
    ({"d": 1, "gamma": "11", "sigma": [1]},                                 # gamma not an array
     "'gamma' and 'sigma' must be arrays"),
    ({"d": 1, "gamma": [1, 1.0], "sigma": [1]}, EXACT_ONLY),                # float coefficient
    ({"d": 1, "gamma": [1, True], "sigma": [1]}, EXACT_ONLY),               # bool coefficient
    ({"d": 1, "gamma": [1, "0.5"], "sigma": [1]}, DECIMAL),                 # decimal string
    ({"d": 1, "gamma": [1, None], "sigma": [1]}, EXACT_ONLY),               # null coefficient
    ({"d": 1, "gamma": [1, 1, 1], "sigma": [1]},                            # degree too high
     "gamma has 3 coefficients; at most 2 allowed"),
    ({"d": 0, "gamma": [1], "sigma": [1]}, "d must be >= 1, got 0"),        # d out of range
    ({"d": 1, "gamma": ["0.5", 1.0], "sigma": [1]}, DECIMAL),               # first bad value names it
]


@pytest.mark.parametrize("doc, message", MALFORMED,
                         ids=[f"doc{i}" for i in range(len(MALFORMED))])
def test_couple_from_json_rejects_malformed_documents(doc, message):
    with pytest.raises(CoupleFileError) as info:
        couple_from_json_dict(doc)
    assert str(info.value) == message


# ---------------------------------------------------------------- conditions

def test_conditions_pass_for_laguerre():
    rep = check_conditions(LAGUERRE, 10)
    assert rep.passed
    assert rep.failures == ()
    assert rep.to_jsonable()["failures"] == []


def test_conditions_fail_at_n_equal_beta_over_alpha():
    # alpha_top = -1, beta_d = -1: n*(-1) - (-1) = 0 at n = 1
    broken = CoupleSpec(d=1, gamma=(F(-1), F(-1)), sigma=(F(-1), F(2), F(-1)))
    rep = check_conditions(broken, 5)
    assert not rep.passed
    assert rep.failures == (1,)


def test_conditions_fail_at_n_3():
    # alpha_top = 1, beta_d = 3: fails exactly at n = 3
    couple = CoupleSpec(d=1, gamma=(F(1), F(3)), sigma=(F(1), F(0), F(1)))
    rep = check_conditions(couple, 6)
    assert rep.failures == (3,)


def test_conditions_report_a_root_beyond_n():
    # alpha_top = 1, beta_d = 20: n = 20 fails however small the checked N
    couple = CoupleSpec(d=1, gamma=(F(0), F(20)), sigma=(F(1), F(0), F(1)))
    rep = check_conditions(couple, 12)
    assert not rep.passed
    assert rep.failures == (20,)
    assert rep.to_jsonable()["checked_n"] == 12
    assert rep.to_jsonable()["failures"] == [{"n": 20, "value": "0"}]


def test_conditions_report_structural_breakage_without_raising():
    rep = check_conditions(CoupleSpec(d=1, gamma=(F(0), F(0)), sigma=(F(0),)), 4)
    assert not rep.passed
    assert not rep.to_jsonable()["alpha_0_nonzero"]
    assert not rep.to_jsonable()["beta_d_nonzero"]


# ---------------------------------------------------------------- couple -> pair

def test_laguerre_pair_series():
    pair = pair_from_couple(LAGUERRE, 6)
    # A = (1-t)^(-1), H = -t/(1-t)
    assert pair.A.coeffs == (1, 1, 1, 1, 1, 1, 1)
    assert pair.Hx.coeffs == (0, -1, -1, -1, -1, -1, -1)


def test_hermite_pair_series():
    pair = pair_from_couple(HERMITE, 4)
    assert pair.Hx.coeffs == (0, 1, 0, 0, 0)
    assert pair.A.coeffs == (1, 0, F(-1, 2), 0, F(1, 8))


def test_pair_from_couple_validates_first():
    broken = CoupleSpec(d=1, gamma=(F(1), F(0)), sigma=(F(1),))
    with pytest.raises(InvalidCoupleError):
        pair_from_couple(broken, 6)


def test_pair_invariants_enforced():
    t = monomial(1, 3)
    with pytest.raises(ValueError):
        ShefferPair(A=Series((2, 0, 0, 0)), Hx=t)      # A(0) != 1
    with pytest.raises(ValueError):
        ShefferPair(A=Series((1, 0, 0, 0)), Hx=Series((1, 1, 0, 0)))  # H(0) != 0
    with pytest.raises(ValueError):
        ShefferPair(A=Series((1, 0, 0, 0)), Hx=Series((0, 0, 1, 0)))  # H'(0) = 0
    with pytest.raises(ValueError):
        ShefferPair(A=Series((1, 0, 0)), Hx=t)          # unequal orders


# ---------------------------------------------------------------- expansion

def test_hermite_expansion():
    seq = expand_polynomials(pair_from_couple(HERMITE, 4))
    assert seq[2] == Poly((-1, 0, 1))
    assert seq[3] == Poly((0, -3, 0, 1))
    assert seq[4] == Poly((3, 0, -6, 0, 1))


def test_laguerre_expansion_has_n_factorial_normalization():
    seq = expand_polynomials(pair_from_couple(LAGUERRE, 3))
    assert seq[1] == Poly((1, -1))                      # 1! L_1
    assert seq[2] == Poly((2, -4, 1))                   # 2! L_2
    assert seq[3] == Poly((6, -18, 9, -1))              # 3! L_3


def test_appell_cubic_expansion():
    # A = exp(t^3), H = t: P_3 = 3! (1 + x^3/3!) = x^3 + 6
    a = exp(monomial(3, 4))
    pair = ShefferPair(A=a, Hx=monomial(1, 4))
    seq = expand_polynomials(pair)
    assert seq[3] == Poly((6, 0, 0, 1))
    assert seq[2] == Poly((0, 0, 1))


def test_expansion_needs_large_enough_pair():
    # the pair's order fixes the sequence: it ends at P_(pair.order)
    pair = pair_from_couple(LAGUERRE, 4)
    seq = expand_polynomials(pair)
    assert seq.max_index == pair.order == 4
    with pytest.raises(IndexError):
        seq[5]


def test_polysequence_invariants():
    with pytest.raises(ValueError):
        PolySequence(())
    with pytest.raises(ValueError):
        PolySequence((Poly((2,)),))                     # P_0 != 1
    with pytest.raises(ValueError):
        PolySequence((Poly.one(), Poly((1, 0, 1))))     # deg P_1 != 1


# ---------------------------------------------------------------- pair -> couple

def test_roundtrip_laguerre():
    pair = pair_from_couple(LAGUERRE, 12)
    assert couple_from_pair(pair, 1) == LAGUERRE


def test_roundtrip_hermite():
    pair = pair_from_couple(HERMITE, 12)
    assert couple_from_pair(pair, 1) == HERMITE


def test_couple_from_pair_rejects_nonpolynomial_sigma():
    # H = t + t^3: 1/H' = 1/(1+3t^2) is not a polynomial
    hx = Series((0, 1, 0, 1) + (0,) * 9)
    pair = ShefferPair(A=constant(F(1), 12), Hx=hx)
    with pytest.raises(NotDOrthogonalShefferError):
        couple_from_pair(pair, 1)


def test_couple_from_pair_rejects_nonpolynomial_gamma():
    # A = 1 + t with H = t: A'/(A H') = 1/(1+t) is not a polynomial
    a = Series((1, 1) + (0,) * 11)
    pair = ShefferPair(A=a, Hx=monomial(1, 12))
    with pytest.raises(NotDOrthogonalShefferError):
        couple_from_pair(pair, 1)


def test_couple_from_pair_rejects_gamma_degree_overflow():
    # A = exp(t^3) with H = t gives gamma = 3t^2, too big for d = 1
    pair = ShefferPair(A=exp(monomial(3, 12)), Hx=monomial(1, 12))
    with pytest.raises(NotDOrthogonalShefferError):
        couple_from_pair(pair, 1)
    # but it is exactly the d = 2 couple [3t^2, 1]
    c = couple_from_pair(pair, 2)
    assert c.gamma == (0, 0, 3)
    assert c.sigma == (1, 0, 0, 0)


def test_couple_from_pair_rejects_gamma_degree_deficit():
    # A = 1 means gamma = 0, never degree exactly d
    pair = ShefferPair(A=constant(F(1), 12), Hx=monomial(1, 12))
    with pytest.raises(NotDOrthogonalShefferError):
        couple_from_pair(pair, 1)


@pytest.mark.parametrize("A, Hx, message", [
    ((1,) + (0,) * 12, (0, 1, 0, 1) + (0,) * 9,
     "1/H' has a nonzero t^4 coefficient (9); not a polynomial of degree <= 2"),
    ((1, F(1, 3)) + (0,) * 11, (0, 2, F(1, 2)) + (0,) * 10,
     "1/H' has a nonzero t^3 coefficient (-1/16); not a polynomial of degree <= 2"),
    ((1, 1) + (0,) * 11, (0, 1) + (0,) * 11,
     "A'/(A H') has a nonzero t^2 coefficient (1); not a polynomial of degree <= 1"),
    ((1,) + (0,) * 12, (0, 1) + (0,) * 11,
     "A'/(A H') has degree < 1; the set is not exactly d-orthogonal for d=1"),
])
def test_couple_from_pair_error_messages(A, Hx, message):
    with pytest.raises(NotDOrthogonalShefferError) as caught:
        couple_from_pair(ShefferPair(A=Series(A), Hx=Series(Hx)), 1)
    assert str(caught.value) == message


def test_couple_from_pair_order_guard():
    pair = pair_from_couple(LAGUERRE, 4)
    with pytest.raises(ValueError):
        couple_from_pair(pair, 1)                       # needs order > 4
    with pytest.raises(ValueError):
        couple_from_pair(pair_from_couple(LAGUERRE, 12), 0)


# ---------------------------------------------------------------- random roundtrips

rationals = st.fractions(max_denominator=4, min_value=-5, max_value=5)


@st.composite
def valid_couples(draw):
    d = draw(st.integers(1, 3))
    gamma = draw(st.lists(rationals, min_size=d + 1, max_size=d + 1))
    sigma = draw(st.lists(rationals, min_size=d + 2, max_size=d + 2))
    gamma[d] = draw(rationals.filter(bool))
    sigma[0] = draw(rationals.filter(bool))
    couple = CoupleSpec(d=d, gamma=tuple(gamma), sigma=tuple(sigma))
    rep = check_conditions(couple, 16)
    if not rep.passed:
        # regularity only shapes orthogonality, not the analytic roundtrip,
        # but stay inside the characterization's hypotheses anyway
        sigma[d + 1] = F(0)
        couple = CoupleSpec(d=d, gamma=tuple(gamma), sigma=tuple(sigma))
    return couple


orders_up_to_16 = st.integers(1, 16).flatmap(lambda N: st.tuples(st.integers(1, N), st.just(N)))


@settings(deadline=None, max_examples=40)
@given(valid_couples(), orders_up_to_16)
def test_a_lower_order_pair_expands_to_a_prefix(couple, orders):
    # the pair of order k gives P_0..P_k of the pair of order N >= k, which is
    # why an expansion needs no order of its own
    k, N = orders
    short = expand_polynomials(pair_from_couple(couple, k))
    assert short.polys == expand_polynomials(pair_from_couple(couple, N)).polys[:k + 1]


@settings(deadline=None, max_examples=30)
@given(valid_couples())
@example(HERMITE)                                                   # integers, so R = 1
@example(CoupleSpec(d=2, gamma=(F(1, 2), 0, F(-2, 3)), sigma=(F(3, 4), F(1, 6))))
def test_random_couples_roundtrip(couple):
    # validate reads the couple once: integers over R = lcm of its denominators,
    # sigma's trailing zeros kept
    gamma, sigma, R = couple.validate()
    assert (len(gamma), len(sigma)) == (couple.d + 1, couple.d + 2)
    assert [F(v, R) for v in gamma + sigma] == [*couple.gamma, *couple.sigma]
    assert gcd(R, *gamma, *sigma) == 1
    pair = pair_from_couple(couple, 12)
    assert couple_from_pair(pair, couple.d) == couple
