"""Theorem 2.2 and Meixner's classes on the d = 1 slice with coefficients in {-1, 0, 1}.

The whole domains run in `python tests/theorem.py`; this is its tier-1 slice,
with the d - 1 side on the d = 2 and d = 3 couples with coefficients in
{-1, 1} and Meixner's classes on drawn couples with rational roots.  The
converse is drawn here: a regular couple's pair with one coefficient of A or
H moved off the couple's form gives a set that `couple_from_pair` refuses at
d', exactly when its recurrence breaks the (d' + 2)-term window or regularity.
"""

from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import classical
import theorem
from dsheffer import (
    NotDOrthogonalShefferError,
    RegularityViolationError,
    Series,
    ShefferPair,
    WindowViolationError,
    catalog,
    couple_from_pair,
    expand_polynomials,
    extract_recurrence,
    pair_from_couple,
)
from dsheffer.operators import FunctionalVector
from dsheffer.sheffer import CoupleSpec
from test_kernels import regular_couples


def test_the_d1_slice_passes_exactly_when_regular():
    # 243 couples: 72 regular, 36 with n alpha_2 = beta_1 for some n, 135 refused
    counts, above, wrong = theorem.forward(1, theorem.NARROW)
    assert wrong == []
    assert counts == (72, 36, 135)
    assert above == 72 + 36


def test_the_d2_couples_fail_at_d_minus_1():
    # 2^7 couples, none refused: each fails recurrence's window and orthogonality at d = 1
    assert theorem.below(2, (-1, 1)) == (128, [])


def test_the_d3_couples_fail_at_d_minus_1():
    # 2^9 couples, none refused: each fails recurrence's window and orthogonality at d = 2
    assert theorem.below(3, (-1, 1)) == (512, [])


def test_the_classical_rows_match_on_the_d1_slice():
    checked, wrong = theorem.classical_rows(theorem.NARROW, 12)
    assert wrong == []
    assert checked == 42


@pytest.mark.parametrize("family, kind", [
    (catalog.HERMITE_EQ12, classical.GAUSSIAN),
    (catalog.CHARLIER_EQ13, classical.POISSON),
    (catalog.LAGUERRE_EQ9, classical.GAMMA),
    (catalog.LAGUERRE_EQ10, classical.GAMMA),
    (catalog.MEIXNER_EQ14, classical.PASCAL),
    (catalog.MEIXNER_EQ16, classical.PASCAL),
])
def test_each_catalog_family_at_d1_falls_in_its_class(family, kind):
    couple = catalog.default_spec(family, 1).couple
    assert classical.classify(couple)[0] == kind
    row = list(FunctionalVector(couple, 12, 1).rows[0].coeffs)
    assert classical.moments(couple, 12, 0) == classical.moments(couple, 12, 1) == row


nonzero = st.fractions(min_value=-6, max_value=6, max_denominator=5).filter(bool)


@st.composite
def classical_couples(draw):
    """(regular d = 1 couple, its class): sigma = s2 (t - r1)(t - r2) with rational
    roots, a double root among them, or s2 = 0 (Hermite's and Charlier's shapes)."""
    gamma = (draw(nonzero | st.just(Fraction(0))), draw(nonzero))
    shape = draw(st.sampled_from((classical.GAUSSIAN, classical.POISSON, "roots")))
    if shape == classical.GAUSSIAN:
        sigma, kind = (draw(nonzero), 0, 0), shape
    elif shape == classical.POISSON:
        sigma, kind = (draw(nonzero), draw(nonzero), 0), shape
    else:
        s2, r1 = draw(nonzero), draw(nonzero)
        r2 = draw(st.just(r1) | nonzero)
        sigma = (s2 * r1 * r2, -s2 * (r1 + r2), s2)
        kind = classical.GAMMA if r1 == r2 else classical.PASCAL
    couple = CoupleSpec(d=1, gamma=gamma, sigma=tuple(map(Fraction, sigma)))
    assume(not couple.violations())
    return couple, kind


@settings(max_examples=60, deadline=None)
@given(classical_couples())
def test_the_classical_rows_match_on_drawn_couples(case):
    couple, kind = case
    row = list(FunctionalVector(couple, 12, 1).rows[0].coeffs)
    for first_root in (0, 1):
        assert classical.classify(couple, first_root)[0] == kind
        assert classical.moments(couple, 12, first_root) == row


def test_irrational_and_complex_roots_have_no_rational_class():
    # s1^2 - 4 s0 s2 = 5 (irrational roots) and -3 (complex roots)
    for sigma in ((1, 1, -1), (1, 1, 1)):
        couple = CoupleSpec(d=1, gamma=(0, 1), sigma=sigma)
        assert classical.classify(couple) is None
        assert classical.moments(couple, 4) is None
    # a rational discriminant that is a square: (1/2)^2 - 4 (1/16) (-3) = 1
    couple = CoupleSpec(d=1, gamma=(0, 1), sigma=(Fraction(1, 16), Fraction(1, 2), -3))
    assert classical.classify(couple)[0] == classical.PASCAL
    assert classical.moments(couple, 12) == list(FunctionalVector(couple, 12, 1).rows[0].coeffs)


def test_the_classes_are_the_d1_sets_only():
    with pytest.raises(ValueError, match="d = 1"):
        classical.classify(CoupleSpec(d=2, gamma=(0, 0, 1), sigma=(1, 0, 0, 0)))


def refusals(pair, d: int) -> tuple[bool, bool]:
    """Whether couple_from_pair refuses the pair at d, and whether the
    recurrence of its P_0..P_N, N the pair's order, breaks the window or
    regularity at d."""
    try:
        couple_from_pair(pair, d)
        by_couple = False
    except NotDOrthogonalShefferError:
        by_couple = True
    try:
        extract_recurrence(expand_polynomials(pair), d)
        by_recurrence = False
    except (WindowViolationError, RegularityViolationError):
        by_recurrence = True
    return by_couple, by_recurrence


@settings(max_examples=150, deadline=None)
@given(regular_couples(), st.data())
def test_a_pair_off_the_couples_form_is_refused_by_both_routes(couple, data):
    # moving A at t^j, j >= d + 2, moves gamma = sigma A'/A at t^(j-1) > d,
    # and moving H there leaves 1/H' no polynomial, so at d' = d both refuse
    d, order = couple.d, 14
    pair = pair_from_couple(couple, order)
    name = data.draw(st.sampled_from(("A", "Hx")))
    j = data.draw(st.integers(d + 2, 6))
    coeffs = list(getattr(pair, name).coeffs)
    coeffs[j] += data.draw(nonzero)
    pair = ShefferPair(**{"A": pair.A, "Hx": pair.Hx, name: Series(coeffs)})
    for check_d in (d - 1, d, d + 1):
        if check_d >= 1:
            by_couple, by_recurrence = refusals(pair, check_d)
            assert by_couple == by_recurrence, (check_d, name, j)
            assert by_couple or check_d != d, (name, j)
