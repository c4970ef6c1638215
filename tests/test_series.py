"""Polynomials and truncated power series: exactness is the whole point here."""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsheffer import Poly, Series
from dsheffer.series import poly_latex
from dsheffer.exactnum import scaled
from reference import (
    add, constant, differentiate, exp, fraction_compose, from_poly, integrate, invert_mul, log,
    monomial, mul, newton_reversion, pow_rat, sub, truncate,
)

F = Fraction


def horner(p: Poly, value) -> Fraction:
    """p(value), by Horner's rule over the coefficients."""
    out = Fraction(0)
    for c in reversed(p.coeffs):
        out = out * value + c
    return out


# ================================================================ Poly

def test_poly_trims_trailing_zeros():
    assert Poly((1, 2, 0, 0)) == Poly((1, 2))
    assert not Poly((0, 0)) and Poly((0, 0)).degree() is None
    assert Poly(()).degree() is None
    assert Poly((5,)).degree() == 0


def test_poly_rejects_floats():
    with pytest.raises(TypeError):
        Poly((0.5,))


def test_poly_is_immutable():
    p = Poly((1, 2))
    with pytest.raises(AttributeError):
        p.coeffs = ()


def test_poly_equality_against_scalars():
    assert Poly((3,)) == 3
    assert Poly(()) == 0
    assert Poly((0, 1)) != 1


def test_constant_poly_hashes_like_its_value():
    assert len({Poly.one(), 1, F(1)}) == 1
    assert len({Poly(()), 0, F(0)}) == 1
    half = Poly((F(-1, 2),))
    assert half == F(-1, 2) and hash(half) == hash(F(-1, 2))
    assert {half: "x"}[F(-1, 2)] == "x"
    p = Poly((1, F(2, 3)))          # nonconstant: hashed by its stored form
    assert hash(p) == hash(("Poly", (3, 2), 3))


def test_poly_arithmetic():
    p = Poly((1, 2))          # 1 + 2x
    q = Poly((0, 0, 1))       # x^2
    assert p + q == Poly((1, 2, 1))
    assert p - p == Poly(())
    assert p * q == Poly((0, 0, 1, 2))
    assert p * F(1, 2) == Poly((F(1, 2), 1))
    assert horner(p + q, F(1, 2)) == F(9, 4)


def test_poly_cancellation_trims():
    # leading terms cancel; the result must re-trim
    assert Poly((0, 1, 1)) - Poly((1, 0, 1)) == Poly((-1, 1))


def test_poly_pow():
    assert Poly((1, 1)) ** 3 == Poly((1, 3, 3, 1))
    assert Poly((1, 1)) ** 0 == Poly((1,))


def test_poly_derivative():
    assert Poly((5, 3, 0, 2)).derivative() == Poly((3, 0, 6))
    assert not Poly((7,)).derivative()


def test_poly_shift():
    # f(x + 1) for f = x^2
    assert Poly((0, 0, 1)).shift(F(1)) == Poly((1, 2, 1))
    assert Poly((0, 1)).shift(F(-1, 2)) == Poly((F(-1, 2), 1))


def test_poly_pretty_and_latex():
    p = Poly((2, -4, 1))
    assert p.pretty() == "x^2 - 4*x + 2"
    assert poly_latex(p.coeff_strings()) == "x^{2} - 4 x + 2"
    q = Poly((F(1, 2), 0, F(-3, 2), 1))
    assert q.pretty() == "x^3 - 3/2*x^2 + 1/2"
    assert poly_latex(q.coeff_strings()) == "x^{3} - \\frac{3}{2} x^{2} + \\frac{1}{2}"
    assert Poly(()).pretty() == "0"


def test_poly_constructors():
    assert Poly((F(2, 3),)).degree() == 0


poly_coeffs = st.lists(st.fractions(max_denominator=8, min_value=-8, max_value=8),
                       max_size=6)


@given(poly_coeffs, poly_coeffs, st.fractions(max_denominator=6, min_value=-4, max_value=4))
def test_poly_product_evaluation_homomorphism(a, b, x):
    p, q = Poly(a), Poly(b)
    assert horner(p * q, x) == horner(p, x) * horner(q, x)
    assert horner(p + q, x) == horner(p, x) + horner(q, x)


@given(poly_coeffs, st.fractions(max_denominator=6, min_value=-4, max_value=4),
       st.fractions(max_denominator=6, min_value=-4, max_value=4))
def test_poly_shift_evaluates_correctly(a, w, x):
    p = Poly(a)
    assert horner(p.shift(w), x) == horner(p, x + w)


# ================================================================ Series basics

def test_series_orders():
    s = Series((1, 2, 3))
    assert s.order == 2
    assert s.coeffs[0] == 1
    assert monomial(1, 5).coeffs == (0, 1, 0, 0, 0, 0)
    assert constant(F(1), 3).coeffs == (1, 0, 0, 0)
    assert monomial(2, 4).coeffs == (0, 0, 1, 0, 0)
    assert monomial(1, 3, F(1, 2)).coeffs == (0, F(1, 2), 0, 0)


def test_series_rejects_empty_and_floats():
    with pytest.raises(ValueError):
        Series(())
    with pytest.raises(TypeError):
        Series((0.5, 1))


def test_series_keeps_fraction_coefficients_as_given():
    third = F(1, 3)
    s = Series((third, 2))
    assert s.coeffs[0] == third
    assert type(s.coeffs[1]) is Fraction and s.coeffs[1] == 2
    with pytest.raises(TypeError):
        Series((third, 0.5))


# ================================================================ the stored form

form_coeffs = st.lists(st.fractions(min_value=-40, max_value=40, max_denominator=60), max_size=8)
multipliers = st.integers(-60, 60).filter(bool)


def assert_canonical(v):
    assert v.den > 0 and gcd(v.den, *v.nums) == 1


@given(form_coeffs, multipliers)
def test_of_any_multiple_of_the_form_equals_the_public_constructor(coeffs, m):
    nums, den = scaled(coeffs)
    trimmed = list(coeffs)
    while trimmed and trimmed[-1] == 0:
        trimmed.pop()
    p, q = Poly.of([m * v for v in nums], m * den), Poly(coeffs)
    assert_canonical(p)
    assert p == q and hash(p) == hash(q)
    assert p.coeffs == q.coeffs and p.degree() == q.degree()
    assert (list(p.nums), p.den) == (list(q.nums), q.den) == scaled(trimmed)
    if coeffs:
        s, t = Series.of([m * v for v in nums], m * den), Series(coeffs)
        assert_canonical(s)
        assert s == t and s.coeffs == t.coeffs and s.order == t.order
        assert (list(s.nums), s.den) == (list(t.nums), t.den) == scaled(coeffs)


def test_of_reduces_the_zero_polynomial_to_denominator_one():
    z = Poly.of((0, 0), 5)
    assert z == Poly(()) and not z and z.degree() is None
    assert z.nums == () and z.den == 1
    assert Series.of((0, 0), -5).nums == (0, 0) and Series.of((0, 0), -5).den == 1


def test_of_rejects_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        Poly.of((1,), 0)


def test_series_is_immutable():
    s = Series((1, 2))
    with pytest.raises(AttributeError):
        s.coeffs = ()


def test_series_equality_and_text():
    # equal values at equal orders; the order is part of the value
    assert Series((1, F(2, 4))) == Series((F(2, 2), F(1, 2)))
    assert Series((1, 0)) != Series((1,))
    assert Series((1,)) != Poly((1,))
    assert repr(Series((1, F(-1, 2)))) == "Series([Fraction(1, 1), Fraction(-1, 2)])"


def test_series_has_no_operators():
    # Series is a record; the series arithmetic is the tests' (reference.py)
    s = Series((1, 2, 3))
    for operate in (lambda: s + s, lambda: s * s, lambda: s - s, lambda: -s,
                    lambda: s + 1, lambda: 1 + s, lambda: s * F(1, 2), lambda: 2 * s,
                    lambda: s - 1, lambda: 1 - s):
        with pytest.raises(TypeError):
            operate()


def test_series_equal_order_requirement():
    with pytest.raises(ValueError):
        add(Series((1, 2)), Series((1, 2, 3)))
    with pytest.raises(ValueError):
        mul(Series((1, 2)), Series((1, 2, 3)))


def test_series_scalar_arithmetic():
    s = Series((1, 2, 3))
    assert add(s, 1).coeffs == (2, 2, 3)
    assert sub(s, F(1, 2)).coeffs == (F(1, 2), 2, 3)
    assert mul(s, 2).coeffs == (2, 4, 6)


def test_series_truncate():
    s = Series((1, 2, 3, 4))
    assert truncate(s, 1).coeffs == (1, 2)
    with pytest.raises(ValueError):
        truncate(s, 5)


def test_series_cauchy_product():
    geo = Series((1, 1, 1, 1))
    assert mul(geo, geo).coeffs == (1, 2, 3, 4)


def test_series_from_poly_pads_and_truncates():
    assert from_poly(Poly((1, 0, 2)), 4).coeffs == (1, 0, 2, 0, 0)
    assert from_poly(Poly((1, 0, 2)), 1).coeffs == (1, 0)


# ---------------------------------------------------------------- calculus

def test_differentiate_drops_order():
    s = Series((5, 1, 2, 3))
    ds = differentiate(s)
    assert ds.order == 2
    assert ds.coeffs == (1, 4, 9)


def test_differentiate_at_order_zero():
    assert differentiate(Series((7,))).coeffs == (0,)


def test_integrate_keeps_order_and_drops_top():
    s = Series((1, 4, 9))
    assert integrate(s).coeffs == (0, 1, 2)   # 9 t^2 would land at t^3, above order


def test_integrate_then_differentiate():
    s = Series((0, 1, 2, 3))
    back = differentiate(integrate(s))
    assert back.coeffs == truncate(s, back.order).coeffs


# ---------------------------------------------------------------- inverse, exp, log

def test_invert_mul_geometric():
    one_minus_t = Series((1, -1, 0, 0, 0))
    assert invert_mul(one_minus_t).coeffs == (1, 1, 1, 1, 1)


def test_invert_mul_needs_unit_constant():
    with pytest.raises(ValueError):
        invert_mul(Series((0, 1)))


def test_exp_frozen_example():
    s = Series((0, 1, 1, 0, 0))          # t + t^2
    assert exp(s).coeffs == (1, 1, F(3, 2), F(7, 6), F(25, 24))


def test_exp_needs_zero_constant():
    with pytest.raises(ValueError):
        exp(Series((1, 1)))


def test_log_frozen_example():
    s = Series((1, -1, 0, 0, 0))         # 1 - t
    assert log(s).coeffs == (0, -1, F(-1, 2), F(-1, 3), F(-1, 4))


def test_log_needs_unit_constant():
    with pytest.raises(ValueError):
        log(Series((2, 1)))


def test_pow_rat_frozen_example():
    s = Series((1, -2, 0, 0, 0))         # 1 - 2t
    assert pow_rat(s, F(-1, 2)).coeffs == (1, 1, F(3, 2), F(5, 2), F(35, 8))


def test_pow_rat_integer_exponent_agrees_with_multiplication():
    s = Series((1, 2, -1, 3))
    assert pow_rat(s, F(3)).coeffs == mul(mul(s, s), s).coeffs


def test_pow_rat_needs_unit_constant():
    for r in (0, 1, -1, F(1, 2)):
        with pytest.raises(ValueError):
            pow_rat(Series((2, 1)), r)


@given(st.lists(st.fractions(max_denominator=9, min_value=-7, max_value=7), max_size=10),
       st.sampled_from([0, 1, -1, F(0), F(1), F(-1), "-1"]))
def test_pow_rat_unit_exponents_equal_the_log_exp_route(tail, r):
    # orders 0 .. 10; pow_rat has no branch on r, and at 0, 1 and -1 it must
    # give the log/exp route's values and those of its former branches: the
    # constant 1, the series itself and its inverse
    s = Series([F(1)] + tail)
    direct = pow_rat(s, r)
    route = exp(mul(log(s), F(r)))
    branch = {0: constant(1, s.order), 1: s, -1: invert_mul(s)}[int(r)]
    assert (direct.nums, direct.den, direct.order) == (route.nums, route.den, route.order)
    assert (direct.nums, direct.den, direct.order) == (branch.nums, branch.den, branch.order)


unit_series = st.lists(st.fractions(max_denominator=6, min_value=-5, max_value=5),
                       min_size=1, max_size=6).map(lambda tail: Series([F(1)] + tail))


@settings(deadline=None)
@given(unit_series)
def test_exp_log_roundtrip(s):
    assert exp(log(s)).coeffs == s.coeffs


@settings(deadline=None)
@given(unit_series, st.fractions(max_denominator=4, min_value=-3, max_value=3),
       st.fractions(max_denominator=4, min_value=-3, max_value=3))
def test_pow_rat_additivity(s, a, b):
    assert mul(pow_rat(s, a), pow_rat(s, b)).coeffs == pow_rat(s, a + b).coeffs


# ---------------------------------------------------------------- composition

def test_compose_frozen_example():
    outer = Series((1, 1, 1, 1))         # 1/(1-u) truncated
    inner = Series((0, 1, 1, 0))         # t + t^2
    assert outer.compose(inner).coeffs == (1, 1, 2, 3)


def test_compose_requires_zero_inner_constant():
    with pytest.raises(ValueError):
        Series((1, 1)).compose(Series((1, 1)))


def test_compose_requires_equal_orders():
    with pytest.raises(ValueError):
        Series((1, 1, 1)).compose(Series((0, 1)))


# ---------------------------------------------------------------- reversion

def lagrange_inversion(s: Series, n: int) -> Fraction:
    """[t^n] of the compositional inverse of s, by Lagrange's formula.

    g_n = (1/n) [w^(n-1)] (w / s(w))^n, computed with plain multiplications
    so it shares no code path with Newton-iteration reversion.
    """
    if n < 1 or n > s.order:
        raise ValueError("need 1 <= n <= order")
    u = Series(s.coeffs[1:])             # s/t, constant = s_1 != 0
    w = invert_mul(u)                    # (t/s) as a series in t
    power = constant(F(1), w.order)
    for _ in range(n):
        power = mul(power, w)
    return power.coeffs[n - 1] / n


def test_reversion_of_catalan_generator():
    s = Series((0, 1, -1, 0, 0, 0))      # t - t^2
    assert s.reversion().coeffs == (0, 1, 1, 2, 5, 14)


def test_reversion_is_involutive_on_moebius():
    s = Series([0] + [F(-1)] * 6)        # -t/(1-t), equal to its own inverse
    assert s.reversion().coeffs == s.coeffs


def test_reversion_agrees_with_lagrange_inversion():
    # Series.reversion is Lagrange inversion itself, so the test's Lagrange
    # route is held against the Newton oracle, and the Newton oracle against
    # Series.reversion
    s = Series((0, 1, F(2, 3), -1, F(1, 2), 0, 2, -1, F(5, 7)))
    g = newton_reversion(s)
    for n in range(1, s.order + 1):
        assert g.coeffs[n] == lagrange_inversion(s, n), n
    assert s.reversion() == g


def test_reversion_requires_zero_constant_and_unit():
    with pytest.raises(ValueError):
        Series((1, 1)).reversion()
    with pytest.raises(ValueError):
        Series((0, 0, 1)).reversion()


invertible_series = st.lists(
    st.fractions(max_denominator=5, min_value=-4, max_value=4),
    min_size=0, max_size=5,
).flatmap(lambda tail: st.fractions(max_denominator=5, min_value=-4, max_value=4)
          .filter(bool)
          .map(lambda c1: Series([F(0), c1] + tail)))


@settings(deadline=None, max_examples=40)
@given(invertible_series)
def test_reversion_composes_to_identity(s):
    g = s.reversion()
    assert s.compose(g).coeffs == monomial(1, s.order).coeffs
    assert g.reversion().coeffs == s.coeffs


series_coeffs = st.fractions(max_denominator=7, min_value=-6, max_value=6)


@settings(deadline=None, max_examples=40)
@given(st.integers(1, 20).flatmap(lambda n: st.tuples(
    series_coeffs.filter(lambda c: c not in (0, 1)),
    st.lists(series_coeffs, min_size=n - 1, max_size=n - 1))))
def test_reversion_equals_newton_iteration(drawn):
    # orders 1..20, a linear coefficient other than 0 and 1
    c1, tail = drawn
    s = Series([F(0), c1] + tail)
    assert s.reversion() == newton_reversion(s)


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 16).flatmap(lambda n: st.tuples(
    st.lists(series_coeffs, min_size=n + 1, max_size=n + 1),
    st.lists(series_coeffs, min_size=n, max_size=n))))
def test_compose_equals_the_fraction_horner_oracle(drawn):
    outer, tail = drawn
    inner = [F(0)] + tail
    assert Series(outer).compose(Series(inner)).coeffs == tuple(fraction_compose(outer, inner))


# ---------------------------------------------------------------- coefficient ring

def test_all_results_stay_fractions():
    s = pow_rat(Series((1, -2, 0, 0, 0)), F(-1, 2))
    assert all(isinstance(c, Fraction) for c in s.coeffs)


def test_polynomial_coefficients_rejected():
    # series coefficients are rationals only; expand_polynomials needs no more
    with pytest.raises(TypeError):
        Series((Poly(()), Poly((0, 1))))
    with pytest.raises(TypeError):
        constant(Poly((0, 1)), 3)
