"""Lowering operators sigma = H*(D) and the functional vector u_0..u_{d-1}.

The forward difference Delta_omega of a family's Newton form is the tests'
oracle (tests/reference.py); the package's operator is H*(D) alone.
"""

from fractions import Fraction

import pytest
from reference import (UncheckedSequence, delta, fraction_hstar, lowering_failures, monomial,
                       truncate)

from dsheffer import (
    FunctionalVector,
    Poly,
    Series,
    expand_polynomials,
    pair_from_couple,
    verify_lowering,
)
from dsheffer.operators import apply_lowering, functional_eval, lowering_from_H
from dsheffer.sheffer import CoupleSpec, InvalidCoupleError

F = Fraction

LAGUERRE = CoupleSpec(d=1, gamma=(F(-1), F(1)), sigma=(F(-1), F(2), F(-1)))
HERMITE = CoupleSpec(d=1, gamma=(F(0), F(-1)), sigma=(F(1),))


# ---------------------------------------------------------------- base operators

def test_derivative_base():
    # H* = t makes sigma the derivative itself
    assert apply_lowering(monomial(1, 3), Poly((0, 0, 0, 1))) == Poly((0, 0, 3))


def test_forward_difference_base():
    x2 = Poly((0, 0, 1))
    assert delta(x2, F(1)) == Poly((1, 2))
    assert delta(x2, F(1, 2)) == Poly((F(1, 2), 2))


def test_difference_requires_step():
    with pytest.raises(ValueError):
        delta(Poly((0, 1)), 0)


# ---------------------------------------------------------------- lowering operators

def test_verify_lowering_rejects_a_nonzero_constant_term():
    seq = expand_polynomials(pair_from_couple(LAGUERRE, 4))
    with pytest.raises(ValueError, match="constant term"):
        verify_lowering(seq, Series((1, 1, 0, 0, 0)))         # hstar(0) != 0
    # hstar'(0) = 0 is no error: sigma = D^2 lowers by two, so every n >= 1 fails
    assert verify_lowering(seq, Series((0, 0, 1, 0, 0))) == (1, 2, 3, 4)
    assert not verify_lowering(seq, FunctionalVector(LAGUERRE, 4, 1).hstar)


def test_lowering_from_moebius_H_is_its_own_inverse():
    hx = Series([0] + [F(-1)] * 8)                            # -t/(1-t)
    op = lowering_from_H(hx)
    assert op.coeffs == hx.coeffs


def test_identity_hstar_reduces_to_base_operator():
    op = monomial(1, 6)
    p = Poly((1, 2, 0, 5))
    assert apply_lowering(op, p) == p.derivative()
    # in the oracle, h* = t with a step is Delta_omega itself, which lowers the
    # falling factorials (x)_(n,omega) and D does not
    falling = [Poly.one()]
    for n in range(5):
        falling.append(falling[-1] * Poly((-n * F(1, 2), 1)))
    seq, t = UncheckedSequence(falling), monomial(1, 6).coeffs
    assert lowering_failures(seq, t, F(1, 2)) == []
    assert lowering_failures(seq, t) == [2, 3, 4, 5]


def test_laguerre_lowering_on_monomial():
    pair = pair_from_couple(LAGUERRE, 8)
    op = lowering_from_H(pair.Hx)
    assert apply_lowering(op, Poly((0, 1))) == Poly((-1,))


def test_lowering_annihilates_constants():
    pair = pair_from_couple(LAGUERRE, 8)
    op = lowering_from_H(pair.Hx)
    assert not apply_lowering(op, Poly.one())


def test_lowering_drops_sequence_index():
    pair = pair_from_couple(LAGUERRE, 6)
    seq = expand_polynomials(pair)
    op = lowering_from_H(pair.Hx)
    for n in range(1, 7):
        assert apply_lowering(op, seq[n]) == seq[n - 1] * F(n)
    assert not apply_lowering(op, seq[0])


def test_lowering_order_guard():
    op = lowering_from_H(monomial(1, 3))
    with pytest.raises(ValueError):
        apply_lowering(op, Poly((0,) * 5 + (1,)))


def test_lowering_from_H_can_re_truncate():
    hx = Series([0] + [F(-1)] * 10)
    op = lowering_from_H(truncate(hx, 4))
    assert op.order == 4


def test_lowering_from_couple_kind_follows_step():
    op = FunctionalVector(LAGUERRE, 6, 1).hstar
    assert op.order == 6
    # Charlier at step 1/2: the oracle's Newton h* solves (1 + s/2) y' = 1 + y/2,
    # so it is t; the package's H* solves y' = 1 + y/2, so it is 2 (e^(s/2) - 1)
    charlier = CoupleSpec(d=1, gamma=(F(0), F(1)), sigma=(F(1), F(1, 2)))
    assert fraction_hstar(charlier, 6, F(1, 2)) == [0, 1, 0, 0, 0, 0, 0]
    opd = FunctionalVector(charlier, 6, 1).hstar
    assert opd.coeffs == (0, 1, F(1, 4), F(1, 24), F(1, 192), F(1, 1920), F(1, 23040))


def test_lowering_from_couple_contracts():
    with pytest.raises(ValueError):
        FunctionalVector(LAGUERRE, 0, 1)
    with pytest.raises(InvalidCoupleError):
        FunctionalVector(CoupleSpec(d=1, gamma=(F(1), F(1)), sigma=(F(0), F(1))), 6, 1)


# ---------------------------------------------------------------- functional vector

def laguerre_functionals(order=12):
    return FunctionalVector(LAGUERRE, order, d=1)


def hermite_functionals(order=12):
    return FunctionalVector(HERMITE, order, d=1)


def test_laguerre_moments_are_factorials():
    # weight e^{-x} on [0, inf): <u_0, x^m> = m!
    v = laguerre_functionals()
    values = [functional_eval(v, 0, Poly((0,) * m + (1,)))
              for m in range(5)]
    assert values == [1, 1, 2, 6, 24]


def test_hermite_moments_are_gaussian():
    v = hermite_functionals()
    moments = [functional_eval(v, 0, Poly((0,) * m + (1,)))
               for m in range(7)]
    assert moments == [1, 0, 1, 0, 3, 0, 15]


def test_functional_is_linear():
    v = laguerre_functionals()
    f = Poly((2, F(1, 3), 0, 5))
    parts = sum(c * functional_eval(v, 0, Poly((0,) * k + (1,)))
                for k, c in enumerate(f.coeffs))
    assert functional_eval(v, 0, f) == parts


def test_functional_duality_on_expanded_sequence():
    seq = expand_polynomials(pair_from_couple(HERMITE, 5))
    v = hermite_functionals()
    for k in range(6):
        assert functional_eval(v, 0, seq[k]) == (1 if k == 0 else 0)


def test_functional_index_contract():
    v = laguerre_functionals()
    with pytest.raises(IndexError):
        functional_eval(v, 1, Poly.one())
    with pytest.raises(IndexError):
        functional_eval(v, -1, Poly.one())


def test_functional_degree_guard():
    v = laguerre_functionals(order=4)
    with pytest.raises(ValueError):
        functional_eval(v, 0, Poly((0,) * 5 + (1,)))


def test_functional_vector_truncates_to_common_order():
    # the functionals are built at the order they are given, whatever the
    # order of the pair
    pair = pair_from_couple(LAGUERRE, 10)
    assert pair.order == 10
    v = FunctionalVector(LAGUERRE, 6, d=1)
    assert v.order == 6


def test_functional_vector_needs_room_for_d():
    with pytest.raises(ValueError):
        FunctionalVector(LAGUERRE, 2, d=0)
    with pytest.raises(ValueError):
        FunctionalVector(LAGUERRE, 2, d=4)
