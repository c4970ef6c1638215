"""The integer kernels of verify against the Fraction loops they replaced.

Series products, the Hankel form of orthogonality, duality and the lowering
check run on integer numerators over one common denominator, and the
lowering check works in the falling-factorial basis instead of applying the
base operator.  Every result must equal the per-term Fraction oracle of
tests/reference.py exactly, on valid sequences and on perturbed ones.
"""

from fractions import Fraction
from math import factorial

from hypothesis import assume, given, settings
from hypothesis import strategies as st

from dsheffer import (
    FunctionalVector,
    Poly,
    PolySequence,
    Series,
    expand_polynomials,
    lowering_from_couple,
    pair_from_couple,
    verify_d_orthogonality,
    verify_duality,
    verify_lowering,
)
from dsheffer import catalog
from dsheffer.operators import newton_table
from dsheffer.sheffer import CoupleSpec
from reference import duality_failures, fraction_product, hankel_cells, lowering_failures

F = Fraction


# ---------------------------------------------------------------- series products

@st.composite
def tall_fractions(draw):
    """Rationals whose numerator and denominator have up to a drawn bit height."""
    bits = draw(st.integers(1, 256))
    num = draw(st.integers(-(2 ** bits), 2 ** bits))
    return F(num, draw(st.integers(1, 2 ** bits)))


@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(*[st.lists(tall_fractions(), min_size=n + 1, max_size=n + 1)] * 2)))
def test_series_product_equals_the_fraction_convolution(pair):
    a, b = pair
    assert (Series(a) * Series(b)).coeffs == tuple(fraction_product(a, b))


# ---------------------------------------------------------------- falling-factorial basis

def falling(l: int, step: Fraction) -> Poly:
    """(x)_(l,step) = x (x - step) ... (x - (l-1) step)."""
    out = Poly.one()
    for i in range(l):
        out = out * Poly((-i * step, 1))
    return out


def test_newton_table_writes_monomials_in_the_falling_basis():
    order = 7
    for step in (F(0), F(1), F(-2, 3), F(5, 2)):
        table, den = newton_table(step, order)
        for j, row in enumerate(table):
            back = sum((falling(l, step) * F(t, den * factorial(l))
                        for l, t in enumerate(row)), Poly.zero())
            assert back == Poly.monomial(j), (step, j)


# ---------------------------------------------------------------- verify sections

def perturbed(seq: PolySequence, n: int, j: int, delta: Fraction) -> PolySequence:
    coeffs = list(seq[n].coeffs)
    coeffs[j] += delta
    return PolySequence(seq.polys[:n] + (Poly(coeffs),) + seq.polys[n + 1:])


def assert_sections_match_the_oracles(seq, lop, v):
    low = verify_lowering(seq, lop)
    assert low.failures == tuple(lowering_failures(seq, lop))
    orth = verify_d_orthogonality(seq, v)
    cells, unchecked = hankel_cells(seq, v)
    assert [(c.k, c.n, c.m, c.value) for c in orth.cells] == cells
    assert list(orth.unchecked) == unchecked
    assert list(verify_duality(seq, v).failures) == duality_failures(seq, v)
    return low


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = small.filter(bool)


@st.composite
def regular_couples(draw):
    d = draw(st.integers(1, 3))
    couple = CoupleSpec(d=d,
                        gamma=tuple(draw(small) for _ in range(d)) + (draw(nonzero),),
                        sigma=(draw(nonzero),) + tuple(draw(small) for _ in range(d + 1)))
    assume(not couple.violations())
    return couple


@settings(max_examples=60, deadline=None)
@given(regular_couples(), st.data())
def test_verify_sections_match_the_oracles_on_perturbed_sequences(couple, data):
    # the couple's sequence satisfies h*(B) P_n = n P_(n-1) for the Newton form
    # of every step, so any omega gives a valid operator before the perturbation
    top = data.draw(st.integers(couple.d + 2, 8))
    omega = data.draw(st.none() | nonzero)
    seq = expand_polynomials(pair_from_couple(couple, top), top)
    lop = lowering_from_couple(couple, top + top // couple.d, omega)
    v = FunctionalVector(couple, lop, couple.d)
    assert not assert_sections_match_the_oracles(seq, lop, v).failures
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(1, top))
        j = data.draw(st.integers(0, n))
        delta = data.draw(nonzero)
        assume(j < n or seq[n].coeffs[n] + delta != 0)   # keep deg P_n = n
        seq = perturbed(seq, n, j, delta)
    assert_sections_match_the_oracles(seq, lop, v)


def test_a_perturbed_p7_is_flagged_like_the_oracle_on_every_sample():
    top = 10
    for spec in catalog.default_sample_specs():
        couple = catalog.family_couple(spec)
        seq = expand_polynomials(catalog.family_generating(spec, top), top)
        lop = lowering_from_couple(couple, top + top // spec.d, catalog.family_step(spec))
        v = FunctionalVector(couple, lop, spec.d)
        seq = perturbed(seq, 7, 3, F(1, 3))
        low = assert_sections_match_the_oracles(seq, lop, v)
        assert low.failures == (7, 8), (spec.family, spec.d)
