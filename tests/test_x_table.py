"""Every X entry's value against the couple's L table.

verify_d_orthogonality judges X_k[j][m] = <u_k, x^j P_m> by its zero
pattern alone; a doubled P_n stays d-orthogonal and passes it, but its
values change.  Theorem 2.2 gives every value from the couple:
X_k[j][m] = m! [t^m] L^j(t^k/k!) with L = sigma d/dt - gamma
(`reference.l_table`), and the boundary in closed form,
X_k[j][j d + k] = ((j d + k)!/k!) prod_(i<j) ((k + i d) sigma_(d+1) - gamma_d).
The tables are compared at the couple's d and at --check-d d +- 1, where
the functionals are the same and only the staircase moves.
"""

from fractions import Fraction
from math import factorial, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsheffer import (
    FunctionalVector,
    expand_polynomials,
    pair_from_couple,
    verify_d_orthogonality,
)
from dsheffer import catalog
from reference import l_table
from test_kernels import regular_couples

SAMPLES = catalog.default_sample_specs()


def x_values(report) -> dict:
    """{(k, j, m): X_k[j][m]} as Fractions, read off the report's integers."""
    d, forms = report.d, report.forms
    return {(k, j, j * d + i): Fraction(num, report.moment_dens[k] * forms[j * d + i][1])
            for k, rows in enumerate(report.hankel)
            for j, row in enumerate(rows)
            for i, num in enumerate(row)}


def report_at(couple, seq, check_d: int):
    top = seq.max_index
    return verify_d_orthogonality(seq, FunctionalVector(couple, top + top // check_d, check_d))


def assert_x_is_the_l_table(couple, seq, check_d: int) -> int:
    """Compare every entry of the report at check_d; returns how many there are."""
    report = report_at(couple, seq, check_d)
    top = seq.max_index
    expected = {}
    for k, rows in enumerate(report.hankel):
        table = l_table(couple, k, len(rows), top)
        expected.update(((k, j, m), table[j][m])
                        for j in range(len(rows)) for m in range(j * check_d, top + 1))
    assert x_values(report) == expected
    return len(expected)


def boundary_product(couple, k: int, j: int) -> Fraction:
    d = couple.d
    return (Fraction(factorial(j * d + k), factorial(k))
            * prod((k + i * d) * couple.sigma[d + 1] - couple.gamma[d] for i in range(j)))


@pytest.mark.parametrize("top", [12, 24])
@pytest.mark.parametrize("spec", SAMPLES, ids=lambda s: f"{s.family}-d{s.d}")
def test_x_values_of_the_samples_are_the_l_table(spec, top):
    couple = spec.couple
    seq = expand_polynomials(catalog.family_generating(spec, top))
    d = couple.d
    assert sum(assert_x_is_the_l_table(couple, seq, check_d)
               for check_d in (d - 1, d, d + 1) if check_d >= 1) > 0


@pytest.mark.parametrize("spec", SAMPLES, ids=lambda s: f"{s.family}-d{s.d}")
def test_boundary_values_are_the_closed_product(spec):
    couple = spec.couple
    d, top = couple.d, 24
    seq = expand_polynomials(catalog.family_generating(spec, top))
    report = report_at(couple, seq, d)
    assert report.passed
    xs = x_values(report)
    for k in range(d):
        # every boundary of the L table, also those beyond P_top
        table = l_table(couple, k, top // d + 1, (top // d) * d + k)
        for j in range(top // d + 1):
            boundary = j * d + k
            assert table[j][boundary] == boundary_product(couple, k, j) != 0, (k, j)
            if boundary <= top:
                assert xs[k, j, boundary] == table[j][boundary], (k, j)


def test_a_doubled_polynomial_passes_the_pattern_but_not_the_values():
    spec = catalog.default_spec(catalog.MEIXNER_EQ16, 2)
    couple, top = spec.couple, 8
    seq = expand_polynomials(catalog.family_generating(spec, top))
    doubled = type(seq)(seq.polys[:3] + (seq[3] * 2,) + seq.polys[4:])
    report = report_at(couple, doubled, 2)
    assert report.passed
    with pytest.raises(AssertionError):
        assert_x_is_the_l_table(couple, doubled, 2)


@settings(max_examples=40, deadline=None)
@given(regular_couples(), st.data())
def test_x_values_of_drawn_couples_are_the_l_table(couple, data):
    d = couple.d
    check_d = data.draw(st.integers(max(1, d - 1), d + 1))
    top = data.draw(st.integers(check_d + 1, 16))
    seq = expand_polynomials(pair_from_couple(couple, top))
    assert assert_x_is_the_l_table(couple, seq, check_d) > 0
