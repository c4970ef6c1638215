"""Exact helpers: rational parsing and printing, Stirling rows, scaling."""

from fractions import Fraction
from itertools import combinations
from math import comb, factorial

import pytest
from hypothesis import given
from hypothesis import strategies as st

from dsheffer import Poly, Series, parse_rational
from dsheffer.catalog import (
    FamilySpec,
    laguerre2_moments,
    meixner_moments,
)
from dsheffer.exactnum import exact, ratio_strings, scaled, stirling2_rows
from dsheffer.sheffer import CoupleSpec


# ---------------------------------------------------------------- parsing

def test_parse_integer():
    assert parse_rational("3") == Fraction(3)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("+5") == Fraction(5)


def test_parse_fraction_normalizes():
    assert parse_rational("-4/6") == Fraction(-2, 3)
    assert parse_rational("10/5") == Fraction(2)


def test_parse_strips_whitespace():
    assert parse_rational(" 1/2 ") == Fraction(1, 2)


# the last five are Unicode digits that \d and int() accept: Arabic-Indic,
# fullwidth and Devanagari
@pytest.mark.parametrize("bad", ["0.5", "1e3", "", "1/0", "1/-2", "a/b", "1 / 2", "½",
                                 "\u0661/\u0662", "\u0661", "1/\u0662", "\uff13",
                                 "\u0967\u0966"])
def test_parse_rejects_non_exact_forms(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_is_canonical():
    # ratio_strings prints nums[i] / den in lowest terms, as str(Fraction) does
    assert ratio_strings([-2, 4, 2], 3) == ["-2/3", "4/3", "2/3"]
    assert ratio_strings([8, 2, 0], 2) == ["4", "1", "0"]
    assert ratio_strings([2], 4) == ["1/2"]


@given(st.fractions())
def test_format_parse_roundtrip(q):
    (text,) = ratio_strings([q.numerator], q.denominator)
    assert text == str(q) and parse_rational(text) == q


def test_format_takes_integers():
    assert ratio_strings([-7], 1) == ["-7"]


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, -0.0])
def test_format_rejects_floats(value):
    # Fraction(0.1) would be its binary expansion, 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="not exact"):
        exact(value)


EXACT_BUILDERS = (
    exact,
    lambda v: Poly((v,)),
    lambda v: Series((v,)),
    lambda v: CoupleSpec(d=1, gamma=(v, 1), sigma=(1, 0, 1)),
    lambda v: FamilySpec(family="laguerre-eq9", d=1, params={"alpha": v}),
    lambda v: FamilySpec(family="hermite-eq12", d=1, aux=(0, 0, v)),
    lambda v: laguerre2_moments(v, 0, 0),
    lambda v: meixner_moments(1, v, 1, 0, 0),
    lambda v: meixner_moments(1, Fraction(1, 2), v, 0, 0),
)


def test_exact_values_share_one_float_error():
    for build in EXACT_BUILDERS:
        with pytest.raises(TypeError, match="float values are not exact"):
            build(0.5)


@pytest.mark.parametrize("text", ["0.5", "1e-1"])
def test_exact_reads_strings_as_rationals_only(text):
    # Fraction("0.5") would be 1/2: a decimal string is as inexact an input as 0.5
    assert exact("-4/6") == Fraction(-2, 3)
    with pytest.raises(ValueError, match="not an exact rational"):
        exact(text)
    for build in EXACT_BUILDERS:
        with pytest.raises(ValueError, match="not an exact rational"):
            build(text)


# ---------------------------------------------------------------- stirling2_rows

def brute_stirling2(m: int, k: int) -> int:
    """Count the set partitions of {0..m-1} into k nonempty blocks directly."""
    if m == 0:
        return 1 if k == 0 else 0

    def partitions(items):
        if not items:
            yield []
            return
        first, rest = items[0], items[1:]
        for r in range(len(rest) + 1):
            for chosen in combinations(rest, r):
                block = (first,) + chosen
                remaining = [x for x in rest if x not in chosen]
                for tail in partitions(remaining):
                    yield [block] + tail

    return sum(1 for p in partitions(list(range(m))) if len(p) == k)


def test_stirling2_frozen_values():
    assert list(stirling2_rows(5)) == [
        [1], [0, 1], [0, 1, 1], [0, 1, 3, 1], [0, 1, 7, 6, 1], [0, 1, 15, 25, 10, 1]]


def test_stirling2_matches_partition_count():
    for m, row in enumerate(stirling2_rows(6)):
        assert row == [brute_stirling2(m, k) for k in range(m + 1)], m
        assert brute_stirling2(m, m + 1) == 0


@given(st.integers(1, 30))
def test_stirling2_recurrence(m):
    # each row S(r, 0..r) is the recurrence on the row before it
    rows = list(stirling2_rows(m))
    assert [len(row) for row in rows] == list(range(1, m + 2))
    prev, row = rows[-2], rows[-1]
    for k in range(1, len(row)):
        assert row[k] == k * (prev[k] if k < len(prev) else 0) + prev[k - 1], (m, k)


@given(st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), max_size=12))
def test_stirling2_matches_the_explicit_sum_in_any_query_order(queries):
    # S(m, k) = (1/k!) sum_i (-1)^i C(k, i) (k - i)^m, and S(m, k) = 0 past the row's end
    for m, k in queries:
        *_, row = stirling2_rows(m)
        explicit = sum((-1) ** i * comb(k, i) * (k - i) ** m for i in range(k + 1))
        assert len(row) == m + 1
        assert (row[k] if k <= m else 0) == explicit // factorial(k), (m, k)


# ---------------------------------------------------------------- scaled

def test_scaled_empty():
    assert scaled([]) == ([], 1)


def test_scaled_integers_keep_denominator_one():
    assert scaled([3, -7, 0]) == ([3, -7, 0], 1)
    assert scaled((Fraction(4), Fraction(-2))) == ([4, -2], 1)


def test_scaled_negatives_and_zeros():
    assert scaled([Fraction(-1, 2), 0, Fraction(2, 3), Fraction(0)]) == ([-3, 0, 4, 0], 6)
    assert scaled([Fraction(0), Fraction(0)]) == ([0, 0], 1)


def test_scaled_common_denominator_is_least():
    # 1/4 and 1/6 share 24 too, but 12 is the least
    assert scaled([Fraction(1, 4), Fraction(-5, 6)]) == ([3, -10], 12)


def prime_factors(n: int) -> set[int]:
    out, p = set(), 2
    while p * p <= n:
        while n % p == 0:
            out.add(p)
            n //= p
        p += 1
    if n > 1:
        out.add(n)
    return out


@given(st.lists(st.fractions(max_denominator=60), max_size=8))
def test_scaled_is_exact_and_least(values):
    ints, D = scaled(values)
    assert [Fraction(i, D) for i in ints] == values
    assert all(isinstance(i, int) for i in ints)
    # no proper divisor of D is a common denominator
    for p in prime_factors(D):
        assert any((v * (D // p)).denominator != 1 for v in values)
