"""Exact helpers: rational parsing, binomials, Pochhammer, Stirling numbers, scaling."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import combinations
from math import comb, factorial
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import dsheffer
from dsheffer import Poly, Series, binomial, format_rational, parse_rational, pochhammer, stirling2
from dsheffer.catalog import (
    FamilySpec,
    laguerre2_moments,
    meixner_classical_moments,
    meixner_moments,
)
from dsheffer.exactnum import exact, scaled
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
    assert format_rational(Fraction(-2, 3)) == "-2/3"
    assert format_rational(Fraction(4)) == "4"
    assert format_rational(Fraction(2, 4)) == "1/2"


@given(st.fractions())
def test_format_parse_roundtrip(q):
    assert parse_rational(format_rational(q)) == q


def test_format_takes_integers():
    assert format_rational(-7) == "-7"


@pytest.mark.parametrize("value", [0.1, 0.5, 2.0, -0.0])
def test_format_rejects_floats(value):
    # 0.1 would otherwise print its binary expansion, 3602879701896397/36028797018963968
    with pytest.raises(TypeError, match="not exact"):
        format_rational(value)


# ---------------------------------------------------------------- binomial

def test_binomial_row():
    assert [binomial(4, k) for k in range(5)] == [1, 4, 6, 4, 1]


def test_binomial_out_of_range_is_zero():
    assert binomial(3, 5) == 0


# ---------------------------------------------------------------- pochhammer

def test_pochhammer_frozen_values():
    assert pochhammer(Fraction(1, 2), 3) == Fraction(15, 8)
    assert pochhammer(3, 2) == 12
    assert pochhammer(Fraction(-1, 2), 2) == Fraction(-1, 4)


def test_pochhammer_empty_product():
    assert pochhammer(Fraction(7, 3), 0) == 1


@pytest.mark.parametrize("a, n", [(0.5, 2), (3.0, 1), (0.25, 0)])
def test_pochhammer_rejects_floats(a, n):
    with pytest.raises(TypeError, match="not exact"):
        pochhammer(a, n)


EXACT_BUILDERS = (
    format_rational,
    lambda v: pochhammer(v, 1),
    lambda v: Poly((v,)),
    lambda v: Series((v,)),
    lambda v: CoupleSpec(d=1, gamma=(v, 1), sigma=(1, 0, 1)),
    lambda v: FamilySpec(family="laguerre-eq9", d=1, params={"alpha": v}),
    lambda v: FamilySpec(family="hermite-eq12", d=1, aux=(0, 0, v)),
    lambda v: laguerre2_moments(v, 0, 0),
    lambda v: meixner_moments(1, v, 1, 0, 0),
    lambda v: meixner_moments(1, Fraction(1, 2), v, 0, 0),
    lambda v: meixner_classical_moments(v, 1, 0),
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


def test_pochhammer_hits_zero_at_nonpositive_integers():
    assert pochhammer(-2, 3) == 0
    assert pochhammer(-2, 2) == 2


small_fractions = st.fractions(max_denominator=20, min_value=-10, max_value=10)


@given(small_fractions, st.integers(0, 8), st.integers(0, 8))
def test_pochhammer_additivity(a, m, n):
    assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


@given(small_fractions, st.integers(0, 20))
def test_pochhammer_duplication(alpha, k):
    # (alpha+1)_{2k} = 4^k ((alpha+1)/2)_k ((alpha+2)/2)_k
    lhs = pochhammer(alpha + 1, 2 * k)
    rhs = 4**k * pochhammer((alpha + 1) / 2, k) * pochhammer((alpha + 2) / 2, k)
    assert lhs == rhs


# ---------------------------------------------------------------- stirling2

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
    assert stirling2(0, 0) == 1
    assert stirling2(3, 2) == 3
    assert stirling2(4, 2) == 7
    assert stirling2(5, 3) == 25
    assert stirling2(3, 0) == 0
    assert stirling2(2, 5) == 0


def test_stirling2_matches_partition_count():
    for m in range(7):
        for k in range(m + 2):
            assert stirling2(m, k) == brute_stirling2(m, k), (m, k)


@given(st.integers(1, 30), st.integers(1, 30))
def test_stirling2_recurrence(m, k):
    assert stirling2(m, k) == k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)


def test_stirling2_rejects_negative_arguments():
    for m, k in ((-1, 0), (0, -1), (-3, -2)):
        with pytest.raises(ValueError):
            stirling2(m, k)


@given(st.lists(st.tuples(st.integers(0, 80), st.integers(0, 80)), max_size=12))
def test_stirling2_matches_the_explicit_sum_in_any_query_order(queries):
    # S(m, k) = (1/k!) sum_i (-1)^i C(k, i) (k - i)^m; narrow and wide k interleave
    for m, k in queries:
        explicit = sum((-1) ** i * comb(k, i) * (k - i) ** m for i in range(k + 1))
        assert stirling2(m, k) == explicit // factorial(k), (m, k)


def test_stirling2_on_a_cold_cache_at_m_2000():
    # a fresh interpreter, so no smaller row is cached; S(m, 3) = (3^m - 3 2^m + 3) / 6
    env = {**os.environ, "PYTHONPATH": str(Path(dsheffer.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", "from dsheffer import stirling2; print(stirling2(2000, 3))"],
        env=env, capture_output=True, text=True, check=True,
    )
    assert int(out.stdout) == (3 ** 2000 - 3 * 2 ** 2000 + 3) // 6


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
