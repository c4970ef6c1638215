"""Exact rational scalars and the combinatorial primitives built on them.

Everything downstream computes over `fractions.Fraction`, so equality tests
(the heart of every verification here) are exact.  Rationals serialize as
"p/q" strings ("p" when the denominator is 1); decimal notation is rejected
on input so no value ever passes through floating point.  The inner loops
(series products, the Hankel form, the lowering check) run on `scaled`
vectors instead: integer numerators over one common denominator, so a
multiply-add costs no gcd and each result is normalized once.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from functools import lru_cache
from typing import Sequence

Rat = Fraction

_RATIONAL_RE = re.compile(r"[+-]?\d+(/\d+)?\Z")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" or "p" into a Fraction, rejecting anything else."""
    s = text.strip()
    if not _RATIONAL_RE.match(s):
        raise ValueError(f"not an exact rational (expected p or p/q): {text!r}")
    num, _, den = s.partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"zero denominator: {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def format_rational(value: Fraction) -> str:
    # Fraction.__str__ already prints the reduced p/q (or p) form.
    return str(Fraction(value))


def scaled(values: Sequence) -> tuple[list[int], int]:
    """Integer numerators of rationals over their least common denominator D.

    values[i] == ints[i] / D for every i, and D = 1 for integers or no values.
    """
    dens = [v.denominator for v in values]
    D = math.lcm(*dens)
    return [v.numerator * (D // q) for v, q in zip(values, dens)], D


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 when k > n, error on negatives."""
    return math.comb(n, k)


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Rising factorial a (a+1) ... (a+n-1), with the empty product = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    a = Fraction(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


@lru_cache(maxsize=None)
def stirling2(m: int, k: int) -> int:
    """Stirling numbers of the second kind S(m, k).

    Counts partitions of an m-set into k nonempty blocks; computed by the
    standard recurrence S(m, k) = k S(m-1, k) + S(m-1, k-1).
    """
    if m < 0 or k < 0:
        raise ValueError("stirling2 needs m, k >= 0")
    if m == 0:
        return 1 if k == 0 else 0
    if k == 0 or k > m:
        return 0
    return k * stirling2(m - 1, k) + stirling2(m - 1, k - 1)
