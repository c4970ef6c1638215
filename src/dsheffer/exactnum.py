"""Exact rational scalars and the combinatorial primitives built on them.

Every value is an exact rational, so equality tests (the heart of every
verification here) are exact.  Rationals serialize as "p/q" strings ("p"
when the denominator is 1); decimal notation is rejected on input so no
value ever passes through floating point.  `exact` is the one conversion of
outside values to Fraction: it rejects floats and reads strings as "p/q"
only.  `scaled` writes rationals as integer numerators over their least
common denominator, the form `Poly` and `Series` store (see `series`): the
public constructors and the couple's recurrence rows are its only callers,
and every kernel after them reads that form directly, so a multiply-add
costs no gcd and each result is reduced once, by `content_reduced`, one
content gcd per vector.  `ratio_strings` prints that form back, one gcd
per value and no Fraction."""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from fractions import Fraction

Rat = Fraction

_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(/[0-9]+)?\Z")    # ASCII digits only


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


def exact(value) -> Fraction:
    """value as a Fraction; a float is rejected, since it is not exact.

    A str is read by `parse_rational`, so "0.5" is rejected like 0.5.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, float):
        raise TypeError("float values are not exact; use Fraction")
    if isinstance(value, str):
        return parse_rational(value)
    return Fraction(value)


def format_rational(value: Fraction) -> str:
    # Fraction.__str__ already prints the reduced p/q (or p) form.
    return str(exact(value))


def scaled(values: Sequence) -> tuple[list[int], int]:
    """Integer numerators of rationals over their least common denominator D.

    values[i] == ints[i] / D for every i, and D = 1 for integers or no values.
    """
    dens = [v.denominator for v in values]
    D = math.lcm(*dens)
    return [v.numerator * (D // q) for v, q in zip(values, dens)], D


def content_reduced(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """nums / den (den != 0) as (nums', den') with den' > 0 and gcd(den', *nums') = 1."""
    if not den:
        raise ZeroDivisionError("zero denominator")
    g = math.gcd(den, *nums) if den > 0 else -math.gcd(den, *nums)
    return (tuple([v // g for v in nums]) if g != 1 else tuple(nums)), den // g


def ratio_strings(nums: Sequence[int], den: int) -> list[str]:
    """Each nums[i] / den (den > 0) as str(Fraction) prints it: "p" or "p/q", in lowest terms.

    One gcd per value and no Fraction: the form every printer reads.
    """
    if den == 1:
        return [str(v) for v in nums]
    return [str(v // g) if (g := math.gcd(v, den)) == den else f"{v // g}/{den // g}"
            for v in nums]


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k); 0 when k > n, error on negatives."""
    return math.comb(n, k)


def pochhammer(a: Fraction | int, n: int) -> Fraction:
    """Rising factorial a (a+1) ... (a+n-1), with the empty product = 1."""
    if n < 0:
        raise ValueError("pochhammer needs n >= 0")
    a = exact(a)
    out = Fraction(1)
    for k in range(n):
        out *= a + k
    return out


def stirling2_rows(m: int, width: int):
    """Yield the rows S(r, 0..min(r, width)) for r = 0..m, each from the one before.

    S(r, j) = j S(r-1, j) + S(r-1, j-1), the standard recurrence.
    """
    row = [1]
    yield row
    for r in range(1, m + 1):
        row = ([0] + [j * row[j] + row[j - 1] for j in range(1, min(r - 1, width) + 1)]
               + ([1] if r <= width else []))
        yield row


def stirling2(m: int, k: int) -> int:
    """Stirling numbers of the second kind S(m, k).

    Counts partitions of an m-set into k nonempty blocks.  Computed row by
    row, each row cut at column k, so S(2000, 3) costs 2000 short rows and
    no recursion.
    """
    if m < 0 or k < 0:
        raise ValueError("stirling2 needs m, k >= 0")
    if k > m:
        return 0
    *_, row = stirling2_rows(m, k)
    return row[k]
