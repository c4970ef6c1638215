"""Exact rational scalars, their integer vector form, and Stirling-2 rows.

Every value is an exact rational, so equality tests (the heart of every
verification here) are exact.  Rationals serialize as "p/q" strings ("p"
when the denominator is 1); decimal notation is rejected on input so no
value ever passes through floating point.  `exact` is the one conversion of
outside values to Fraction: it rejects floats and reads strings as "p/q"
only.  `scaled` writes rationals as integer numerators over their least
common denominator, the form `Poly` and `Series` store (see `series`).  Its
callers are the public constructors and the places that hand a couple or a
closed form to the kernels (the couple's recurrence rows, `pair_from_couple`
and `catalog.family_generating`), and every kernel after them reads that
form directly, so a multiply-add costs no gcd and each result is reduced
once, by `content_reduced`, one content gcd per vector.  `ratio_strings`
prints that form back, one gcd per value and no Fraction.  `stirling2_rows`
gives the rows of Stirling numbers that `catalog.meixner_moments` reads."""

from __future__ import annotations

import math
import re
from collections.abc import Sequence
from fractions import Fraction

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


def stirling2_rows(m: int):
    """Yield the rows S(r, 0..r) for r = 0..m, each from the one before.

    S(r, j) = j S(r-1, j) + S(r-1, j-1), the standard recurrence.
    """
    row = [1]
    yield row
    for r in range(1, m + 1):
        row = [0] + [j * row[j] + row[j - 1] for j in range(1, r)] + [1]
        yield row

