"""Structural checks that a sequence really is d-orthogonal, and `verify`, their battery.

Two independent routes are verified and never conflated:

* the (d+2)-term recurrence x P_n = sum_k alpha_k(n) P_{n-d+k}, read off by
  exact back-substitution in the triangular basis P_0..P_{n+1} (the
  `recurrence` command reads the same table off the couple instead, through
  recurrence_from_couple, and both enforce regularity in one place);
* d-orthogonality in the definition's own form (Van Iseghem, J. Comput.
  Appl. Math. 1987; Maroni, Ann. Fac. Sci. Toulouse 1989):
  X_k[j][m] = <u_k, x^j P_m> = 0 for m > j d + k and != 0 at the boundary
  m = j d + k, read off the functionals' moment table mu_k(i) = <u_k, x^i>
  as X_k[j][m] = sum_b P_m[b] mu_k(j+b), one dot product per entry.
  Row j spans m = j d .. N for every k, so functional k's boundary sits at
  index k; duality <u_i, P_k> = delta_ik is the row j = 0, which
  verify_duality reads off the same table with no product of its own.

The cells <u_k, P_n P_m> of the equivalent form are X_k[0..n][m] times the
coefficients P_n[0..n], so for fixed m those with n d + k < m are a
lower-triangular matrix with the nonzero leading coefficients on its
diagonal applied to the X_k[j][m] with j d + k < m: they all vanish exactly
when those X entries do, and then each boundary cell is lead(P_n)
X_k[n][n d + k].  The verdict is therefore decided on X alone, and the
report derives the cells from X and the P_n on each read; it caches none
of them, and a failing report's failures are the cells that fail.

The lowering check sigma P_n = n P_(n-1) works in the basis b_l = x^l / l!,
where D b_l = b_(l-1): each P_n is converted once, c_l = l! p_l, and
sigma = H*(D) then acts as the convolution [sigma P]_l = sum_(k>=1) y_k
c_(l+k) with y = H*.  The change of basis is invertible, so a row fails
exactly when the polynomials differ, and no derivative is ever taken (the
tests' oracle applies sigma by repeated derivatives).

All values are exact rationals; failing cells carry the offending value.
The loops over P_n (back-substitution, the X table, duality, lowering) read
the integer form that each P_n and each moment row stores (`nums` over
`den`, see `series`), and a value becomes a Fraction once, when it is
reported; no check converts a coefficient.  An X entry holds or fails by
its integer numerator alone, and a duality value is compared as num = den
[i = k]; the OrthCell objects and their Fractions are built only when a
caller reads the cells or a failing report prints its failures, on each
read, so a passing report builds none.  The recurrence table is held the
same way, as integer numerators over one denominator, and prints from them.
Back-substitution keeps one running remainder per row, r / R = x P_n minus
the c_j P_j found so far, integers over one denominator.  Going down from
j = n + 1, a zero r[j] (every one below n - d in a d-orthogonal sequence)
costs nothing; a nonzero one gives c_j by one gcd, grows R only when c_j
P_j's denominator does not divide it, and c_j P_j is subtracted in place
over P_j's entries alone.  After j = 0 every row checks that r is zero,
whatever the degrees of the P_j, and the rows are handed over as integers
over their common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice
from math import factorial, gcd, lcm
from operator import mul

from dsheffer.exactnum import content_reduced, ratio_strings
from dsheffer.operators import FunctionalVector
# no longer called here; still importable as dorth.functional_eval, which
# perfbench/test_perfbench.py reads
from dsheffer.operators import functional_eval  # noqa: F401
from dsheffer.series import Poly, Series
from dsheffer.sheffer import (CoupleSpec, PolySequence, check_conditions, expand_from_couple,
                              expand_polynomials, pair_from_couple, recurrence_numerators)

_set = object.__setattr__


class WindowViolationError(Exception):
    """x P_n needed a basis element below index n - d."""

    def __init__(self, d: int, n: int, index: int, value: Fraction):
        self.d = d
        self.n = n
        self.index = index
        self.value = value
        super().__init__(
            f"window violation at n={n}: coefficient {value} on P_{index} "
            f"lies outside indices {n - d}..{n + 1} (d={d})"
        )


class RegularityViolationError(Exception):
    """Some alpha_0(n) or alpha_{d+1}(n) vanished for n >= d."""

    def __init__(self, d: int, rows: tuple[int, ...]):
        self.d = d
        self.rows = rows
        super().__init__(
            f"regularity violation for d={d} at n in {list(rows)}: "
            "alpha_0(n) * alpha_(d+1)(n) must stay nonzero"
        )


class BackSubstitutionError(RuntimeError):
    """x P_n left a remainder after back-substitution in P_0..P_(n+1).

    Cannot happen for a sequence with deg P_n = n.  An exception, not an
    assert, so that python -O keeps the check; not a ValueError, so that the
    CLI never reports it as bad input.
    """

    def __init__(self, n: int, remainder: Poly):
        self.n = n
        self.remainder = remainder
        super().__init__(
            f"back-substitution of x P_{n} left the remainder {remainder.pretty()}"
        )


class RecurrenceTable:
    """Row n holds alpha_{0..d+1}(n); indices below zero are stored as 0.

    RecurrenceTable(d, nums, den) takes integer numerators nums[n][k] over
    any nonzero int den and reduces them by one content gcd, so den > 0 and
    gcd(den, *every numerator) = 1: the form is canonical, and equality
    compares integers.  `rows` gives the Fractions, built on each read, and
    `row_strings` and `to_jsonable` print lowest-terms integer pairs with no
    Fraction.
    """

    __slots__ = ("d", "nums", "den")

    def __init__(self, d: int, nums, den: int):
        flat, den = content_reduced([v for row in nums for v in row], den)
        ints = iter(flat)
        _set(self, "d", d)
        _set(self, "nums", tuple(tuple(islice(ints, len(row))) for row in nums))
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError("RecurrenceTable is immutable")

    @property
    def rows(self) -> tuple[tuple[Fraction, ...], ...]:
        """The rows as Fractions, built on each read."""
        den = self.den
        return tuple(tuple(Fraction(v, den) for v in row) for row in self.nums)

    def row_strings(self) -> list[list[str]]:
        """Each entry as str(Fraction) prints it, read off the integers."""
        return [ratio_strings(row, self.den) for row in self.nums]

    def __eq__(self, other) -> bool:
        if not isinstance(other, RecurrenceTable):
            return NotImplemented
        return (self.d, self.den, self.nums) == (other.d, other.den, other.nums)

    def __hash__(self):
        return hash(("RecurrenceTable", self.d, self.den, self.nums))

    def __repr__(self) -> str:
        return f"RecurrenceTable(d={self.d}, rows={self.row_strings()!r})"

    def to_jsonable(self) -> dict:
        return {"d": self.d, "rows": self.row_strings()}


def extract_recurrence(seq: PolySequence, d: int) -> RecurrenceTable:
    """Expand x P_n over P_0..P_{n+1} for every n and enforce the window.

    Raises BackSubstitutionError if x P_n leaves a remainder, WindowViolationError
    if any coefficient survives below n - d, and RegularityViolationError if
    the boundary coefficients vanish for n >= d.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    top = seq.max_index
    if top < d + 2:
        raise ValueError(f"need the sequence up to P_{d + 2} at least, got P_{top}")
    polys = [seq[j] for j in range(top + 1)]
    leads = [p.nums[-1] for p in polys]
    rows = []
    for n in range(top):
        pn = polys[n]
        # the running remainder r / R: x P_n minus the coordinates found so far
        r, R = [0, *pn.nums], pn.den
        r += [0] * (n + 2 - len(r))
        coeffs = [(0, 1)] * (n + 2)         # c_j in lowest terms, as (p, q) with q > 0
        for j in range(n + 1, -1, -1):
            if not r[j]:
                continue
            ints, dj = polys[j].nums, polys[j].den
            a, b = r[j] * dj, R * leads[j]   # c_j = [x^j] r / lead(P_j) = a / b
            g = gcd(a, b) if b > 0 else -gcd(a, b)
            p, q = coeffs[j] = a // g, b // g
            qd = q * dj                     # c_j P_j = p ints / qd
            if R % qd:
                grow = qd // gcd(R, qd)
                R *= grow
                r = [v * grow for v in r]
            f = p * (R // qd)
            r += [0] * (len(ints) - len(r))
            r[:len(ints)] = [v - f * c for v, c in zip(r, ints)]
        if any(r):
            raise BackSubstitutionError(n=n, remainder=Poly.of(r, R))
        for j in range(0, n - d):
            if coeffs[j][0]:
                raise WindowViolationError(d=d, n=n, index=j, value=Fraction(*coeffs[j]))
        rows.append([coeffs[n - d + k] if n - d + k >= 0 else (0, 1) for k in range(d + 2)])
    # every row over the one denominator L, handed over as integers
    L = lcm(*(q for row in rows for _, q in row))
    return _regular(RecurrenceTable(d, [[p * (L // q) for p, q in row] for row in rows], L))


def recurrence_from_couple(couple: CoupleSpec, top: int) -> RecurrenceTable:
    """The rows n < top read off the couple (sheffer.recurrence_numerators), no expansion.

    Equal to extract_recurrence on the couple's sequence P_0..P_top, and
    raises the same RegularityViolationError; the window holds by
    construction.  The rows are handed over as their integers, so no
    Fraction is made.
    """
    nums, den = recurrence_numerators(couple, top)
    return _regular(RecurrenceTable(couple.d, nums, den))


def _regular(table: RecurrenceTable) -> RecurrenceTable:
    d = table.d
    bad = tuple(
        n for n, row in enumerate(table.nums)
        if n >= d and (not row[0] or not row[d + 1])
    )
    if bad:
        raise RegularityViolationError(d=d, rows=bad)
    return table


@dataclass(frozen=True)
class OrthCell:
    k: int
    n: int
    m: int
    value: Fraction
    requirement: str  # "zero" | "nonzero"
    ok: bool

    def to_jsonable(self) -> dict:
        return {
            "k": self.k,
            "n": self.n,
            "m": self.m,
            "value": str(self.value),
            "requirement": self.requirement,
            "ok": self.ok,
        }


class OrthogonalityReport:
    """The moment conditions of verify_d_orthogonality, as integers.

    hankel[k][j] holds X_k[j][m] = <u_k, x^j P_m> for m = j d .. max_index,
    so every functional's rows span the same m and functional k's boundary
    m = j d + k sits at index k of row j.  Each entry is the numerator of its
    value over moment_dens[k] * forms[m][1], where forms[m] = (nums, den) is
    P_m and moment_dens[k] the denominator of mu_k.  The report holds when
    every row is nonzero at index k and zero after it; the entries before
    index k are the values duality reads off row 0.  `passed`, `checked`
    and `unchecked` need no cell; max_index and unchecked follow from d and
    forms.

    `cells` is the one place that derives and judges a cell: <u_k, P_n P_m>
    = num / (dn dmu dm) with num = sum_(j<=n) P_n[j] X_k[j][m], the integers
    of the Hankel form sum_(a,b) P_n[a] mu_k(a+b) P_m[b], read off hankel and
    forms on each read.  `failures` is the cells that fail, read only when
    the report fails; nothing is cached, so a passing report builds no cell.
    """

    __slots__ = ("d", "max_index", "forms", "hankel", "moment_dens", "unchecked", "passed")

    def __init__(self, d: int,
                 forms: tuple[tuple[tuple[int, ...], int], ...],
                 hankel: tuple[tuple[tuple[int, ...], ...], ...],
                 moment_dens: tuple[int, ...]):
        top = len(forms) - 1
        _set(self, "d", d)
        _set(self, "max_index", top)
        _set(self, "forms", forms)
        _set(self, "hankel", hankel)
        _set(self, "moment_dens", moment_dens)
        # the boundaries (k, n, n d + k) beyond P_top
        _set(self, "unchecked", tuple((k, n, n * d + k) for k in range(d)
                                      for n in range(top + 1) if n * d + k > top))
        _set(self, "passed", all(row[k] and not any(row[k + 1:])
                                 for k, rows in enumerate(hankel) for row in rows))

    def __setattr__(self, name, value):
        raise AttributeError("OrthogonalityReport is immutable")

    @property
    def cells(self) -> tuple[OrthCell, ...]:
        """Every checked cell, derived from X and judged, on each read."""
        d, top, forms = self.d, self.max_index, self.forms
        cells = []
        for k, rows in enumerate(self.hankel):
            dmu = self.moment_dens[k]
            for n, (pn, dn) in enumerate(forms[:len(rows)]):
                for m in range(n * d + k, top + 1):
                    # X_k[j][m] sits at index m - j d of row j
                    num = sum(pn[j] * rows[j][m - j * d] for j in range(n + 1))
                    boundary = m == n * d + k
                    cells.append(OrthCell(
                        k=k, n=n, m=m, value=Fraction(num, dn * dmu * forms[m][1]),
                        requirement="nonzero" if boundary else "zero", ok=bool(num) == boundary))
        return tuple(cells)

    @property
    def checked(self) -> int:
        return sum(len(row) - k for k, rows in enumerate(self.hankel) for row in rows)

    @property
    def failures(self) -> tuple[OrthCell, ...]:
        return () if self.passed else tuple(c for c in self.cells if not c.ok)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrthogonalityReport):
            return NotImplemented
        return ((self.d, self.max_index, self.unchecked, self.cells)
                == (other.d, other.max_index, other.unchecked, other.cells))

    def __repr__(self) -> str:
        return (f"OrthogonalityReport(d={self.d}, max_index={self.max_index}, "
                f"checked={self.checked}, passed={self.passed})")

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "max_index": self.max_index,
            "checked": self.checked,
            "failures": [c.to_jsonable() for c in self.failures],
            "unchecked_boundaries": [
                {"k": k, "n": n, "m": m} for k, n, m in self.unchecked
            ],
        }


def verify_d_orthogonality(seq: PolySequence, v: FunctionalVector) -> OrthogonalityReport:
    """Check <u_k, x^j P_m> against the d-orthogonality pattern.

    For each k < d and j, the values X_k[j][m] = <u_k, x^j P_m> with
    m > j d + k must vanish and the boundary m = j d + k must not;
    boundaries beyond the sequence are recorded as unchecked rather than
    silently skipped.  Each X_k[j][m] is one integer dot product of P_m's
    numerators with the moment row mu_k shifted by j.  Row j starts at
    m = j d for every k, so row 0 holds every <u_k, P_m>, which
    verify_duality reads.  The verdict is that of the cells <u_k, P_n P_m>,
    which the report derives from X on demand (see the module docstring);
    that needs deg P_n = n, which PolySequence guarantees.
    """
    top = seq.max_index
    d = v.d
    if top < d - 1:                   # every functional needs its row 0
        raise ValueError(f"need the sequence up to P_{d - 1} at least, got P_{top}")
    max_deg = top + top // d          # j = top // d at k = 0, with m = top
    if v.order < max_deg:
        raise ValueError(
            f"functional order {v.order} too small: products reach degree {max_deg}"
        )
    forms = tuple((seq[n].nums, seq[n].den) for n in range(top + 1))
    nums = [pn for pn, _ in forms]
    hankel = []
    for k in range(d):
        mu = v.rows[k].nums
        rows = []
        for j in range((top - k) // d + 1):
            shifted = mu[j:]                # mu_k(j + b), b = 0, 1, ...
            rows.append(tuple([sum(map(mul, pm, shifted)) for pm in nums[j * d:]]))
        hankel.append(tuple(rows))
    return OrthogonalityReport(d=d, forms=forms, hankel=tuple(hankel),
                               moment_dens=tuple(row.den for row in v.rows))


@dataclass(frozen=True)
class DualityReport:
    d: int
    max_index: int
    failures: tuple[tuple[int, int, Fraction], ...]  # (i, k, value)

    @property
    def checked(self) -> int:
        return self.d * (self.max_index + 1)

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "max_index": self.max_index,
            "checked": self.checked,
            "failures": [
                {"i": i, "k": k, "value": str(value)} for i, k, value in self.failures
            ],
        }


def verify_duality(orth: OrthogonalityReport) -> DualityReport:
    """Check <u_i, P_k> = delta_{i,k} for i < d and every available k.

    <u_i, P_k> is the entry X_i[0][k] of orthogonality's table, row 0 of
    which spans every k, so no dot product is made here: its numerator is
    compared with den [i = k], den = den(P_k) den(mu_i), and a value becomes
    a Fraction only when it fails.  orth's order guard covers degree
    max_index.
    """
    forms = orth.forms
    failures = []
    for i, rows in enumerate(orth.hankel):
        dmu = orth.moment_dens[i]
        for k, num in enumerate(rows[0]):
            den = forms[k][1] * dmu
            if num != (den if i == k else 0):
                failures.append((i, k, Fraction(num, den)))
    return DualityReport(d=orth.d, max_index=orth.max_index, failures=tuple(failures))


@dataclass(frozen=True)
class LoweringReport:
    max_index: int
    failures: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return not self.failures

    def to_jsonable(self) -> dict:
        return {
            "max_index": self.max_index,
            "checked": self.max_index + 1,
            "failures": list(self.failures),
        }


def verify_lowering(seq: PolySequence, hstar: Series) -> LoweringReport:
    """Check sigma P_n = n P_{n-1} for every n (and sigma P_0 = 0), sigma = H*(D).

    Both sides are compared in the basis b_l = x^l / l! (see the module
    docstring), in integers: with P_n's coefficients c over dn and y = H*
    over dy, row l holds when sum_k y_k c_(l+k) * d(n-1) = n c'_l * dn * dy,
    c' being P_(n-1)'s.  H* must have a zero constant term, which the sum
    over k >= 1 leaves out.
    """
    top = seq.max_index
    if hstar.nums[0]:
        raise ValueError("hstar must have zero constant term")
    if hstar.order < top:
        raise ValueError(
            f"operator order {hstar.order} too small for sequence up to P_{top}"
        )
    facts = [factorial(l) for l in range(top + 1)]
    hstar = hstar.truncate(top)
    y, dy = hstar.nums[1:], hstar.den                   # y_1 .. y_top
    failures = []
    prev, dprev = [], 1
    for n in range(top + 1):
        ints, dn = seq[n].nums, seq[n].den
        c = list(map(mul, ints, facts))                 # c_l = l! p_l
        scale = n * dn * dy
        if any(sum(map(mul, y, c[l + 1:])) * dprev != prev[l] * scale for l in range(n)):
            failures.append(n)
        prev, dprev = c, dn
    return LoweringReport(max_index=top, failures=tuple(failures))


def _section(passed: bool, details: dict) -> dict:
    return {"status": "pass" if passed else "fail", "details": details}


def _recurrence_section(seq, d, couple) -> dict:
    try:
        table = extract_recurrence(seq, d)
    except WindowViolationError as exc:
        return _section(False, {"error": "window-violation", "n": exc.n,
                                "index": exc.index, "value": str(exc.value)})
    except RegularityViolationError as exc:
        return _section(False, {"error": "regularity-violation", "rows": list(exc.rows)})
    if d == couple.d:
        # the rows must be the couple's own (the recurrence command's), compared
        # as cross-multiplied integers: nums / den == rows / R
        rows, R = recurrence_numerators(couple, len(table.nums))
        den = table.den
        for n, (got, want) in enumerate(zip(table.nums, rows)):
            if any(a * R != b * den for a, b in zip(got, want)):
                return _section(False, {"error": "couple-mismatch", "n": n,
                                        "extracted": ratio_strings(got, den),
                                        "from_couple": ratio_strings(want, R)})
    return _section(True, table.to_jsonable())


def verify(couple: CoupleSpec, N: int, d: int, seq: PolySequence | None = None) -> dict:
    """The sections of `verify`'s report on P_0..P_N checked at d, in report order:
    conditions, two_path, recurrence (compared with the couple's own rows at
    d = couple.d), duality, orthogonality and lowering, each {"status",
    "details"}; the last three read one FunctionalVector of order N + N // d.
    `seq` is a family's closed-form expansion P_0..P_N (ValueError for any
    other length), which two_path compares with expand_from_couple; with seq
    None the couple's own pair is expanded and two_path is skipped.  The CLI
    only renders the sections.
    """
    if own := seq is None:
        seq = expand_polynomials(pair_from_couple(couple, N), N)
    elif seq.max_index != N:
        raise ValueError(f"seq holds P_0..P_{seq.max_index}, not P_0..P_{N}")
    cond = check_conditions(couple, N)
    sections = {"conditions": _section(cond.passed, cond.to_jsonable())}
    if own:
        sections["two_path"] = {"status": "skipped", "details": {
            "reason": "raw couples have a single construction route"}}
    else:
        other = expand_from_couple(couple, N)
        mismatches = [
            {"n": n, "closed_form": seq[n].pretty(), "from_couple": other[n].pretty()}
            for n in range(N + 1)
            if seq[n] != other[n]
        ]
        sections["two_path"] = _section(not mismatches,
                                        {"compared_through": N, "mismatches": mismatches})
    sections["recurrence"] = _recurrence_section(seq, d, couple)
    fv = FunctionalVector(couple, N + N // d, d)    # orthogonality's cell n = N // d, m = N
    orth = verify_d_orthogonality(seq, fv)   # duality reads its row j = 0
    for name, check in (("duality", verify_duality(orth)),
                        ("orthogonality", orth),
                        ("lowering", verify_lowering(seq, fv.hstar))):
        sections[name] = _section(check.passed, check.to_jsonable())
    return sections
