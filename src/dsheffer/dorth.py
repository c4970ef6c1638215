"""Structural checks that a sequence really is d-orthogonal.

Two independent routes are verified and never conflated:

* the (d+2)-term recurrence x P_n = sum_k alpha_k(n) P_{n-d+k}, read off by
  exact back-substitution in the triangular basis P_0..P_{n+1} (the
  `recurrence` command reads the same table off the couple instead, through
  recurrence_from_couple, and both enforce regularity in one place);
* the moment conditions <u_k, P_n P_m> = 0 for m > n d + k and != 0 at the
  boundary m = n d + k, read off the functionals' moment table
  mu_k(j) = <u_k, x^j> as the Hankel form sum_(a,b) P_n[a] mu_k(a+b) P_m[b];
  duality <u_i, P_k> = delta_ik is the same form with P_m = 1.

The lowering check sigma P_n = n P_(n-1) works in the basis
b_l = (x)_(l,omega) / l! of falling factorials of step omega (x^l / l! for
the derivative kind), where the base operator B maps b_l to b_(l-1).  Each
P_n is converted once, c_l = l! sum_j p_j S(j, l) omega^(j-l) (the moment
table's operators.newton_table), and sigma = H*(B) then acts as the
convolution [sigma P]_l = sum_(k>=1) y_k c_(l+k) with y = H*.  The change
of basis is invertible, so a row fails exactly when the polynomials differ,
and no base operator is ever applied (operators.apply_lowering is the
tests' oracle for this).

All values are exact rationals; failing cells carry the offending value.
The three loops over P_n (Hankel form, duality, lowering) run on integer
numerators over one common denominator (exactnum.scaled) per vector, and a
value becomes a Fraction once, when it is reported.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul

from dsheffer.exactnum import scaled
from dsheffer.operators import FunctionalVector, LoweringOp, newton_table
# no longer called here; still importable as dorth.functional_eval, which
# perfbench/test_perfbench.py reads
from dsheffer.operators import functional_eval  # noqa: F401
from dsheffer.series import Poly
from dsheffer.sheffer import CoupleSpec, PolySequence, recurrence_rows


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


@dataclass(frozen=True)
class RecurrenceTable:
    """Row n holds alpha_{0..d+1}(n); indices below zero are stored as 0."""

    d: int
    rows: tuple[tuple[Fraction, ...], ...]

    def row(self, n: int) -> tuple[Fraction, ...]:
        return self.rows[n]

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "rows": [[str(c) for c in row] for row in self.rows],
        }


def extract_recurrence(seq: PolySequence, d: int) -> RecurrenceTable:
    """Expand x P_n over P_0..P_{n+1} for every n and enforce the window.

    Raises WindowViolationError if any coefficient survives below n - d, and
    RegularityViolationError if the boundary coefficients vanish for n >= d.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    top = seq.max_index
    if top < d + 2:
        raise ValueError(f"need the sequence up to P_{d + 2} at least, got P_{top}")
    x = Poly.x()
    rows = []
    for n in range(top):
        q = seq[n] * x
        coeffs = {}
        for j in range(n + 1, -1, -1):
            cj = q.coeff(j) / seq[j].leading
            if cj:
                q = q - seq[j] * cj
            coeffs[j] = cj
        if not q.is_zero():
            raise BackSubstitutionError(n=n, remainder=q)
        for j in range(0, n - d):
            if coeffs[j]:
                raise WindowViolationError(d=d, n=n, index=j, value=coeffs[j])
        rows.append(tuple(
            coeffs[n - d + k] if n - d + k >= 0 else Fraction(0)
            for k in range(d + 2)
        ))
    return _regular_table(d, rows)


def recurrence_from_couple(couple: CoupleSpec, top: int) -> RecurrenceTable:
    """The rows n < top read off the couple (sheffer.recurrence_rows), no expansion.

    Equal to extract_recurrence on the couple's sequence P_0..P_top, and
    raises the same RegularityViolationError; the window holds by
    construction.
    """
    return _regular_table(couple.d, recurrence_rows(couple, top))


def _regular_table(d: int, rows) -> RecurrenceTable:
    bad = tuple(
        n for n in range(d, len(rows))
        if rows[n][0] == 0 or rows[n][d + 1] == 0
    )
    if bad:
        raise RegularityViolationError(d=d, rows=bad)
    return RecurrenceTable(d=d, rows=tuple(rows))


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


@dataclass(frozen=True)
class OrthogonalityReport:
    d: int
    max_index: int
    cells: tuple[OrthCell, ...]
    unchecked: tuple[tuple[int, int, int], ...]
    passed: bool

    @property
    def failures(self) -> tuple[OrthCell, ...]:
        return tuple(c for c in self.cells if not c.ok)

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "max_index": self.max_index,
            "checked": len(self.cells),
            "failures": [c.to_jsonable() for c in self.failures],
            "unchecked_boundaries": [
                {"k": k, "n": n, "m": m} for k, n, m in self.unchecked
            ],
        }


def verify_d_orthogonality(seq: PolySequence, v: FunctionalVector) -> OrthogonalityReport:
    """Check <u_k, P_n P_m> against the d-orthogonality pattern.

    For each k < d and n, the values with m > n d + k must vanish and the
    boundary m = n d + k must not; boundaries beyond the sequence are
    recorded as unchecked rather than silently skipped.  Each value is the
    Hankel form of the moment table, so no product P_n P_m is built.
    """
    top = seq.max_index
    max_deg = top + top // v.d        # n = top // d at k = 0, with m = top
    if v.order < max_deg:
        raise ValueError(
            f"functional order {v.order} too small: products reach degree {max_deg}"
        )
    polys, moments = _scaled_forms(seq, v)
    cells = []
    unchecked = []
    for k in range(v.d):
        mu, dmu = moments[k]
        for n in range(top + 1):
            boundary = n * v.d + k
            if boundary > top:
                unchecked.append((k, n, boundary))
                continue
            # row[b] = <u_k, P_n x^b> * dn * dmu, shared by every m of this (k, n)
            pn, dn = polys[n]
            row = [sum(map(mul, pn, mu[b:])) for b in range(top + 1)]
            for m in range(boundary, top + 1):
                pm, dm = polys[m]
                value = Fraction(sum(map(mul, row, pm)), dn * dmu * dm)
                req = "nonzero" if m == boundary else "zero"
                ok = (value == 0) if req == "zero" else (value != 0)
                cells.append(OrthCell(k=k, n=n, m=m, value=value, requirement=req, ok=ok))
    return OrthogonalityReport(
        d=v.d,
        max_index=top,
        cells=tuple(cells),
        unchecked=tuple(unchecked),
        passed=all(c.ok for c in cells),
    )


def _scaled_forms(seq: PolySequence, v: FunctionalVector):
    """Each P_n and each moment row mu_k as (integer numerators, denominator)."""
    return [scaled(p.coeffs) for p in seq], [scaled(mu) for mu in v.moments]


@dataclass(frozen=True)
class DualityReport:
    d: int
    max_index: int
    failures: tuple[tuple[int, int, Fraction], ...]  # (i, k, value)
    checked: int
    passed: bool

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "max_index": self.max_index,
            "checked": self.checked,
            "failures": [
                {"i": i, "k": k, "value": str(value)} for i, k, value in self.failures
            ],
        }


def verify_duality(seq: PolySequence, v: FunctionalVector) -> DualityReport:
    """Check <u_i, P_k> = delta_{i,k} for i < d and every available k.

    <u_i, P_k> is the Hankel form of orthogonality with P_m = 1, read off the
    same scaled P_k and mu_i.
    """
    top = seq.max_index
    if top > v.order:                   # deg P_k = k, as functional_eval requires
        raise ValueError(
            f"functional order {v.order} too small for polynomial degree {v.order + 1}"
        )
    polys, moments = _scaled_forms(seq, v)
    failures = []
    checked = 0
    for i in range(v.d):
        mu, dmu = moments[i]
        for k in range(top + 1):
            pk, dk = polys[k]
            value = Fraction(sum(map(mul, pk, mu)), dk * dmu)
            checked += 1
            expected = Fraction(1) if i == k else Fraction(0)
            if value != expected:
                failures.append((i, k, value))
    return DualityReport(
        d=v.d,
        max_index=top,
        failures=tuple(failures),
        checked=checked,
        passed=not failures,
    )


@dataclass(frozen=True)
class LoweringReport:
    max_index: int
    failures: tuple[int, ...]
    passed: bool

    def to_jsonable(self) -> dict:
        return {
            "max_index": self.max_index,
            "checked": self.max_index + 1,
            "failures": list(self.failures),
        }


def verify_lowering(seq: PolySequence, op: LoweringOp) -> LoweringReport:
    """Check sigma P_n = n P_{n-1} for every n (and sigma P_0 = 0).

    Both sides are compared in the falling-factorial basis b_l (see the
    module docstring), in integers: with P_n's coefficients c over dn and y
    over dy, row l holds when sum_k y_k c_(l+k) * d(n-1) = n c'_l * dn * dy,
    c' being P_(n-1)'s.  The table's own denominator cancels.
    """
    top = seq.max_index
    if op.hstar.order < top:
        raise ValueError(
            f"operator order {op.hstar.order} too small for sequence up to P_{top}"
        )
    table, _ = newton_table(op.omega or Fraction(0), top)
    columns = [[table[j][l] for j in range(l, top + 1)] for l in range(top + 1)]
    y, dy = scaled(op.hstar.coeffs[1:top + 1])          # y_1 .. y_top
    failures = []
    prev, dprev = [], 1
    for n, p in enumerate(seq):
        ints, dn = scaled(p.coeffs)
        c = [sum(map(mul, ints[l:], columns[l])) for l in range(len(ints))]
        if any(sum(map(mul, y, c[l + 1:])) * dprev != n * prev[l] * dn * dy
               for l in range(n)):
            failures.append(n)
        prev, dprev = c, dn
    return LoweringReport(max_index=top, failures=tuple(failures), passed=not failures)
