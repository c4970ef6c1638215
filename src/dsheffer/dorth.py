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
b_l = (x)_(l,omega) / l! of falling factorials of the operator's step omega
(x^l / l! for the derivative kind), where the base operator B maps b_l to
b_(l-1).  Each P_n is converted once, c_l = sum_j p_j T[j][l] with the
moment table's operators.newton_table, and sigma = H*(B) then acts as the
convolution [sigma P]_l = sum_(k>=1) y_k c_(l+k) with y = H*.  The change
of basis is invertible, so a row fails exactly when the polynomials differ,
and no base operator is ever applied (operators.apply_lowering is the
tests' oracle for this).  `verify` hands every source the derivative kind's
H*(D), where T is the diagonal j! and c_l = l! p_l; a difference-kind
operator h*(Delta_omega) gives the same failures, since it is the same
operator on polynomials.

All values are exact rationals; failing cells carry the offending value.
The loops over P_n (back-substitution, Hankel form, duality, lowering) read
the integer form that each P_n and each moment row stores (`nums` over
`den`, see `series`), and a value becomes a Fraction once, when it is
reported; no check converts a coefficient.  An orthogonality cell is kept
as the integers (k, n, m, num, den) and holds or fails by num alone, and a
duality value is compared as num = den [i = k]; the OrthCell objects and
the Fractions are built only for the cells a report prints or a caller
reads.
Back-substitution holds the coordinates of x P_n found so far over one
running denominator, so a zero coordinate (every one below n - d in a
d-orthogonal sequence) costs an integer dot product of at most d + 2 terms
and no gcd.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from operator import mul

from dsheffer.operators import FunctionalVector, LoweringOp, newton_table
# no longer called here; still importable as dorth.functional_eval, which
# perfbench/test_perfbench.py reads
from dsheffer.operators import functional_eval  # noqa: F401
from dsheffer.series import Poly
from dsheffer.sheffer import CoupleSpec, PolySequence, recurrence_rows

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
    polys = [seq[j] for j in range(top + 1)]
    # P_j = nums_j / den_j, padded so that column j < top + 2 of every P_i
    # exists; nums_j[-1] is the numerator of its leading coefficient over den_j
    padded = [((*p.nums, *[0] * (top + 2 - len(p.nums))), p.den) for p in polys]
    leads = [p.nums[-1] for p in polys]
    # Each coordinate clears its own power of x, so only a row whose basis
    # P_0..P_(n+1) holds a P_j of degree != j can leave a remainder; from the
    # first such row on the remainder is computed in full
    inexact = next((j - 1 for j, p in enumerate(polys) if p.degree() != j), top)
    rows = []
    for n in range(top):
        pn, dn = padded[n]
        coeffs = [Fraction(0)] * (n + 2)
        # the coordinates found so far as e_i = c_i / D_i = E_i / R
        found, R = [], 1
        for j in range(n + 1, -1, -1):
            # [x^j] of x P_n minus sum_(i>j) c_i P_i[j], times D_n R
            num = (pn[j - 1] * R if j else 0) - sum(e * ints[j] for ints, e in found) * dn
            if not num:
                continue
            ints, dj = padded[j]
            c = coeffs[j] = Fraction(num * dj, dn * R * leads[j])
            q = c.denominator * dj
            if R % q:
                grow = q // gcd(R, q)
                R *= grow
                found = [(f, e * grow) for f, e in found]
            found.append((ints, c.numerator * (R // q)))
        if n >= inexact:
            rest = polys[n] * Poly.x() - sum((polys[j] * c for j, c in enumerate(coeffs)),
                                             Poly.zero())
            if not rest.is_zero():
                raise BackSubstitutionError(n=n, remainder=rest)
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


class OrthogonalityReport:
    """The cells <u_k, P_n P_m> of verify_d_orthogonality, as integers.

    integer_cells[i] = (k, n, m, num, den) is the cell of value num / den,
    den > 0, so whether it holds is read off num alone: the boundary
    m = n d + k needs num != 0 and every other cell num = 0.  `checked` and
    `passed` come from these integers.  The OrthCell objects, each with its
    Fraction value, are built on the first read of `cells` and kept, and
    `failures` builds only the failing ones.
    """

    __slots__ = ("d", "max_index", "integer_cells", "unchecked", "_failing", "_cells")

    def __init__(self, d: int, max_index: int,
                 integer_cells: tuple[tuple[int, int, int, int, int], ...],
                 unchecked: tuple[tuple[int, int, int], ...]):
        _set(self, "d", d)
        _set(self, "max_index", max_index)
        _set(self, "integer_cells", integer_cells)
        _set(self, "unchecked", unchecked)
        # a cell holds when num != 0 exactly at its boundary m = n d + k
        _set(self, "_failing", tuple(c for c in integer_cells
                                     if bool(c[3]) != (c[2] == c[1] * d + c[0])))
        _set(self, "_cells", None)

    def __setattr__(self, name, value):
        raise AttributeError("OrthogonalityReport is immutable")

    def _cell(self, k: int, n: int, m: int, num: int, den: int) -> OrthCell:
        boundary = m == n * self.d + k
        return OrthCell(k=k, n=n, m=m, value=Fraction(num, den),
                        requirement="nonzero" if boundary else "zero",
                        ok=bool(num) == boundary)

    @property
    def cells(self) -> tuple[OrthCell, ...]:
        """Every checked cell as an OrthCell, built on the first read and kept."""
        cells = self._cells
        if cells is None:
            cells = tuple(self._cell(*c) for c in self.integer_cells)
            _set(self, "_cells", cells)
        return cells

    @property
    def checked(self) -> int:
        return len(self.integer_cells)

    @property
    def passed(self) -> bool:
        return not self._failing

    @property
    def failures(self) -> tuple[OrthCell, ...]:
        return tuple(self._cell(*c) for c in self._failing)

    def __eq__(self, other) -> bool:
        if not isinstance(other, OrthogonalityReport):
            return NotImplemented
        return ((self.d, self.max_index, self.unchecked, self.cells)
                == (other.d, other.max_index, other.unchecked, other.cells))


    def __repr__(self) -> str:
        return (f"OrthogonalityReport(d={self.d}, max_index={self.max_index}, "
                f"checked={self.checked}, failures={len(self._failing)})")

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
    """Check <u_k, P_n P_m> against the d-orthogonality pattern.

    For each k < d and n, the values with m > n d + k must vanish and the
    boundary m = n d + k must not; boundaries beyond the sequence are
    recorded as unchecked rather than silently skipped.  Each value is the
    Hankel form of the moment table, so no product P_n P_m is built, and it
    is kept as its integer numerator and denominator.
    """
    top = seq.max_index
    max_deg = top + top // v.d        # n = top // d at k = 0, with m = top
    if v.order < max_deg:
        raise ValueError(
            f"functional order {v.order} too small: products reach degree {max_deg}"
        )
    forms = [(seq[n].nums, seq[n].den) for n in range(top + 1)]
    cells = []
    unchecked = []
    for k in range(v.d):
        mu, dmu = v.rows[k].nums, v.rows[k].den
        for n in range(top + 1):
            boundary = n * v.d + k
            if boundary > top:
                unchecked.append((k, n, boundary))
                continue
            # row[b] = <u_k, P_n x^b> * dn * dmu, shared by every m of this (k, n)
            pn, dn = forms[n]
            row = [sum(map(mul, pn, mu[b:])) for b in range(top + 1)]
            scale = dn * dmu
            cells += [(k, n, m, sum(map(mul, row, pm)), scale * dm)
                      for m, (pm, dm) in enumerate(forms[boundary:], boundary)]
    return OrthogonalityReport(d=v.d, max_index=top, integer_cells=tuple(cells),
                               unchecked=tuple(unchecked))


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
    same integer numerators and denominators of P_k and mu_i; its numerator
    is compared with den [i = k], and a value becomes a Fraction only when it
    fails.
    """
    top = seq.max_index
    if top > v.order:                   # deg P_k = k, as functional_eval requires
        raise ValueError(
            f"functional order {v.order} too small for polynomial degree {v.order + 1}"
        )
    polys = [seq[k] for k in range(top + 1)]
    failures = []
    for i in range(v.d):
        mu, dmu = v.rows[i].nums, v.rows[i].den
        for k, pk in enumerate(polys):
            num, den = sum(map(mul, pk.nums, mu)), pk.den * dmu
            if num != (den if i == k else 0):
                failures.append((i, k, Fraction(num, den)))
    return DualityReport(
        d=v.d,
        max_index=top,
        failures=tuple(failures),
        checked=v.d * len(polys),
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
    hstar = op.hstar.truncate(top)
    y, dy = hstar.nums[1:], hstar.den                   # y_1 .. y_top
    failures = []
    prev, dprev = [], 1
    for n in range(top + 1):
        ints, dn = seq[n].nums, seq[n].den
        c = [sum(map(mul, ints[l:], columns[l])) for l in range(len(ints))]
        if any(sum(map(mul, y, c[l + 1:])) * dprev != n * prev[l] * dn * dy
               for l in range(n)):
            failures.append(n)
        prev, dprev = c, dn
    return LoweringReport(max_index=top, failures=tuple(failures), passed=not failures)
