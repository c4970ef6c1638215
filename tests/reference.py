"""Per-term Fraction loops that the package's integer kernels replaced.

The package runs its series products, orthogonality (whose oracle is the
Hankel form below), duality and the lowering check on integer numerators
over one common denominator (the `nums` over `den` that `Poly` and
`Series` store), and the lowering check in the basis x^l / l!.  These are the
straightforward versions, one `Fraction` operation per term and the base
operator applied repeatedly, kept as the oracles those kernels must match
exactly.  The same holds for the back-substitution of `extract_recurrence`,
`exp`, `log` and `invert_mul` (now each one linear recurrence on the one
kernel of `series`), the lowering ODE,
`expand_from_couple`, the couple's recurrence rows (`fraction_table` builds
a `RecurrenceTable` from such rows, and `regular_fraction_table` decides
regularity on both boundary entries of every row, where the product reads
alpha_0 alone) and the generating-function expansion,
which now run on integers with one running or common denominator, and for
`Poly.pretty`, `poly_latex` and `Poly.coeff_strings`, which now read each
coefficient's lowest-terms numerator and denominator from the stored
integer form instead of building, comparing and negating Fractions.

`series_moment_rows` is the functionals' moment table by series
arithmetic, from before the couple's ODE solver in `operators` read it off
its own integer table in one scale: y from the Fraction ODE, gamma(y) by
Horner's rule on series products (`horner_gamma_y`), 1/A(y) as
exp(-integral gamma(y)), then the products by y and the factors j!/i!.

The Newton step omega lives here alone.  A difference family, stated as
A(t) (1 + omega h(t))^(x/omega), has the lowering operator h*(Delta_omega),
Delta_omega f = (f(x + omega) - f(x))/omega; the package builds H*(D) for
every source, the same operator on polynomials.  `delta` is that forward
difference, `newton_hstar` reverts the closed form's Newton h,
`fraction_hstar` solves (1 + omega s) y' = sigma(y) term by term, and
`base_values`, `stepped_moments` and `lowering_failures` apply D or
Delta_omega repeatedly, so the tests can hold H*(D) against h*(Delta_omega)
on the moment table and on the lowering check.

`l_table` is no replaced kernel but the couple's closed form of the
orthogonality table, X_k[j][m] = m! [t^m] L^j(t^k/k!) with
L = sigma d/dt - gamma: it reads neither the P_n nor the moments, so the
tests hold every X entry's value against it, not only its zero pattern.

`branch_family_generating` is the catalog's closed generating pair written
out once per family, each with its own series operations, from before
`catalog.family_generating` read every family from three numbers and its
Newton step.  `chain_family_generating` and `chain_pair_from_couple` are
the generating pairs from before each solved its own first-order ODEs:
powers of 1 - t as exp(r log s) (`log_exp_pow`, the former branches of
`pow_rat` included), exp(pi - pi(0)) and a product; and the
couple's H and A by 1/sigma, integrals, a product and exp.

`from_poly`, `integrate`, `exp`, `log` and `pow_rat` are the series
operations that no product path needs, moved out of `Series` into
functions over a `Series` on the same kernels (`series._first_order` and
`_recurrence`).  `constant`, `monomial`, `add`, `sub`, `neg`, `mul`,
`differentiate` and `invert_mul` followed when `Series` became a record
with no operators, and `truncate` when the package's series routes came to
work at their argument's own order; like the operators they replace, `add`, `sub` and `mul`
take an int or a Fraction on either side as a constant series.  The routes
here and the tests build on them, and `fraction_exp`, `fraction_log`,
`fraction_invert_mul` and `fraction_product` stay their term-by-term
oracles.

`newton_reversion` is the Newton iteration that `Series.reversion` ran
before it became Lagrange inversion, composing by `fraction_compose`, the
Fraction Horner oracle of `Series.compose`; the tests hold the two
reversions against each other.

`stirling_classical_meixner` is the classical (d = 1) Meixner
functional's own Stirling-number collapse at one polynomial f, from before
the classical functional became the d = 1 row of the d-dimensional evaluator
(`catalog.meixner_moments(1, c, beta, 0, order)`).
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial, lcm, prod

from dsheffer import Poly, PolySequence, Series, ShefferPair
from dsheffer import catalog
from dsheffer.dorth import (BackSubstitutionError, RecurrenceTable, RegularityViolationError,
                            WindowViolationError)
from dsheffer.exactnum import exact, scaled, stirling2_rows
from dsheffer.operators import functional_eval
from dsheffer.series import _convolve, _first_order, _recurrence


def constant(c, order: int) -> Series:
    """The constant c as a series of the given order."""
    return Series((exact(c),) + (Fraction(0),) * order)


def monomial(k: int, order: int, c=1) -> Series:
    """c t^k as a series of the given order."""
    if not 0 <= k <= order:
        raise ValueError(f"monomial degree {k} outside order {order}")
    out = [Fraction(0)] * (order + 1)
    out[k] = c
    return Series(out)


def _same_order(a, b) -> tuple[Series, Series]:
    """a and b as series of one order; an int or a Fraction is a constant series."""
    if isinstance(a, (int, Fraction)):
        a = constant(a, b.order)
    if isinstance(b, (int, Fraction)):
        b = constant(b, a.order)
    if a.order != b.order:
        raise ValueError(f"series order mismatch: {a.order} != {b.order}")
    return a, b


def add(a, b) -> Series:
    """a + b over lcm(a.den, b.den)."""
    a, b = _same_order(a, b)
    L = lcm(a.den, b.den)
    return Series.of([x * (L // a.den) + y * (L // b.den) for x, y in zip(a.nums, b.nums)], L)


def neg(s: Series) -> Series:
    return Series.of([-v for v in s.nums], s.den)


def sub(a, b) -> Series:
    a, b = _same_order(a, b)
    return add(a, neg(b))


def mul(a, b) -> Series:
    """a * b: a scalar scales, two series convolve to their common order."""
    if isinstance(a, (int, Fraction)):
        a, b = b, a
    if isinstance(b, (int, Fraction)):
        return Series.of([v * b.numerator for v in a.nums], a.den * b.denominator)
    a, b = _same_order(a, b)
    return Series.of(_convolve(a.nums, b.nums, a.order + 1), a.den * b.den)


def truncate(s: Series, order: int) -> Series:
    """s mod t^(order+1); a series cannot be truncated above its own order."""
    if order > s.order:
        raise ValueError(f"cannot truncate order {s.order} up to {order}")
    return Series.of(s.nums[:order + 1], s.den)


def differentiate(s: Series) -> Series:
    """Formal d/dt; the result order drops by one (top coeff unknown)."""
    return Series.of([k * v for k, v in enumerate(s.nums) if k] or [0], s.den)


def invert_mul(s: Series) -> Series:
    """Multiplicative inverse; requires an invertible constant term."""
    a = s.nums
    if not a[0]:
        raise ValueError("series with zero constant term has no multiplicative inverse")
    # s (1/s) = 1: sum_j a_j c_(n-j) = 0 for n >= 1; the scale of a cancels
    return _recurrence(Fraction(s.den, a[0]), a, (0,), (), s.order)


def fraction_compose(outer, inner) -> list[Fraction]:
    """outer(inner) for coefficient sequences of one length, inner_0 = 0, by Horner's rule."""
    out = [Fraction(0)] * len(inner)
    for c in reversed(outer):
        out = fraction_product(out, inner)
        out[0] += c
    return out


def newton_reversion(s: Series) -> Series:
    """Compositional inverse g with s(g(t)) = t, by Newton's iteration on s(g) - t.

    Each round doubles the number of correct coefficients; needs s_0 = 0 and
    s_1 != 0.  The compositions are `fraction_compose`, so this route shares
    neither its algorithm nor its composition with `Series.reversion`.
    """
    a = s.nums
    if a[0] or s.order < 1 or not a[1]:
        raise ValueError("reversion needs a zero constant term and a nonzero linear coefficient")
    n = s.order
    g = monomial(1, n, Fraction(s.den, a[1]))
    ident = monomial(1, n)
    # the derivative padded back to full order with a zero top coefficient:
    # the pad is wrong in general but only pollutes orders > N after a
    # composition with a zero-constant inner series, which the iteration
    # never reads
    d = differentiate(s)
    deriv = Series.of(d.nums + (0,), d.den)
    prec = 2
    while prec < n + 1:
        err = sub(Series(fraction_compose(s.coeffs, g.coeffs)), ident)
        g = sub(g, mul(err, invert_mul(Series(fraction_compose(deriv.coeffs, g.coeffs)))))
        prec *= 2
    return g


def from_poly(p: Poly, order: int) -> Series:
    """The polynomial p in t as a series, truncated or zero-padded to `order`."""
    return Series.of((p.nums + (0,) * (order + 1))[:order + 1], p.den)


def integrate(s: Series) -> Series:
    """Formal integral from 0; same order, the top input coefficient drops."""
    L = lcm(*range(1, s.order + 1))
    return Series.of([0] + [v * (L // k) for k, v in enumerate(s.nums[:-1], 1)], s.den * L)


def exp(s: Series) -> Series:
    """exp of a series with zero constant term, via E' = s' E."""
    if s.nums[0]:
        raise ValueError("exp needs a zero constant term")
    ds = [k * c for k, c in enumerate(s.nums) if k]
    return _first_order((s.den,), ds, (), Fraction(1), s.order)


def log(s: Series) -> Series:
    """log of a series with constant term 1, via s' = L' s."""
    a = s.nums
    if a[0] != s.den:
        raise ValueError("log needs constant term 1")
    # M = t L' solves s M = t s', so sum_j a_j M_(n-j) = n a_n with M_0 = 0;
    # L is the integral of M / t
    m = _recurrence(Fraction(0), a, (0,), [n * c for n, c in enumerate(a)], s.order)
    return integrate(Series.of(m.nums[1:] + (0,), m.den))


def pow_rat(s: Series, r) -> Series:
    """s^r for constant term 1: s f' = r s' f, one recursion for every rational r.

    J. C. P. Miller's power rule (Knuth, TAOCP vol. 2, 4.7), over the scale v den for r = u/v.
    """
    r = exact(r)
    a = s.nums
    if a[0] != s.den:
        raise ValueError("pow_rat needs constant term 1")
    ds = [r.numerator * k * c for k, c in enumerate(a) if k]
    return _first_order([r.denominator * c for c in a], ds, (), Fraction(1), s.order)


class UncheckedSequence:
    """P_0..P_N without PolySequence's degree check, to reach the remainder guard."""

    def __init__(self, polys):
        self.polys = polys
        self.max_index = len(polys) - 1

    def __getitem__(self, n):
        return self.polys[n]


def fraction_product(a, b) -> list[Fraction]:
    """Truncated Cauchy product of two equal-length coefficient sequences."""
    return [sum((a[i] * b[k - i] for i in range(k + 1)), Fraction(0))
            for k in range(len(a))]


def hankel_cells(seq, v) -> tuple[list, list]:
    """(k, n, m, value) of every checked orthogonality cell, and the unchecked boundaries.

    value = sum_(a,b) P_n[a] mu_k(a+b) P_m[b], term by term.
    """
    top = seq.max_index
    cells, unchecked = [], []
    moments, cs = [row.coeffs for row in v.rows], [seq[n].coeffs for n in range(top + 1)]
    for k in range(v.d):
        mu = moments[k]
        for n in range(top + 1):
            boundary = n * v.d + k
            if boundary > top:
                unchecked.append((k, n, boundary))
                continue
            for m in range(boundary, top + 1):
                value = sum((a_c * mu[a + b] * b_c
                             for a, a_c in enumerate(cs[n])
                             for b, b_c in enumerate(cs[m])), Fraction(0))
                cells.append((k, n, m, value))
    return cells, unchecked


def l_step(couple, f: list[Fraction]) -> list[Fraction]:
    """L f = sigma f' - gamma f, kept whole: len(f) + d coefficients."""
    out = [Fraction(0)] * (len(f) + couple.d)
    for i, c in enumerate(f):
        if i:
            for a, s in enumerate(couple.sigma):
                out[a + i - 1] += s * i * c
        for a, g in enumerate(couple.gamma):
            out[a + i] -= g * c
    return out


def l_table(couple, k: int, rows: int, top: int) -> list[list[Fraction]]:
    """X_k[j][m] = m! [t^m] L^j(t^k/k!) for j < rows and m <= top, L = sigma d/dt - gamma.

    With M_k(s) = <u_k, e^(x s)>, sum_m <u_k, x^j P_m> t^m/m! = A(t) M_k^(j)(H(t));
    duality makes the j = 0 series t^k/k!, and H' = 1/sigma, A'/A = gamma/sigma
    give F_(j+1) = sigma F_j' - gamma F_j.  Each F_j is kept whole, never cut
    at t^top: d/dt brings the term t^(r+1) of F_j down to t^r, so an F_j cut
    at t^top would spoil F_(j+1) at t^top, F_(j+2) from t^(top-1) on, and so on.
    """
    f = [Fraction(0)] * k + [Fraction(1, factorial(k))]
    table = []
    for _ in range(rows):
        table.append([factorial(m) * f[m] if m < len(f) else Fraction(0)
                      for m in range(top + 1)])
        f = l_step(couple, f)
    return table


def horner_gamma_y(couple, y) -> Series:
    """gamma(y) at the order of y, by Horner's rule: deg gamma series products."""
    out = constant(couple.gamma[-1], y.order)
    for c in reversed(couple.gamma[:-1]):
        out = add(mul(out, y), c)
    return out


def series_moment_rows(couple, M: int, d: int) -> tuple[Series, tuple[Series, ...]]:
    """y = H* and the moment rows mu_0 .. mu_(d-1) at order M, by Series products, integral and exp.

    mu_i(j) = (j!/i!) [s^j] y^i / A(y), with 1/A(y) = exp(-integral gamma(y)).
    """
    y = Series(fraction_hstar(couple, M))
    w = exp(neg(integrate(horner_gamma_y(couple, y))))
    rows = []
    for i in range(d):
        if i:
            w = mul(w, y)
        rows.append(Series([c * factorial(j) / factorial(i) for j, c in enumerate(w.coeffs)]))
    return y, tuple(rows)


def duality_failures(seq, v) -> list[tuple[int, int, Fraction]]:
    """(i, k, <u_i, P_k>) wherever <u_i, P_k> != delta_ik, one functional_eval per cell."""
    failures = []
    for i in range(v.d):
        for k in range(seq.max_index + 1):
            value = functional_eval(v, i, seq[k])
            if value != (1 if i == k else 0):
                failures.append((i, k, value))
    return failures


def delta(f: Poly, omega) -> Poly:
    """Delta_omega f = (f(x + omega) - f(x)) / omega, the forward difference of step omega."""
    omega = Fraction(omega)
    if not omega:
        raise ValueError("the forward difference needs a nonzero step omega")
    return (f.shift(omega) - f) * (1 / omega)


def base(f: Poly, omega=None) -> Poly:
    """The base operator: D f, or Delta_omega f for a step omega."""
    return f.derivative() if omega is None else delta(f, omega)


def base_values(f: Poly, omega=None) -> list[Fraction]:
    """[B^k f]_(x=0) for k <= deg f, applying the base operator B k times."""
    values = []
    g = f
    for _ in f.coeffs:                         # B lowers the degree of f each time
        values.append(g.coeff(0))
        g = base(g, omega)
    return values


@lru_cache(maxsize=None)
def monomial_base_values(omega, order: int) -> tuple[list[Fraction], ...]:
    """base_values of x^0..x^order; they depend on the base operator only."""
    return tuple(base_values(Poly((0,) * j + (1,)), omega) for j in range(order + 1))


def stepped_moments(ws, omega, order) -> tuple[tuple[Fraction, ...], ...]:
    """<u_i, x^j> = (1/i!) sum_l w_l [B^l x^j]_(x=0) for j <= order, w = ws[i], term by term."""
    values = monomial_base_values(omega, order)
    return tuple(tuple(sum((c * b for c, b in zip(w.coeffs, v)), Fraction(0)) / factorial(i)
                       for v in values)
                 for i, w in enumerate(ws))


def newton_step(spec) -> Fraction | None:
    """Step omega of a family's Newton form, None for the derivative kind (omega = 0)."""
    return catalog.FAMILIES[spec.family].factors(spec.d, spec.params)[3] or None


def newton_hstar(spec, N) -> Series:
    """h* of a difference family: its closed form's Newton h = (e^(omega H) - 1)/omega, reverted."""
    omega = newton_step(spec)
    Hx = catalog.family_generating(spec, N).Hx
    return mul(sub(exp(mul(Hx, omega)), 1), 1 / omega).reversion()


def lowering_failures(seq, hstar, omega=None) -> list[int]:
    """Every n with sigma P_n != n P_(n-1), sigma = sum_k y_k B^k by repeated base operators.

    hstar holds y_0, y_1, ... as Fractions; B is D, or Delta_omega for a step omega.
    """
    def lower(f):
        if len(hstar) < len(f.coeffs):
            raise ValueError(f"operator order {len(hstar) - 1} too small for degree {f.degree()}")
        out, g = Poly(), f
        for y in hstar[1:len(f.coeffs)]:
            g = base(g, omega)
            out = out + g * y
        return out

    return [n for n in range(seq.max_index + 1)
            if lower(seq[n]) != (seq[n - 1] * n if n else Poly())]


def fraction_invert_mul(s) -> list[Fraction]:
    """1/s for a coefficient sequence with s_0 != 0, term by term."""
    inv0 = Fraction(1) / s[0]
    out = [inv0]
    for n in range(1, len(s)):
        acc = s[1] * out[n - 1]
        for k in range(2, n + 1):
            acc = acc + s[k] * out[n - k]
        out.append(-inv0 * acc)
    return out


def fraction_exp(s) -> list[Fraction]:
    """exp(s) for s_0 = 0 through n E_n = sum_k k s_k E_(n-k), term by term."""
    out = [Fraction(1)]
    for n in range(1, len(s)):
        acc = s[1] * out[n - 1]
        for k in range(2, n + 1):
            acc = acc + (k * s[k]) * out[n - k]
        out.append(acc * Fraction(1, n))
    return out


def fraction_log(s) -> list[Fraction]:
    """log(s) for s_0 = 1 through n L_n = n s_n - sum_k k L_k s_(n-k), term by term."""
    out = [Fraction(0)]
    for n in range(1, len(s)):
        acc = Fraction(0)
        for k in range(1, n):
            acc = acc + (k * out[k]) * s[n - k]
        out.append(s[n] - acc * Fraction(1, n))
    return out


def fraction_hstar(couple, N, omega=None) -> list[Fraction]:
    """y = H* from (1 + omega s) y' = sigma(y), y(0) = 0, term by term in Fraction.

    (k+1) y_(k+1) = [s^k] sigma(y) - omega k y_k, with rows[j][k] = [s^k] y^j
    filled one column k at a time.
    """
    step = Fraction(0) if omega is None else Fraction(omega)
    sigma = Poly(couple.sigma).coeffs
    y = [Fraction(0)] * (N + 1)
    rows = [None, y] + [[Fraction(0)] * N for _ in range(len(sigma) - 2)]
    for k in range(N):
        for j in range(2, len(sigma)):
            prev = rows[j - 1]
            rows[j][k] = sum(y[i] * prev[k - i] for i in range(1, k - j + 2))
        rhs = sum(sigma[j] * rows[j][k] for j in range(1, len(sigma)))
        if k == 0:
            rhs += sigma[0]
        y[k + 1] = (rhs - step * k * y[k]) / (k + 1)
    return y


def fraction_couple_rows(couple, top) -> tuple[tuple[Fraction, ...], ...]:
    """Rows alpha_(0..d+1)(n), n < top, of the couple's recurrence, in Fraction.

    alpha_k(n) = sigma_(d+1-k) n^(d+1-k) - gamma_(d-k) n^(d-k) with the
    falling factorial n^(j); two Fraction products and a subtraction per entry.
    """
    couple.validate()
    d = couple.d
    rows = []
    for n in range(top):
        falling = [1]                       # falling[j] = n^(j)
        for j in range(d + 1):
            falling.append(falling[-1] * (n - j))
        rows.append(tuple(
            couple.sigma[d + 1 - k] * falling[d + 1 - k]
            - (couple.gamma[d - k] * falling[d - k] if k <= d else 0)
            for k in range(d + 2)
        ))
    return tuple(rows)


def series_expand_polynomials(pair) -> PolySequence:
    """P_0..P_N, N = pair.order, with [x^k] P_n = n!/k! [t^n] (A H^k) by Series products."""
    N = pair.order
    columns = [pair.A]                         # columns[k] = A H^k
    for _ in range(N):
        columns.append(mul(columns[-1], pair.Hx))
    columns = [column.coeffs for column in columns]
    return PolySequence(tuple(
        Poly(columns[k][n] * (factorial(n) // factorial(k)) for k in range(n + 1))
        for n in range(N + 1)
    ))


def fraction_pretty(poly) -> str:
    """Poly.pretty by Fraction comparisons, negation and str."""
    cs = poly.coeffs
    if not cs:
        return "0"
    parts = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if k == 0:
            body = str(mag)
        else:
            xk = "x" if k == 1 else f"x^{k}"
            body = xk if mag == 1 else f"{mag}*{xk}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def fraction_latex(poly) -> str:
    """poly_latex(poly.coeff_strings()) by Fraction comparisons and negation."""
    cs = poly.coeffs
    if not cs:
        return "0"
    parts = []
    for k in range(len(cs) - 1, -1, -1):
        c = cs[k]
        if c == 0:
            continue
        mag = -c if c < 0 else c
        if mag.denominator == 1:
            mag_s = str(mag.numerator)
        else:
            mag_s = f"\\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        if k == 0:
            body = mag_s
        else:
            xk = "x" if k == 1 else f"x^{{{k}}}"
            body = xk if mag == 1 else f"{mag_s} {xk}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def fraction_expand_from_couple(couple, N) -> list[Poly]:
    """P_0..P_N from P_(n+1) = (x P_n - sum_(k<=d) alpha_k(n) P_(n-d+k)) / sigma_0, per term."""
    rows = fraction_couple_rows(couple, N)
    d = couple.d
    inv = 1 / couple.alpha_0
    polys = [[Fraction(1)]]
    for n, row in enumerate(rows):
        nxt = [Fraction(0)] + polys[n]     # x P_n
        for k in range(max(d - n, 0), d + 1):
            if a := row[k]:
                for i, c in enumerate(polys[n - d + k]):
                    nxt[i] -= a * c
        polys.append([c * inv for c in nxt])
    return [Poly(p) for p in polys]


def fraction_recurrence_rows(seq, d) -> list[tuple[Fraction, ...]]:
    """Rows alpha_(0..d+1)(n) of x P_n over P_0..P_(n+1), by per-term back-substitution.

    Raises the same BackSubstitutionError and WindowViolationError as
    dorth.extract_recurrence; the regularity decision on the rows is left
    to the caller.
    """
    x = Poly((0, 1))
    rows = []
    for n in range(seq.max_index):
        q = seq[n] * x
        coeffs = {}
        for j in range(n + 1, -1, -1):
            cj = q.coeff(j) / seq[j].coeff(seq[j].degree())
            if cj:
                q = q - seq[j] * cj
            coeffs[j] = cj
        if q:
            raise BackSubstitutionError(n=n, remainder=q)
        for j in range(0, n - d):
            if coeffs[j]:
                raise WindowViolationError(d=d, n=n, index=j, value=coeffs[j])
        rows.append(tuple(
            coeffs[n - d + k] if n - d + k >= 0 else Fraction(0)
            for k in range(d + 2)
        ))
    return rows


def fraction_table(d, rows) -> RecurrenceTable:
    """The RecurrenceTable of Fraction rows, as numerators over their least common denominator."""
    flat, den = scaled([Fraction(c) for row in rows for c in row])
    ints = iter(flat)
    return RecurrenceTable(d, [[next(ints) for _ in row] for row in rows], den)


def regular_fraction_table(d, rows) -> RecurrenceTable:
    """fraction_table of the rows, after Theorem 2.2's regularity on every row.

    Raises RegularityViolationError naming each n >= d with
    alpha_0(n) alpha_(d+1)(n) = 0, both factors read off the row itself.
    """
    if bad := tuple(n for n, row in enumerate(rows) if n >= d and not (row[0] and row[d + 1])):
        raise RegularityViolationError(d=d, rows=bad)
    return fraction_table(d, rows)


def branch_family_generating(spec, N) -> ShefferPair:
    """The closed-form generating pair of a valid family instance, one branch per family."""
    d = spec.d
    p = spec.params
    fam = spec.family
    one_minus_t = from_poly(Poly((1, -1)), N)
    aux = spec.aux or ()
    exp_pi = exp(from_poly(Poly((0,) + tuple(aux[1:])), N))   # exp(pi(t) - pi(0))
    if fam == catalog.LAGUERRE_EQ9:
        a = p["alpha"]
        A = pow_rat(one_minus_t, -(a + 1) * d)
        Hx = sub(1, pow_rat(one_minus_t, -d))
        return ShefferPair(A=A, Hx=Hx)
    if fam == catalog.LAGUERRE_EQ10:
        a = p["alpha"]
        A = mul(exp_pi, pow_rat(one_minus_t, -(a + 1)))
        Hx = mul(from_poly(Poly((0, -1)), N), invert_mul(one_minus_t))
        return ShefferPair(A=A, Hx=Hx)
    if fam == catalog.LAGUERRE_EQ11:
        a = p["alpha"]
        A = pow_rat(one_minus_t, -(a + 1))
        Hx = mul(mul(from_poly(Poly((0, -2, 1)), N), Fraction(1, 2)),
                 invert_mul(from_poly(Poly((1, -2, 1)), N)))
        return ShefferPair(A=A, Hx=Hx)
    if fam == catalog.HERMITE_EQ12:
        return ShefferPair(A=exp_pi, Hx=monomial(1, N))
    if fam == catalog.CHARLIER_EQ13:
        omega = p["omega"]
        Hx = mul(log(from_poly(Poly((1, omega)), N)), 1 / omega)
        return ShefferPair(A=exp_pi, Hx=Hx)
    if fam == catalog.MEIXNER_EQ14:
        c, beta = p["c"], p["beta"]
        A = mul(exp_pi, pow_rat(one_minus_t, -beta))
        newton = mul(from_poly(Poly((0, (c - 1) / c)), N), invert_mul(one_minus_t))
        return ShefferPair(A=A, Hx=log(add(1, newton)))
    if fam == catalog.MEIXNER_EQ16:
        c, beta = p["c"], p["beta"]
        A = pow_rat(one_minus_t, -beta * d)
        newton = mul(sub(pow_rat(one_minus_t, -d), 1), (c - 1) / (d * c))
        return ShefferPair(A=A, Hx=log(add(1, newton)))
    if fam == catalog.MEIXNER_EQ21:
        c, beta = p["c"], p["beta"]
        A = mul(exp_pi, pow_rat(one_minus_t, -beta))
        newton = mul(mul(from_poly(Poly((0, -2, 1)), N), (c - 1) / (2 * c)),
                     invert_mul(from_poly(Poly((1, -2, 1)), N)))
        return ShefferPair(A=A, Hx=log(add(1, newton)))
    raise ValueError(f"unknown family: {fam!r}")


def log_exp_pow(s: Series, r) -> Series:
    """s^r for s(0) = 1 as exp(r log s), with 0, 1 and -1 answered directly.

    The constant 1, s itself and 1/s: the values of the branches that
    `pow_rat` had before it solved s f' = r s' f for every r.
    """
    r = Fraction(r)
    if r == 0:
        return constant(1, s.order)
    if r == 1:
        return s
    if r == -1:
        return invert_mul(s)
    return exp(mul(log(s), r))


def chain_pair_from_couple(couple, N) -> ShefferPair:
    """(A, H) as H = integral 1/sigma and A = exp integral gamma/sigma, by series operations."""
    couple.validate()
    sigma = from_poly(Poly(couple.sigma), N)
    gamma = from_poly(Poly(couple.gamma), N)
    inv_sigma = invert_mul(sigma)
    return ShefferPair(A=exp(integrate(mul(gamma, inv_sigma))), Hx=integrate(inv_sigma))


def chain_family_generating(spec, N) -> ShefferPair:
    """The catalog's closed form by powers of 1 - t, exp(pi - pi(0)) and a product.

    A = exp(pi - pi(0)) (1 - t)^e, h = s ((1 - t)^(-k) - 1), and H = h or
    log(1 + omega h)/omega, the powers by `log_exp_pow`.
    """
    e, k, s, _ = catalog.FAMILIES[spec.family].factors(spec.d, spec.params)
    omega = newton_step(spec)
    one_minus_t = from_poly(Poly((1, -1)), N)
    A = log_exp_pow(one_minus_t, e)
    pi = Poly((0,) + tuple((spec.aux or ())[1:]))
    if pi:
        A = mul(exp(from_poly(pi, N)), A)
    h = mul(sub(log_exp_pow(one_minus_t, -k), 1), s)
    Hx = h if omega is None else mul(log(add(1, mul(h, omega))), 1 / omega)
    return ShefferPair(A=A, Hx=Hx)


def stirling_classical_meixner(c, beta, f) -> Fraction:
    """(1-c)^beta sum_j (beta)_j c^j f(j)/j! as sum_k S(m,k) (beta)_k (c/(1-c))^k, 0 < c < 1."""
    c, beta = Fraction(c), Fraction(beta)
    z = c / (1 - c)
    total = Fraction(0)
    top = len(f.coeffs) - 1
    for fm, row in zip(f.coeffs, stirling2_rows(top)):
        if fm == 0:
            continue
        s = Fraction(0)
        for k, s2 in enumerate(row):
            if s2:
                s += s2 * prod(beta + i for i in range(k)) * z ** k
        total += fm * s
    return total
