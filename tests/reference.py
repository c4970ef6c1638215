"""Per-term Fraction loops that the package's integer kernels replaced.

The package runs its series products, orthogonality (whose oracle is the
Hankel form below), duality and the lowering check on integer numerators
over one common denominator (the `nums` over `den` that `Poly` and
`Series` store), and the lowering check in the basis x^l / l!.  These are the
straightforward versions, one `Fraction` operation per term and the base
operator applied repeatedly, kept as the oracles those kernels must match
exactly.  The same holds for the back-substitution of `extract_recurrence`,
the `exp`/`log`/`invert_mul` recursions, the lowering ODE,
`expand_from_couple`, the couple's recurrence rows (`fraction_table` builds
a `RecurrenceTable` from such rows) and the generating-function expansion,
which now run on integers with one running or common denominator, and for
`Poly.pretty`, `Poly.latex` and `Poly.coeff_strings`, which now read each
coefficient's lowest-terms numerator and denominator from the stored
integer form instead of building, comparing and negating Fractions.

`horner_gamma_y` is gamma(y) by Horner's rule on series products, from
before the couple's ODE solver in `operators` read it off its own table of
[s^k] y^j.

The Newton step omega lives here alone.  A difference family, stated as
A(t) (1 + omega h(t))^(x/omega), has the lowering operator h*(Delta_omega),
Delta_omega f = (f(x + omega) - f(x))/omega; the package builds H*(D) for
every source, the same operator on polynomials.  `delta` is that forward
difference, `newton_hstar` reverts the closed form's Newton h,
`fraction_hstar` solves (1 + omega s) y' = sigma(y) term by term, and
`base_values`, `stepped_moments` and `lowering_failures` apply D or
Delta_omega repeatedly, so the tests can hold H*(D) against h*(Delta_omega)
on the moment table and on the lowering check.

`branch_family_generating` is the catalog's closed generating pair written
out once per family, each with its own series operations, from before
`catalog.family_generating` read every family from three numbers and its
Newton step.  `stirling_classical_meixner` is the classical (d = 1) Meixner
functional's own Stirling-number collapse, from before
`catalog.meixner_classical_functional` delegated to the d-dimensional
evaluator.
"""

from fractions import Fraction
from functools import lru_cache
from math import factorial

from dsheffer import Poly, PolySequence, Series, ShefferPair, functional_eval
from dsheffer import catalog
from dsheffer.dorth import BackSubstitutionError, RecurrenceTable, WindowViolationError
from dsheffer.exactnum import pochhammer, scaled, stirling2


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
    moments, cs = v.moments, [seq[n].coeffs for n in range(top + 1)]
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


def horner_gamma_y(couple, y) -> Series:
    """gamma(y) at the order of y, by Horner's rule: deg gamma series products."""
    out = Series.constant(couple.gamma[-1], y.order)
    for c in reversed(couple.gamma[:-1]):
        out = out * y + c
    return out


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
        values.append(g(Fraction(0)))
        g = base(g, omega)
    return values


@lru_cache(maxsize=None)
def monomial_base_values(omega, order: int) -> tuple[list[Fraction], ...]:
    """base_values of x^0..x^order; they depend on the base operator only."""
    return tuple(base_values(Poly.monomial(j), omega) for j in range(order + 1))


def stepped_moments(ws, omega, order) -> tuple[tuple[Fraction, ...], ...]:
    """<u_i, x^j> = (1/i!) sum_l w_l [B^l x^j]_(x=0) for j <= order, w = ws[i], term by term."""
    values = monomial_base_values(omega, order)
    return tuple(tuple(sum((c * b for c, b in zip(w.coeffs, v)), Fraction(0)) / factorial(i)
                       for v in values)
                 for i, w in enumerate(ws))


def newton_hstar(spec, N) -> Series:
    """h* of a difference family: its closed form's Newton h = (e^(omega H) - 1)/omega, reverted."""
    omega = catalog.family_step(spec)
    Hx = catalog.family_generating(spec, N).Hx
    return (((Hx * omega).exp() - 1) * (1 / omega)).reversion()


def lowering_failures(seq, hstar, omega=None) -> list[int]:
    """Every n with sigma P_n != n P_(n-1), sigma = sum_k y_k B^k by repeated base operators.

    hstar holds y_0, y_1, ... as Fractions; B is D, or Delta_omega for a step omega.
    """
    def lower(f):
        if len(hstar) < len(f.coeffs):
            raise ValueError(f"operator order {len(hstar) - 1} too small for degree {f.degree()}")
        out, g = Poly.zero(), f
        for y in hstar[1:len(f.coeffs)]:
            g = base(g, omega)
            out = out + g * y
        return out

    return [n for n in range(seq.max_index + 1)
            if lower(seq[n]) != (seq[n - 1] * n if n else Poly.zero())]


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


def series_expand_polynomials(pair, N) -> PolySequence:
    """P_0..P_N with [x^k] P_n = n!/k! [t^n] (A H^k), each A H^k a Series product."""
    hx = pair.Hx.truncate(N)
    columns = [pair.A.truncate(N)]             # columns[k] = A H^k
    for _ in range(N):
        columns.append(columns[-1] * hx)
    columns = [column.coeffs for column in columns]
    return PolySequence(tuple(
        Poly(columns[k][n] * (factorial(n) // factorial(k)) for k in range(n + 1))
        for n in range(N + 1)
    ))


def fraction_pretty(poly, var: str = "x") -> str:
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
            xk = var if k == 1 else f"{var}^{k}"
            body = xk if mag == 1 else f"{mag}*{xk}"
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return " ".join(parts)


def fraction_latex(poly, var: str = "x") -> str:
    """Poly.latex by Fraction comparisons and negation."""
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
            xk = var if k == 1 else f"{var}^{{{k}}}"
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
    x = Poly.x()
    rows = []
    for n in range(seq.max_index):
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
    return rows


def fraction_table(d, rows) -> RecurrenceTable:
    """The RecurrenceTable of Fraction rows, as numerators over their least common denominator."""
    flat, den = scaled([Fraction(c) for row in rows for c in row])
    ints = iter(flat)
    return RecurrenceTable(d, [[next(ints) for _ in row] for row in rows], den)


def branch_family_generating(spec, N) -> ShefferPair:
    """The closed-form generating pair of a valid family instance, one branch per family."""
    catalog.family_couple(spec)
    d = spec.d
    p = spec.params
    fam = spec.family
    one_minus_t = Series.from_poly(Poly((1, -1)), N)
    aux = spec.aux or ()
    exp_pi = Series.from_poly(Poly((0,) + tuple(aux[1:])), N).exp()   # exp(pi(t) - pi(0))
    if fam == catalog.LAGUERRE_EQ9:
        a = p["alpha"]
        A = one_minus_t.pow_rat(-(a + 1) * d)
        Hx = 1 - one_minus_t.pow_rat(-d)
        return ShefferPair(A=A, Hx=Hx)
    if fam == catalog.LAGUERRE_EQ10:
        a = p["alpha"]
        A = exp_pi * one_minus_t.pow_rat(-(a + 1))
        Hx = Series.from_poly(Poly((0, -1)), N) * one_minus_t.invert_mul()
        return ShefferPair(A=A, Hx=Hx)
    if fam == catalog.LAGUERRE_EQ11:
        a = p["alpha"]
        A = one_minus_t.pow_rat(-(a + 1))
        Hx = (Series.from_poly(Poly((0, -2, 1)), N) * Fraction(1, 2)
              * Series.from_poly(Poly((1, -2, 1)), N).invert_mul())
        return ShefferPair(A=A, Hx=Hx)
    if fam == catalog.HERMITE_EQ12:
        return ShefferPair(A=exp_pi, Hx=Series.identity(N))
    if fam == catalog.CHARLIER_EQ13:
        omega = p["omega"]
        Hx = Series.from_poly(Poly((1, omega)), N).log() * (1 / omega)
        return ShefferPair(A=exp_pi, Hx=Hx)
    if fam == catalog.MEIXNER_EQ14:
        c, beta = p["c"], p["beta"]
        A = exp_pi * one_minus_t.pow_rat(-beta)
        newton = Series.from_poly(Poly((0, (c - 1) / c)), N) * one_minus_t.invert_mul()
        return ShefferPair(A=A, Hx=(1 + newton).log())
    if fam == catalog.MEIXNER_EQ16:
        c, beta = p["c"], p["beta"]
        A = one_minus_t.pow_rat(-beta * d)
        newton = (one_minus_t.pow_rat(-d) - 1) * ((c - 1) / (d * c))
        return ShefferPair(A=A, Hx=(1 + newton).log())
    if fam == catalog.MEIXNER_EQ21:
        c, beta = p["c"], p["beta"]
        A = exp_pi * one_minus_t.pow_rat(-beta)
        newton = (Series.from_poly(Poly((0, -2, 1)), N) * ((c - 1) / (2 * c))
                  * Series.from_poly(Poly((1, -2, 1)), N).invert_mul())
        return ShefferPair(A=A, Hx=(1 + newton).log())
    raise ValueError(f"unknown family: {fam!r}")


def stirling_classical_meixner(c, beta, f) -> Fraction:
    """(1-c)^beta sum_j (beta)_j c^j f(j)/j! as sum_k S(m,k) (beta)_k (c/(1-c))^k, 0 < c < 1."""
    c, beta = Fraction(c), Fraction(beta)
    z = c / (1 - c)
    total = Fraction(0)
    for m, fm in enumerate(f.coeffs):
        if fm == 0:
            continue
        s = Fraction(0)
        for k in range(m + 1):
            s2 = stirling2(m, k)
            if s2:
                s += s2 * pochhammer(beta, k) * z ** k
        total += fm * s
    return total
