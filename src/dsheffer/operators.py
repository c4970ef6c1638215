"""Lowering operators and the moment table of the functionals built from them.

For a pair (A, H) the lowering operator is sigma = H*(B), where H* is the
compositional inverse of H and B is the base operator: d/dx for sets written
as A(t) exp(x H(t)), or the forward difference of step omega for sets written
in the Newton form A(t) (1 + omega h(t))^(x/omega).  Both base operators
strictly lower degree, so operator series act on polynomials as finite sums.

Everything here is built from the couple (gamma, sigma), through H' = 1/sigma
and A'/A = gamma/sigma.  The inverse y = H* solves the polynomial ODE

    (1 + omega s) y' = sigma(y),    y(0) = 0

(omega = 0 for the derivative kind), since the exponential form of a Newton
pair is log(1 + omega h)/omega.  The ODE is solved on integers: with
R = lcm(den sigma, den omega), y_k = Y_k / (k! R^k) makes every Y_k an
integer and [s^k] y^j a binomial-weighted integer convolution, and y is
handed over as numerators over the one denominator N! R^N.  The
functional vector (u_0, ..., u_{d-1}) dual to the sequence is

    <u_i, f> = (1/i!) [ sigma^i / A(sigma) f(x) ]_{x=0}

and along y the same couple gives log A(y) = integral gamma(y)/(1 + omega s),
so each operator series w = y^i / A(y) needs only products, an integral and
exp.  gamma(y) itself costs no series product: the ODE's integer table of
[s^k] y^j, taken up to j = deg gamma, gives it as one dot product per
coefficient (lowering_from_couple hands it over as LoweringOp.gamma_y, and
the Horner evaluation it replaced is the tests' oracle).  A functional is
fixed by its moments, and [B^l x^j]_{x=0} is T[j][l] = l! S(j, l)
omega^(j-l) (S the Stirling numbers of the second kind), so

    mu_i(j) = <u_i, x^j> = (1/i!) sum_l w_l T[j][l]

for both kinds; at omega = 0 only l = j survives.  The table's readers skip
its zeros: the moment table and dorth.verify_lowering's change of basis
both walk its nonzero diagonals T[l + t][l] (newton_diagonals), which at
omega = 0 are the one diagonal j!, written in closed form with no Stirling
row.  So the moment row is the one elementwise product
mu_i(j) = w_j j!/i!, and each P_n's conversion c_l = l! p_l is another.
Each row mu_i is kept as a Series (FunctionalVector.rows), integer
numerators over one denominator, and every functional value is a dot
product with one row.  The same table (newton_table) writes x^j in the
basis b_l = (x)_(l,omega) / l! of falling factorials of step omega
(x^l / l! for the derivative kind), where B b_l = b_(l-1); there sigma
acts as a convolution with H*, which is how dorth.verify_lowering checks
it.

The functionals are the dual sequence of {P_n} and sigma P_n = n P_(n-1)
fixes sigma, so both are unique: on polynomials the difference kind's
h*(Delta_omega) is the derivative kind's H*(D), with Delta_omega =
(e^(omega D) - 1)/omega and H = log(1 + omega h)/omega.  `verify` and
`functionals` therefore build H*(D) for every source (lowering_from_couple
with no step): the moment table comes out as the same integers as along
h*(Delta_omega), and the lowering check flags the same P_n.  A step omega
stays accepted throughout: it is the tests' second route to both.

`lowering_from_H` reverts a given H, and `apply_lowering` applies sigma by
repeated base operators; neither is on the verify path any more.  They are
the independent routes the tests compare against.  An operator from
`lowering_from_H` carries no couple, so no FunctionalVector is built on it.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial, lcm
from operator import add, mul

from dsheffer.exactnum import exact, stirling2_rows
from dsheffer.series import Poly, Series
from dsheffer.sheffer import CoupleSpec

DERIVATIVE = "derivative"
DIFFERENCE = "difference"


def newton_table(step: Fraction, order: int) -> tuple[list[list[int]], int]:
    """Integer rows T[j][0..j] over one denominator D, for j <= order.

    T[j][l] / D = l! S(j, l) step^(j-l): the coefficient of b_l in x^j for the
    basis b_l = (x)_(l,step) / l!, and [B^l x^j]_(x=0) for the base operator
    of that step.  At step 0, the derivative kind, only l = j is nonzero.
    """
    p, q = step.numerator, step.denominator
    return [[factorial(l) * s * p ** (j - l) * q ** (order - j + l) for l, s in enumerate(row)]
            for j, row in enumerate(stirling2_rows(order, order))], q ** order


def newton_diagonals(step: Fraction, order: int) -> tuple[list[int], list, int]:
    """The nonzero diagonals of newton_table(step, order), over its denominator D.

    Returns (diag_0, rest, D): diag_0[l] = T[l][l] = l! D, never zero, and
    rest the pairs (t, diag_t), diag_t[l] = T[l + t][l] for l <= order - t,
    of the diagonals t >= 1 that hold a nonzero entry.  At a nonzero step
    that is every t; at step 0 none, and diag_0 is the j! in closed form,
    read off no Stirling row, so a reader walking the diagonals makes one
    elementwise product and no product with a zero of the table.
    """
    if not step:
        return [factorial(j) for j in range(order + 1)], [], 1
    table, den = newton_table(step, order)
    rest = [(t, [table[l + t][l] for l in range(order + 1 - t)]) for t in range(1, order + 1)]
    return [row[-1] for row in table], rest, den


def apply_base(kind: str, f: Poly, omega: Fraction | None = None) -> Poly:
    """Apply the base operator: f' or (f(x + omega) - f(x)) / omega."""
    if kind == DERIVATIVE:
        return f.derivative()
    if kind == DIFFERENCE:
        step = None if omega is None else exact(omega)
        if not step:
            raise ValueError("difference operator needs a nonzero step omega")
        return (f.shift(step) - f) * (1 / step)
    raise ValueError(f"unknown base operator kind: {kind!r}")


class LoweringOp:
    """Operator series H*(B) with H*(0) = 0 and a nonzero linear term.

    An operator solved from a couple (lowering_from_couple) also carries
    that couple and gamma(y), y = H*, at the same order: the series the
    couple's FunctionalVector starts from.  Both are None otherwise.
    """

    __slots__ = ("kind", "hstar", "omega", "couple", "gamma_y")

    def __init__(self, kind: str, hstar: Series, omega: Fraction | None = None, *,
                 couple: CoupleSpec | None = None, gamma_y: Series | None = None):
        if kind not in (DERIVATIVE, DIFFERENCE):
            raise ValueError(f"unknown base operator kind: {kind!r}")
        if kind == DIFFERENCE:
            omega = None if omega is None else exact(omega)
            if not omega:
                raise ValueError("difference kind needs a nonzero step omega")
        else:
            if omega is not None:
                raise ValueError("derivative kind takes no step")
        if hstar.nums[0]:
            raise ValueError("hstar must have zero constant term")
        if hstar.order < 1 or not hstar.nums[1]:
            raise ValueError("hstar must have a nonzero linear coefficient")
        if (couple is None) != (gamma_y is None):
            raise ValueError("couple and gamma_y come together")
        if gamma_y is not None and gamma_y.order != hstar.order:
            raise ValueError(f"gamma_y order {gamma_y.order} != hstar order {hstar.order}")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "hstar", hstar)
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "couple", couple)
        object.__setattr__(self, "gamma_y", gamma_y)

    def __setattr__(self, name, value):
        raise AttributeError("LoweringOp is immutable")

    def __repr__(self) -> str:
        step = "" if self.omega is None else f", omega={self.omega}"
        return f"LoweringOp({self.kind}{step}, order={self.hstar.order})"


def lowering_from_couple(couple: CoupleSpec, N: int,
                         omega: Fraction | None = None) -> LoweringOp:
    """The couple's lowering operator at truncation order N.

    y = H* solves (1 + omega s) y' = sigma(y) with y(0) = 0.  Comparing the
    coefficients of s^k gives (k+1) y_(k+1) = [s^k] sigma(y) - omega k y_k,
    and [s^k] y^j only involves y_1..y_k, so each coefficient follows from
    the ones before it.  The recursion runs on integers, and y is handed
    over as integer numerators over one denominator (Series.of).  The same
    table of [s^k] y^j, taken up to j = deg gamma, gives gamma(y) as one
    integer dot product per coefficient, handed over on the operator
    (LoweringOp.gamma_y).  omega None is the derivative kind; a step omega
    gives the forward-difference kind of a family in Newton form.
    """
    if N < 1:
        raise ValueError("order must be at least 1")
    couple.validate()
    step = Fraction(0) if omega is None else exact(omega)
    sig, gam = Poly(couple.sigma), Poly(couple.gamma)
    # With R = lcm(den sigma, den omega) and y_k = Y_k / (k! R^k), the numbers
    # Z_j[k] = k! R^k [s^k] y^j are integers with the binomial convolution
    # Z_j[k] = sum_i C(k, i) Y_i Z_(j-1)[k-i] (Z_1 = Y, Z_0[k] = [k = 0]), and
    # the ODE reads Y_(k+1) = sum_j R sigma_j Z_j[k] - R omega k Y_k.
    R = lcm(step.denominator, sig.den)
    s = [c * (R // sig.den) for c in sig.nums]
    w = step.numerator * (R // step.denominator)
    Y = [0] * (N + 1)
    # Z[j][k] for j <= max(deg sigma, deg gamma), filled one column k at a time
    Z = [[1] + [0] * N, Y] + [[0] * (N + 1) for _ in range(max(len(s), len(gam.nums)) - 2)]
    for k in range(N + 1):
        by = [comb(k, i) * Y[i] for i in range(1, k + 1)]      # C(k, i) Y_i, i >= 1
        for j in range(2, len(Z)):
            Z[j][k] = sum(map(mul, by, reversed(Z[j - 1][:k])))
        if k < N:
            Y[k + 1] = (sum(s[j] * Z[j][k] for j in range(1, len(s)))
                        + (s[0] if k == 0 else 0) - w * k * Y[k])
    # k! R^k [s^k] gamma(y) = sum_j gamma_j Z_j[k], over den gamma
    G = [sum(map(mul, gam.nums, col)) for col in zip(*Z[:len(gam.nums)])]
    # y_k = Y_k (N!/k!) R^(N-k) / (N! R^N), and gamma(y)_k alike
    scale = 1
    for k in range(N, 0, -1):
        Y[k] *= scale
        G[k] *= scale
        scale *= k * R
    G[0] *= scale
    kind = DERIVATIVE if omega is None else DIFFERENCE
    return LoweringOp(kind=kind, hstar=Series.of(Y, scale), omega=omega,
                      couple=couple, gamma_y=Series.of(G, scale * gam.den))


def lowering_from_H(H: Series, kind: str, N: int | None = None,
                    omega: Fraction | None = None) -> LoweringOp:
    """Revert H and wrap it as an operator series at truncation order N."""
    if N is None:
        N = H.order
    return LoweringOp(kind=kind, hstar=H.truncate(N).reversion(), omega=omega)


def apply_lowering(op: LoweringOp, f: Poly) -> Poly:
    """Apply sigma = H*(B) to a polynomial (finite because B lowers degree)."""
    deg = f.degree()
    if deg is None:
        return Poly.zero()
    if op.hstar.order < deg:
        raise ValueError(
            f"operator order {op.hstar.order} too small for degree {deg}"
        )
    out = Poly.zero()
    g, ys = f, op.hstar.coeffs
    for k in range(1, deg + 1):
        g = apply_base(op.kind, g, op.omega)
        if g.is_zero():
            break
        out = out + g * ys[k]
    return out


class FunctionalVector:
    """The d moment functionals of a couple, as their table of moments.

    rows[i] is the Series of moments <u_i, x^j> for j up to the order of the
    lowering operator, as integer numerators over one denominator, the form
    that dorth's checks read; the functionals read nothing else.
    moments[i][j] is the same table as Fractions.  The operator must be the
    couple's own (lowering_from_couple), since gamma(y) is read off it.
    """

    __slots__ = ("lop", "d", "rows")

    def __init__(self, couple: CoupleSpec, lop: LoweringOp, d: int):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if lop.couple is None or lop.couple != couple:
            raise ValueError("the operator was not solved from this couple "
                             "(build it with lowering_from_couple)")
        y = lop.hstar
        order = y.order
        if d - 1 > order:
            raise ValueError(f"order {order} too small for d={d}")
        gamma_y = lop.gamma_y
        if lop.omega is not None:                 # divide by 1 + omega s
            gamma_y = gamma_y * Series([(-lop.omega) ** k for k in range(order + 1)])
        w = (-gamma_y.integrate()).exp()           # 1 / A(y), then y^i / A(y)
        # mu_i(j) i! D = sum_t w_(j-t) T[j][j-t], walked along the nonzero
        # diagonals t of the table: at step 0 only t = 0, mu_i(j) = w_j j!/i!
        diag0, rest, dt = newton_diagonals(lop.omega or Fraction(0), order)
        rows = []
        for i in range(d):
            if i:
                w = w * y
            ws = w.nums
            mu = list(map(mul, ws, diag0))
            for t, diag in rest:
                mu[t:] = map(add, mu[t:], map(mul, ws, diag))
            rows.append(Series.of(mu, w.den * dt * factorial(i)))
        object.__setattr__(self, "lop", lop)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("FunctionalVector is immutable")

    @property
    def moments(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(row.coeffs for row in self.rows)

    @property
    def order(self) -> int:
        return self.lop.hstar.order

    def __repr__(self) -> str:
        return f"FunctionalVector(d={self.d}, kind={self.lop.kind}, order={self.order})"


def functional_eval(v: FunctionalVector, i: int, f: Poly) -> Fraction:
    """Exact <u_i, f>; the polynomial degree must fit the built order."""
    if not 0 <= i < v.d:
        raise IndexError(f"functional index {i} out of range for d={v.d}")
    deg = f.degree()
    if deg is not None and deg > v.order:
        raise ValueError(
            f"functional order {v.order} too small for polynomial degree {deg}"
        )
    row = v.rows[i]
    return Fraction(sum(map(mul, f.nums, row.nums)), f.den * row.den)
