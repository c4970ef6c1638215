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
pair is log(1 + omega h)/omega.  The functional vector (u_0, ..., u_{d-1})
dual to the sequence is

    <u_i, f> = (1/i!) [ sigma^i / A(sigma) f(x) ]_{x=0}

and along y the same couple gives log A(y) = integral gamma(y)/(1 + omega s),
so each operator series w = y^i / A(y) needs only products, an integral and
exp.  A functional is fixed by its moments, and [B^l x^j]_{x=0} is
T[j][l] = l! S(j, l) omega^(j-l) (S the Stirling numbers of the second
kind), so

    mu_i(j) = <u_i, x^j> = (1/i!) sum_l w_l T[j][l]

for both kinds; at omega = 0 only l = j survives.  Every functional value
is a dot product with this table.  The same table (newton_table) writes x^j
in the basis b_l = (x)_(l,omega) / l! of falling factorials of step omega
(x^l / l! for the derivative kind), where B b_l = b_(l-1); there sigma acts
as a convolution with H*, which is how dorth.verify_lowering checks it.

`lowering_from_H` reverts a given H, and `apply_lowering` applies sigma by
repeated base operators; neither is on the verify path any more.  They are
the independent routes the tests compare against.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from operator import mul

from dsheffer.exactnum import scaled, stirling2
from dsheffer.series import Poly, Series
from dsheffer.sheffer import CoupleSpec

DERIVATIVE = "derivative"
DIFFERENCE = "difference"


def newton_table(step: Fraction, order: int) -> tuple[list[list[int]], int]:
    """Integer rows T[j][0..j] over one denominator D, for j <= order.

    T[j][l] / D = l! S(j, l) step^(j-l): the coefficient of b_l in x^j for the
    basis b_l = (x)_(l,step) / l!, and [B^l x^j]_(x=0) for the base operator
    of that step (step 0 is the derivative kind, where only l = j is nonzero).
    """
    p, q = step.numerator, step.denominator
    return [[factorial(l) * stirling2(j, l) * p ** (j - l) * q ** (order - j + l)
             for l in range(j + 1)]
            for j in range(order + 1)], q ** order


def apply_base(kind: str, f: Poly, omega: Fraction | None = None) -> Poly:
    """Apply the base operator: f' or (f(x + omega) - f(x)) / omega."""
    if kind == DERIVATIVE:
        return f.derivative()
    if kind == DIFFERENCE:
        if omega is None or omega == 0:
            raise ValueError("difference operator needs a nonzero step omega")
        return (f.shift(omega) - f) * (Fraction(1) / Fraction(omega))
    raise ValueError(f"unknown base operator kind: {kind!r}")


class LoweringOp:
    """Operator series H*(B) with H*(0) = 0 and a nonzero linear term."""

    __slots__ = ("kind", "hstar", "omega")

    def __init__(self, kind: str, hstar: Series, omega: Fraction | None = None):
        if kind not in (DERIVATIVE, DIFFERENCE):
            raise ValueError(f"unknown base operator kind: {kind!r}")
        if kind == DIFFERENCE:
            if omega is None or Fraction(omega) == 0:
                raise ValueError("difference kind needs a nonzero step omega")
            omega = Fraction(omega)
        else:
            if omega is not None:
                raise ValueError("derivative kind takes no step")
        if hstar.coeffs[0] != 0:
            raise ValueError("hstar must have zero constant term")
        if hstar.order < 1 or hstar.coeffs[1] == 0:
            raise ValueError("hstar must have a nonzero linear coefficient")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "hstar", hstar)
        object.__setattr__(self, "omega", omega)

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
    the ones before it.  omega None is the derivative kind; a step omega
    gives the forward-difference kind of a family in Newton form.
    """
    if N < 1:
        raise ValueError("order must be at least 1")
    couple.validate()
    step = Fraction(0) if omega is None else Fraction(omega)
    sigma = Poly(couple.sigma).coeffs
    y = [Fraction(0)] * (N + 1)
    # rows[j][k] = [s^k] y^j, filled one column k at a time; row 1 is y itself
    rows = [None, y] + [[Fraction(0)] * N for _ in range(len(sigma) - 2)]
    for k in range(N):
        for j in range(2, len(sigma)):
            prev = rows[j - 1]
            rows[j][k] = sum(y[i] * prev[k - i] for i in range(1, k - j + 2))
        rhs = sum(sigma[j] * rows[j][k] for j in range(1, len(sigma)))
        if k == 0:
            rhs += sigma[0]
        y[k + 1] = (rhs - step * k * y[k]) / (k + 1)
    kind = DERIVATIVE if omega is None else DIFFERENCE
    return LoweringOp(kind=kind, hstar=Series(y), omega=omega)


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
    g = f
    for k in range(1, deg + 1):
        g = apply_base(op.kind, g, op.omega)
        if g.is_zero():
            break
        out = out + g * op.hstar.coeffs[k]
    return out


class FunctionalVector:
    """The d moment functionals of a couple, as their table of moments.

    moments[i][j] = <u_i, x^j> for j up to the order of the lowering
    operator; the functionals read nothing else.
    """

    __slots__ = ("lop", "d", "moments")

    def __init__(self, couple: CoupleSpec, lop: LoweringOp, d: int):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        y = lop.hstar
        order = y.order
        if d - 1 > order:
            raise ValueError(f"order {order} too small for d={d}")
        gamma_y = Series.constant(couple.gamma[-1], order)
        for c in reversed(couple.gamma[:-1]):
            gamma_y = gamma_y * y + c
        if lop.omega is not None:                 # divide by 1 + omega s
            gamma_y = gamma_y * Series([(-lop.omega) ** k for k in range(order + 1)])
        w = (-gamma_y.integrate()).exp()           # 1 / A(y), then y^i / A(y)
        table, dt = newton_table(lop.omega or Fraction(0), order)
        moments = []
        for i in range(d):
            if i:
                w = w * y
            ws, dw = scaled(w.coeffs)
            den = dw * dt * factorial(i)
            moments.append(tuple(Fraction(sum(map(mul, ws, row)), den) for row in table))
        object.__setattr__(self, "lop", lop)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "moments", tuple(moments))

    def __setattr__(self, name, value):
        raise AttributeError("FunctionalVector is immutable")

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
    if deg is None:
        return Fraction(0)
    if deg > v.order:
        raise ValueError(
            f"functional order {v.order} too small for polynomial degree {deg}"
        )
    return sum((c * mu for c, mu in zip(f.coeffs, v.moments[i])), Fraction(0))
