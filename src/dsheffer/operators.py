"""The lowering operator H*(D) and the moment table of the functionals built from it.

For a pair (A, H) the lowering operator is sigma = H*(D), where H* is the
compositional inverse of H; D strictly lowers degree, so an operator series
acts on polynomials as a finite sum.  A family stated in the Newton form
A(t) (1 + omega h(t))^(x/omega) has H = log(1 + omega h)/omega, and its
h*(Delta_omega) is the same operator on polynomials, since
Delta_omega = (e^(omega D) - 1)/omega; the functionals are the dual sequence
of {P_n}, so they are the same too.  Every source therefore gets H*(D), and
the forward difference of step omega is only the tests' Fraction oracle.

Everything here is built from the couple (gamma, sigma), through H' = 1/sigma
and A'/A = gamma/sigma.  The inverse y = H* solves the polynomial ODE

    y' = sigma(y),    y(0) = 0,

on integers: with R = den sigma, y_k = Y_k / (k! R^k) makes every Y_k an
integer and [s^k] y^j a binomial-weighted integer convolution, and y is
handed over as numerators over the one denominator N! R^N.  The functional
vector (u_0, ..., u_{d-1}) dual to the sequence is

    <u_i, f> = (1/i!) [ sigma^i / A(sigma) f(x) ]_{x=0}

and along y the same couple gives log A(y) = integral gamma(y), so each
operator series w = y^i / A(y) needs only products, an integral and exp.
gamma(y) itself costs no series product: the ODE's integer table of
[s^k] y^j, taken up to j = deg gamma, gives it as one dot product per
coefficient (the Horner evaluation it replaced is the tests' oracle).  One
solver returns both series: lowering_from_couple returns y, and
FunctionalVector(couple, order, d) keeps y as `hstar` and reads gamma(y)
off the same call, so its operator is the couple's own.  The operator is
its Series y alone, with y_0 = 0 (verify_lowering rejects any other).
A functional is fixed by its moments, and [D^l x^j]_{x=0} = j! [l = j], so

    mu_i(j) = <u_i, x^j> = w_j j! / i!,

one elementwise product per row.  Each row mu_i is kept as a Series
(FunctionalVector.rows), integer numerators over one denominator, and every
functional value is a dot product with one row.

`lowering_from_H` reverts a given H, and `apply_lowering` applies sigma by
repeated derivatives; neither is on the verify path.  They are the
independent routes the tests compare against.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import mul

from dsheffer.series import Poly, Series
from dsheffer.sheffer import CoupleSpec


def lowering_from_couple(couple: CoupleSpec, N: int) -> Series:
    """The couple's H* at truncation order N, the series of its lowering operator H*(D)."""
    return _solve_couple(couple, N)[0]


def _solve_couple(couple: CoupleSpec, N: int) -> tuple[Series, Series]:
    """y = H* and gamma(y) at truncation order N, from the couple alone.

    y = H* solves y' = sigma(y) with y(0) = 0.  Comparing the coefficients
    of s^k gives (k+1) y_(k+1) = [s^k] sigma(y), and [s^k] y^j only involves
    y_1..y_k, so each coefficient follows from the ones before it.  The
    recursion runs on integers, and y is handed over as integer numerators
    over one denominator (Series.of).  The same table of [s^k] y^j, taken up
    to j = deg gamma, gives gamma(y) as one integer dot product per
    coefficient, handed over the same way.
    """
    if N < 1:
        raise ValueError("order must be at least 1")
    couple.validate()
    sig, gam = Poly(couple.sigma), Poly(couple.gamma)
    # With R = den sigma and y_k = Y_k / (k! R^k), the numbers
    # Z_j[k] = k! R^k [s^k] y^j are integers with the binomial convolution
    # Z_j[k] = sum_i C(k, i) Y_i Z_(j-1)[k-i] (Z_1 = Y, Z_0[k] = [k = 0]), and
    # the ODE reads Y_(k+1) = sum_j R sigma_j Z_j[k], R sigma_j being sigma's numerators.
    R, s = sig.den, sig.nums
    Y = [0] * (N + 1)
    # Z[j][k] for j <= max(deg sigma, deg gamma), filled one column k at a time
    Z = [[1] + [0] * N, Y] + [[0] * (N + 1) for _ in range(max(len(s), len(gam.nums)) - 2)]
    for k in range(N + 1):
        by = [comb(k, i) * Y[i] for i in range(1, k + 1)]      # C(k, i) Y_i, i >= 1
        for j in range(2, len(Z)):
            Z[j][k] = sum(map(mul, by, reversed(Z[j - 1][:k])))
        if k < N:
            Y[k + 1] = sum(s[j] * Z[j][k] for j in range(1, len(s))) + (s[0] if k == 0 else 0)
    # k! R^k [s^k] gamma(y) = sum_j gamma_j Z_j[k], over den gamma
    G = [sum(map(mul, gam.nums, col)) for col in zip(*Z[:len(gam.nums)])]
    # y_k = Y_k (N!/k!) R^(N-k) / (N! R^N), and gamma(y)_k alike
    scale = 1
    for k in range(N, 0, -1):
        Y[k] *= scale
        G[k] *= scale
        scale *= k * R
    G[0] *= scale
    return Series.of(Y, scale), Series.of(G, scale * gam.den)


def lowering_from_H(H: Series, N: int | None = None) -> Series:
    """H* = the reversion of H at truncation order N."""
    if N is None:
        N = H.order
    return H.truncate(N).reversion()


def apply_lowering(hstar: Series, f: Poly) -> Poly:
    """Apply sigma = H*(D) to a polynomial: sum_k y_k D^k f, finite since D lowers degree."""
    deg = f.degree()
    if deg is None:
        return Poly.zero()
    if hstar.order < deg:
        raise ValueError(
            f"operator order {hstar.order} too small for degree {deg}"
        )
    out = Poly.zero()
    g, ys = f, hstar.coeffs
    for k in range(1, deg + 1):
        g = g.derivative()
        out = out + g * ys[k]
    return out


class FunctionalVector:
    """The d moment functionals of a couple, as their table of moments.

    The couple's ODE is solved here at the given order, and `hstar` keeps
    the series y = H* it gives (equal to lowering_from_couple at that
    order); gamma(y) comes off the same solution.  rows[i] is the Series
    of moments <u_i, x^j> for j <= order, as integer numerators over one
    denominator, the form that dorth's checks read; the functionals read
    nothing else.  moments[i][j] is the same table as Fractions.
    """

    __slots__ = ("hstar", "d", "rows")

    def __init__(self, couple: CoupleSpec, order: int, d: int):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if d - 1 > order:
            raise ValueError(f"order {order} too small for d={d}")
        y, gamma_y = _solve_couple(couple, order)
        w = (-gamma_y.integrate()).exp()           # 1 / A(y), then y^i / A(y)
        facts = [factorial(j) for j in range(order + 1)]
        rows = []
        for i in range(d):
            if i:
                w = w * y
            # mu_i(j) = w_j j! / i!
            rows.append(Series.of(list(map(mul, w.nums, facts)), w.den * factorial(i)))
        object.__setattr__(self, "hstar", y)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "rows", tuple(rows))

    def __setattr__(self, name, value):
        raise AttributeError("FunctionalVector is immutable")

    @property
    def moments(self) -> tuple[tuple[Fraction, ...], ...]:
        return tuple(row.coeffs for row in self.rows)

    @property
    def order(self) -> int:
        return self.hstar.order

    def __repr__(self) -> str:
        return f"FunctionalVector(d={self.d}, order={self.order})"


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
