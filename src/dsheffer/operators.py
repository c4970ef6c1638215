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

and, since d/ds log A(y) = gamma(y), w = 1/A(y) solves w' = -gamma(y) w
with w(0) = 1.  The functional vector (u_0, ..., u_{d-1}) dual to the
sequence is

    <u_i, f> = (1/i!) [ sigma^i / A(sigma) f(x) ]_{x=0},

and a functional is fixed by its moments: [D^l x^j]_{x=0} = j! [l = j], so

    mu_i(j) = <u_i, x^j> = (j!/i!) [s^j] y^i w.

One solver gives y and the rows mu_i on integers, in one scale: with
R = den sigma, Dg = den gamma and S = R Dg, the numbers k! R^k [s^k] y^j,
k! S^k w_k and i! S^j mu_i(j) are integers, each a binomial convolution of
the ones before, and gamma(y) is a dot product per column of that table.
y and each row are handed over once, over N! R^N and i! S^N (the Series
route it replaced, gamma(y) by Horner's rule, an integral, exp and
products by y, is the tests' oracle).  FunctionalVector(couple, order, d)
is the solver's one caller and keeps y as `hstar` next to the rows, so
its operator is the couple's own: the Series y, with y_0 = 0
(verify_lowering rejects any other).  Every functional value is a dot
product with one row.

`lowering_from_H` reverts a given H at H's own order by Lagrange
inversion (`Series.reversion`, on the integer kernels of `series`), and
`apply_lowering` applies sigma by repeated derivatives; neither is on the
verify path.  They are the independent routes the tests compare against,
and with `functional_eval` they are read from this module, not from the
package's top level.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from operator import mul

from dsheffer.series import Poly, Series
from dsheffer.sheffer import CoupleSpec


def _solve_couple(couple: CoupleSpec, N: int, d: int) -> tuple[Series, tuple[Series, ...]]:
    """y = H* and the moment rows mu_0 .. mu_(d-1) at truncation order N, from the couple alone.

    (k+1) y_(k+1) = [s^k] sigma(y) and (k+1) w_(k+1) = -[s^k] gamma(y) w,
    and [s^k] y^j needs only y_1..y_k, so each coefficient follows from the
    ones before it; mu_i(j) = (j!/i!) [s^j] y^i w.
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
    # Z[j][k] for j <= max(deg sigma, deg gamma, d - 1), filled one column k at a time
    Z = [[1] + [0] * N, Y] + [[0] * (N + 1) for _ in range(max(len(s), len(gam.nums), d) - 2)]
    for k in range(N + 1):
        by = [comb(k, i) * Y[i] for i in range(1, k + 1)]      # C(k, i) Y_i, i >= 1
        for j in range(2, len(Z)):
            Z[j][k] = sum(map(mul, by, reversed(Z[j - 1][:k])))
        if k < N:
            Y[k + 1] = sum(s[j] * Z[j][k] for j in range(1, len(s))) + (s[0] if k == 0 else 0)
    # y_k = Y_k (N!/k!) R^(N-k) / (N! R^N)
    ys, scale = [0] * (N + 1), 1
    for k in range(N, 0, -1):
        ys[k] = Y[k] * scale
        scale *= k * R
    # With Dg = den gamma and S = R Dg, G_k = sum_j gamma_j Z_j[k] and W_k = k! S^k w_k
    # are integers, and W_(k+1) = -R sum_i C(k, i) Dg^i G_i W_(k-i).
    Dg, S = gam.den, R * gam.den
    pw = [Dg ** k for k in range(N + 1)]
    DG = [p * sum(map(mul, gam.nums, col)) for p, col in zip(pw, zip(*Z[:len(gam.nums)]))]
    W, cw = [1], [[1]]                  # cw[k][i] = C(k, i) W_(k-i)
    for k in range(1, N + 1):
        W.append(-R * sum(map(mul, DG, cw[-1])))
        cw.append([comb(k, i) * w for i, w in enumerate(reversed(W))])
    # i! S^j mu_i(j) = sum_l C(j, l) Dg^l Z_i[l] W_(j-l), times S^(N-j) over i! S^N
    rows = []
    for i in range(d):
        zi = list(map(mul, pw, Z[i]))
        rows.append(Series.of([sum(map(mul, zi, c)) * S ** (N - j) for j, c in enumerate(cw)],
                              factorial(i) * S ** N))
    return Series.of(ys, scale), tuple(rows)


def lowering_from_H(H: Series) -> Series:
    """H* = the reversion of H, at H's own truncation order."""
    return H.reversion()


def apply_lowering(hstar: Series, f: Poly) -> Poly:
    """Apply sigma = H*(D) to a polynomial: sum_k y_k D^k f, finite since D lowers degree."""
    deg = f.degree()
    if deg is None:
        return f
    if hstar.order < deg:
        raise ValueError(
            f"operator order {hstar.order} too small for degree {deg}"
        )
    out = Poly.of((), 1)
    g, ys = f, hstar.coeffs
    for k in range(1, deg + 1):
        g = g.derivative()
        out = out + g * ys[k]
    return out


class FunctionalVector:
    """The d moment functionals of a couple, as their table of moments.

    The couple's ODE is solved here at the given order, and `hstar` keeps
    the series y = H* it gives, the couple's lowering operator at that
    order; the moment rows come off the same solution.  rows[i] is the
    Series of moments <u_i, x^j> for j <= order, as integer numerators over
    one denominator, the form that dorth's checks read; the functionals read
    nothing else.
    """

    __slots__ = ("hstar", "d", "rows")

    def __init__(self, couple: CoupleSpec, order: int, d: int):
        if d < 1:
            raise ValueError(f"d must be >= 1, got {d}")
        if d - 1 > order:
            raise ValueError(f"order {order} too small for d={d}")
        y, rows = _solve_couple(couple, order, d)
        object.__setattr__(self, "hstar", y)
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "rows", rows)

    def __setattr__(self, name, value):
        raise AttributeError("FunctionalVector is immutable")

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
