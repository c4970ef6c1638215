"""Meixner's classes: the moments of u_0 in closed form for a d = 1 couple.

At d = 1 the sets of Theorem 2.2 are Meixner's orthogonal Sheffer classes
(Meixner, J. London Math. Soc. 9, 1934).  The functional u_0 is a formal
distribution whose moment generating function is

    sum_m <u_0, x^m> s^m / m! = 1/A(y(s)) = exp(-integral_0^s gamma(y)),

with y' = sigma(y), y(0) = 0, the ODE that `operators._solve_couple` solves.
With gamma = g0 + g1 t and sigma = s0 + s1 t + s2 t^2, u_0 is the law of
X = a + b Y for one of four classical variables Y (formally: a variance,
rate or shape may be negative, and a moment is a polynomial in them):

* s1 = s2 = 0 (Hermite): Y is Gaussian with mean 0 and variance -g1 s0, and
  a = -g0, b = 1;
* s2 = 0 != s1 (Charlier): Y is Poisson(lambda), lambda = -g1 s0/s1^2, with
  a = g1 s0/s1 - g0 and b = s1; E Y^k = sum_i S(k, i) lambda^i;
* a double root r = -s1/(2 s2) (Laguerre): Y is Gamma(kappa), kappa =
  -g1/s2, with a = -g0 - g1 r and b = -r s2; E Y^k = (kappa)_k;
* distinct roots r1, r2 (Meixner): Y is Pascal(kappa, q), q = r1/r2, with
  a = -g0 - g1 r1 and b = s2 (r1 - r2); E Y^k = sum_i S(k, i) (kappa)_i
  (q/(1 - q))^i.  Either root may be r1.

Then <u_0, x^m> = E X^m = sum_k C(m, k) a^(m-k) b^k E Y^k.  Only the
rational cases are here: sigma of degree < 2, or a discriminant
s1^2 - 4 s0 s2 that is the square of a rational.  Irrational and complex
roots (the Meixner-Pollaczek class among them) would need Q(sqrt D).

The module imports only `fractions` and `math`, and reads the couple's
`gamma` and `sigma` as the Fractions they are, so it shares no arithmetic
with the package (none of `exactnum.scaled`, the integer kernels or the
ODE solver).  `tests/theorem.py` compares it with `FunctionalVector`'s row
0; the background is Chihara, An Introduction to Orthogonal Polynomials
(1978), and Schoutens, Stochastic Processes and Orthogonal Polynomials
(2000).
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, isqrt

GAUSSIAN, POISSON, GAMMA, PASCAL = "gaussian", "poisson", "gamma", "pascal"


def _rational_sqrt(value: Fraction) -> Fraction | None:
    """The nonnegative square root of value when it is rational, else None."""
    if value < 0:
        return None
    p, q = isqrt(value.numerator), isqrt(value.denominator)
    return Fraction(p, q) if p * p == value.numerator and q * q == value.denominator else None


def _stirling2_rows(top: int) -> list[list[int]]:
    """S(k, 0..k) for k = 0..top, by S(k, i) = i S(k-1, i) + S(k-1, i-1)."""
    rows = [[1]]
    for k in range(1, top + 1):
        prev = rows[-1] + [0]
        rows.append([0] + [i * prev[i] + prev[i - 1] for i in range(1, k + 1)])
    return rows


def classify(couple, first_root: int = 0):
    """(name, a, b, parameter list) of the couple's class, or None for irrational or complex roots.

    The couple must have d = 1.  first_root picks which of two distinct
    roots is r1 (0 or 1); it changes the Pascal parameters, not the moments.
    """
    if couple.d != 1:
        raise ValueError(f"Meixner's classes are the d = 1 sets, not d = {couple.d}")
    g0, g1 = couple.gamma
    s0, s1, s2 = couple.sigma
    if s2 == 0 and s1 == 0:
        return GAUSSIAN, -g0, Fraction(1), [-g1 * s0]
    if s2 == 0:
        return POISSON, g1 * s0 / s1 - g0, s1, [-g1 * s0 / s1 ** 2]
    root = _rational_sqrt(s1 * s1 - 4 * s0 * s2)
    if root is None:
        return None
    kappa = -g1 / s2
    if root == 0:
        r = -s1 / (2 * s2)
        return GAMMA, -g0 - g1 * r, -r * s2, [kappa]
    r1, r2 = ((-s1 + sign * root) / (2 * s2) for sign in ((1, -1) if first_root == 0 else (-1, 1)))
    q = r1 / r2
    return PASCAL, -g0 - g1 * r1, s2 * (r1 - r2), [kappa, q]


def _raw_moments(name: str, params: list, top: int) -> list[Fraction]:
    """E Y^k for k = 0..top."""
    if name == GAUSSIAN:
        (var,) = params
        out, even = [], Fraction(1)            # even = (k - 1)!! var^(k/2)
        for k in range(top + 1):
            if k % 2:
                out.append(Fraction(0))
            else:
                out.append(even)
                even *= (k + 1) * var
        return out
    if name == GAMMA:
        (kappa,) = params
        out, rising = [], Fraction(1)          # rising = (kappa)_k
        for k in range(top + 1):
            out.append(rising)
            rising *= kappa + k
        return out
    if name == POISSON:
        (lam,) = params
        weights = [lam ** i for i in range(top + 1)]
    else:
        kappa, q = params
        z, weights, w = q / (1 - q), [], Fraction(1)   # w = (kappa)_i z^i
        for i in range(top + 1):
            weights.append(w)
            w *= (kappa + i) * z
    return [sum((s * w for s, w in zip(row, weights)), Fraction(0))
            for row in _stirling2_rows(top)]


def moments(couple, top: int, first_root: int = 0) -> list[Fraction] | None:
    """<u_0, x^m> = E (a + b Y)^m for m = 0..top from the couple's class, or None outside it."""
    found = classify(couple, first_root)
    if found is None:
        return None
    name, a, b, params = found
    ey = _raw_moments(name, params, top)
    return [sum((comb(m, k) * a ** (m - k) * b ** k * ey[k] for k in range(m + 1)), Fraction(0))
            for m in range(top + 1)]
