"""High-precision partial sums of the Meixner-type node series (test helper).

The exact evaluator in `dsheffer.catalog` collapses the node series with a
Stirling transform; this helper sums the series itself in `mpmath`, so the
tests can compare the two independently.  Only the tests need `mpmath`.
"""

from fractions import Fraction
from math import comb, factorial

from mpmath import mp, mpf

from dsheffer.catalog import _meixner_gates
from dsheffer.series import Poly


def _to_mpf(x: Fraction):
    return mpf(x.numerator) / mpf(x.denominator)


def _at(coeffs, x: Fraction) -> Fraction:
    # the polynomial with these coefficients, lowest degree first, at x (Horner)
    out = Fraction(0)
    for c in reversed(coeffs):
        out = out * x + c
    return out


def meixner_functional_numeric(d: int, c: Fraction, beta: Fraction,
                               r: int, f: Poly, dps: int = 40):
    """High-precision <u_r, f> for the Meixner-type family, summed verbatim.

    Partial sums of the defining node series, cut off once the term ratio is
    provably below q = (1+|w|)/2 and the geometric tail bound drops under the
    working tolerance.  Returns an mpmath float.
    """
    c = Fraction(c)
    beta = Fraction(beta)
    w = _meixner_gates(d, c, r)
    deg = f.degree()
    if deg is None:
        return mpf(0)
    fs = f.coeffs
    abs_fs = tuple(abs(fc) for fc in fs)
    with mp.workdps(dps):
        z = _to_mpf(d * c / (1 - c))
        big_m = _to_mpf(1 - d * c / (c - 1))
        w_abs = abs(_to_mpf(w))
        q = (1 + w_abs) / 2
        tol = mpf(10) ** (-(dps - 8))
        total = mpf(0)
        for i in range(r + 1):
            b = beta + Fraction(i, d)
            b_mp = _to_mpf(b)
            base = mp.power(big_m, -b_mp)   # (b)_j z^j / (M^(b+j) j!) at j = 0
            inner = mpf(0)
            j = 0
            while True:
                inner += base * _to_mpf(_at(fs, Fraction(j)))
                nxt = base * (b_mp + j) * z / (big_m * (j + 1))
                ratio_bound = (w_abs * (1 + (abs(b_mp) + 1) / (j + 1))
                               * ((j + 2) / (j + 1)) ** deg)
                tail_bound = abs(nxt) * _to_mpf(_at(abs_fs, Fraction(j + 1))) / (1 - q)
                if j > deg and ratio_bound <= q and tail_bound < tol * (1 + abs(inner)):
                    break
                base = nxt
                j += 1
                if j > 100000:  # pragma: no cover
                    raise RuntimeError("node series failed to converge numerically")
            total += comb(r, i) * (-1) ** i * inner
        return total / factorial(r)
