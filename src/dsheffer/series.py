"""Dense rational polynomials and truncated formal power series.

`Poly` is a dense univariate polynomial over Fraction, lowest degree first,
trailing zeros trimmed (the zero polynomial has no coefficients and degree
None).  `Series` is a formal power series over Fraction, truncated at a
fixed inclusive order N; every operation is exact modulo t^(N+1), and
operations that would need unknown coefficients beyond the truncation shrink
the order instead of guessing.

A series product runs over one common denominator: each factor is written
as integer numerators over the least common denominator of its
coefficients (`exactnum.scaled`), the Cauchy product is an integer
convolution, and each output coefficient is normalized to a Fraction once,
with one gcd, instead of once per multiply-add.  `pair_from_couple`, the
catalog's closed forms and the functionals' series all go through it; the
generating-function expansion needs none of it, since
`sheffer.expand_polynomials` convolves its integer columns A H^k itself.
The recursions of `invert_mul`
(s (1/s) = 1), `exp` (E' = s'E) and `log` (s' = L's) run the same way,
except that their outputs feed the next convolution: they are held as
integer numerators over a running common denominator, extended by lcm as
each coefficient lands, so only the denominators the result needs ever
appear (`_recursion`).  `pow_rat` is log, a scalar product and exp.

`Poly.pretty` and `Poly.latex` print each coefficient from its integer
numerator and denominator; no Fraction is compared or negated.

Composition and reversion are the tests' independent reference route; the
verifier builds H* and the functionals from the couple instead (see
`operators`).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from operator import mul
from typing import Iterable, Sequence

from dsheffer.exactnum import exact, scaled


class Poly:
    """Univariate polynomial over Fraction, dense, immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = [exact(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def zero(cls) -> "Poly":
        return cls()

    @classmethod
    def one(cls) -> "Poly":
        return cls((1,))

    @classmethod
    def x(cls) -> "Poly":
        return cls((0, 1))

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        return cls((0,) * k + (c,))

    def degree(self) -> int | None:
        # degree of the zero polynomial is None, not -1 or -inf
        return len(self.coeffs) - 1 if self.coeffs else None

    def coeff(self, k: int) -> Fraction:
        return self.coeffs[k] if 0 <= k < len(self.coeffs) else Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self.coeffs:
            raise ValueError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == Poly((other,)).coeffs
        return NotImplemented

    def __hash__(self):
        return hash(("Poly", self.coeffs))

    def __neg__(self) -> "Poly":
        return Poly(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return Poly(out)

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Poly":
        return (-self) + other

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            if other == 0:
                return Poly()
            return Poly(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Poly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return Poly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self * (Fraction(1) / Fraction(other))
        return NotImplemented

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("Poly powers must be nonnegative integers")
        out = Poly.one()
        for _ in range(n):
            out = out * self
        return out

    def __call__(self, value):
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * value + c
        return out

    def derivative(self) -> "Poly":
        return Poly(tuple(k * c for k, c in enumerate(self.coeffs) if k))

    def shift(self, omega) -> "Poly":
        """Return the polynomial x -> self(x + omega)."""
        base = Poly((omega, 1))
        out = Poly()
        for c in reversed(self.coeffs):
            out = out * base + Poly((c,))
        return out

    def _text(self, term) -> str:
        """The nonzero terms, top degree first, as term(k, |p|, q) with their signs.

        Each coefficient p/q is read as its integer numerator and
        denominator, so printing makes no Fraction operation.
        """
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
            p = c.numerator
            if p:
                body = term(k, -p if p < 0 else p, c.denominator)
                if parts:
                    parts.append(f"- {body}" if p < 0 else f"+ {body}")
                else:
                    parts.append(f"-{body}" if p < 0 else body)
        return " ".join(parts) if parts else "0"

    def pretty(self, var: str = "x") -> str:
        def term(k, mag, den):
            mag_s = str(mag) if den == 1 else f"{mag}/{den}"
            if k == 0:
                return mag_s
            xk = var if k == 1 else f"{var}^{k}"
            return xk if mag == den == 1 else f"{mag_s}*{xk}"
        return self._text(term)

    def latex(self, var: str = "x") -> str:
        def term(k, mag, den):
            mag_s = str(mag) if den == 1 else f"\\frac{{{mag}}}{{{den}}}"
            if k == 0:
                return mag_s
            xk = var if k == 1 else f"{var}^{{{k}}}"
            return xk if mag == den == 1 else f"{mag_s} {xk}"
        return self._text(term)

    def __repr__(self) -> str:
        return f"Poly({self.pretty()})"


class Series:
    """Power series truncated at an inclusive order (length = order + 1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = tuple(exact(c) for c in coeffs)
        if not cs:
            raise ValueError("a series needs at least its constant term")
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Series is immutable")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, c, order: int) -> "Series":
        return cls((exact(c),) + (Fraction(0),) * order)

    @classmethod
    def identity(cls, order: int) -> "Series":
        # the series t
        return cls.monomial(1, order)

    @classmethod
    def monomial(cls, k: int, order: int, c=1) -> "Series":
        if not 0 <= k <= order:
            raise ValueError(f"monomial degree {k} outside order {order}")
        out = [Fraction(0)] * (order + 1)
        out[k] = c
        return cls(out)

    @classmethod
    def from_poly(cls, p: Poly, order: int) -> "Series":
        """Inject a polynomial in t, truncating or zero-padding to `order`."""
        out = list(p.coeffs[: order + 1])
        out.extend([Fraction(0)] * (order + 1 - len(out)))
        return cls(out)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(f"cannot truncate order {self.order} up to {order}")
        return Series(self.coeffs[: order + 1])

    def constant_term(self) -> Fraction:
        return self.coeffs[0]

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)!r})"

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} != {other.order}")

    def __neg__(self) -> "Series":
        return Series(tuple(-c for c in self.coeffs))

    def __add__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            out = list(self.coeffs)
            out[0] = out[0] + other
            return Series(out)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    __radd__ = __add__

    def __sub__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return self + (-Fraction(other))
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series(tuple(a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __rsub__(self, other) -> "Series":
        return (-self) + other

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return Series(tuple(c * other for c in self.coeffs))
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        a, da = scaled(self.coeffs)
        b, db = scaled(other.coeffs)
        rb = b[::-1]                            # rb[n - k:] = b_k, ..., b_0
        n, D = self.order, da * db
        return Series([Fraction(sum(map(mul, a[:k + 1], rb[n - k:])), D)
                       for k in range(n + 1)])

    __rmul__ = __mul__

    def differentiate(self) -> "Series":
        """Formal d/dt; the result order drops by one (top coeff unknown)."""
        if self.order == 0:
            return Series((Fraction(0),))
        return Series(tuple((k + 1) * self.coeffs[k + 1] for k in range(self.order)))

    def integrate(self) -> "Series":
        """Formal integral from 0; same order, the top input coefficient drops."""
        out = [Fraction(0)]
        for k in range(self.order):
            out.append(self.coeffs[k] * Fraction(1, k + 1))
        return Series(out)

    def invert_mul(self) -> "Series":
        """Multiplicative inverse; requires an invertible constant term."""
        c0 = self.coeffs[0]
        if c0 == 0:
            raise ValueError("series with zero constant term has no multiplicative inverse")
        # s (1/s) = 1: b_n = -(1/a_0) sum_(k>=1) a_k b_(n-k); the scale of a cancels
        a, _ = scaled(self.coeffs)
        return Series(_recursion(1 / c0, a, lambda n, acc, R: (-acc, a[0] * R)))

    def exp(self) -> "Series":
        """exp of a series with zero constant term, via E' = s' E."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        # n E_n = sum_(k>=1) k s_k E_(n-k)
        a, da = scaled(self.coeffs)
        ka = [k * c for k, c in enumerate(a)]
        return Series(_recursion(Fraction(1), ka, lambda n, acc, R: (acc, n * da * R)))

    def log(self) -> "Series":
        """log of a series with constant term 1, via s' = L' s."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        # n L_n = n s_n - sum_(1<=k<n) k L_k s_(n-k), where s_0 = a_0 / da = 1
        a, da = scaled(self.coeffs)
        return Series(_recursion(Fraction(0), a,
                                 lambda n, acc, R: (n * R * a[n] - acc, n * R * da),
                                 index_weighted=True))

    def pow_rat(self, r) -> "Series":
        """Raise a series with constant term 1 to a rational power."""
        return (self.log() * exact(r)).exp()

    def compose(self, inner: "Series") -> "Series":
        """self(inner(t)); inner must have zero constant term (exactness)."""
        self._check_order(inner)
        if inner.coeffs[0] != 0:
            raise ValueError("composition needs an inner series with zero constant term")
        n = self.order
        out = Series.constant(self.coeffs[n], n)
        for k in range(n - 1, -1, -1):
            out = out * inner
            out = Series((out.coeffs[0] + self.coeffs[k],) + out.coeffs[1:])
        return out

    def _differentiate_padded(self) -> "Series":
        # Derivative padded back to full order with a zero top coefficient.
        # The pad is wrong in general but only pollutes orders > N after a
        # composition with a zero-constant inner series, which Newton's
        # iteration below never reads.
        d = self.differentiate()
        return Series(d.coeffs + (Fraction(0),))

    def reversion(self) -> "Series":
        """Compositional inverse g with self(g(t)) = t (mod t^(N+1)).

        Newton iteration on the composition equation, doubling the number of
        correct coefficients each round; needs coeffs[0] = 0, coeffs[1] != 0.
        """
        if self.coeffs[0] != 0:
            raise ValueError("reversion needs a zero constant term")
        if self.order < 1 or self.coeffs[1] == 0:
            raise ValueError("reversion needs a nonzero linear coefficient")
        n = self.order
        c1 = self.coeffs[1]
        g = Series.monomial(1, n, Fraction(1) / c1)
        ident = Series.identity(n)
        deriv = self._differentiate_padded()
        prec = 2
        while prec < n + 1:
            err = self.compose(g) - ident
            g = g - err * deriv.compose(g).invert_mul()
            prec *= 2
        return g


def _recursion(first: Fraction, w: list[int], coefficient, index_weighted=False) -> list[Fraction]:
    """c_0 = first, then c_n = num / den for n = 1 .. len(w) - 1.

    The c_i are held as integer numerators X_i over a running common
    denominator R, extended by lcm as each coefficient lands, and
    (num, den) = coefficient(n, acc, R) with the integer convolution
    acc = sum_(i<n) X_i w_(n-i) (i X_i in place of X_i when index_weighted).
    Each c_n is normalized once, as it lands.
    """
    out, xs, R = [first], [first.numerator], first.denominator
    rw = w[::-1]                            # rw[top - n:] = w_n, ..., w_0
    top = len(w) - 1
    for n in range(1, top + 1):
        c = Fraction(*coefficient(n, sum(map(mul, xs, rw[top - n:])), R))
        out.append(c)
        q = c.denominator
        if R % q:
            grow = q // gcd(R, q)
            R *= grow
            xs = [x * grow for x in xs]
        xs.append(c.numerator * (R // q) * (n if index_weighted else 1))
    return out
