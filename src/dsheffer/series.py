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
with one gcd, instead of once per multiply-add.  The generating-function
expansion, `pair_from_couple`, the catalog's closed forms and the
functionals' series all go through it.  The recursions of `invert_mul`,
`exp` and `log` still work term by term in Fraction.

Composition and reversion are the tests' independent reference route; the
verifier builds H* and the functionals from the couple instead (see
`operators`).
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from dsheffer.exactnum import scaled


def _coerce(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("float coefficients are not exact; use Fraction")
    return Fraction(value)


class Poly:
    """Univariate polynomial over Fraction, dense, immutable."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable = ()):
        cs = []
        for c in coeffs:
            if isinstance(c, float):
                raise TypeError("float coefficients are not exact; use Fraction")
            cs.append(c if isinstance(c, Fraction) else Fraction(c))
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

    def pretty(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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

    def latex(self, var: str = "x") -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for k in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[k]
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

    def __repr__(self) -> str:
        return f"Poly({self.pretty()})"


class Series:
    """Power series truncated at an inclusive order (length = order + 1)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence):
        cs = tuple(_coerce(c) for c in coeffs)
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
        return cls((_coerce(c),) + (Fraction(0),) * order)

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
        inv0 = Fraction(1) / c0
        out = [inv0]
        for n in range(1, self.order + 1):
            acc = self.coeffs[1] * out[n - 1]
            for k in range(2, n + 1):
                acc = acc + self.coeffs[k] * out[n - k]
            out.append(-inv0 * acc)
        return Series(out)

    def exp(self) -> "Series":
        """exp of a series with zero constant term, via E' = s' E."""
        if self.coeffs[0] != 0:
            raise ValueError("exp needs a zero constant term")
        out = [Fraction(1)]
        for n in range(1, self.order + 1):
            acc = self.coeffs[1] * out[n - 1]
            for k in range(2, n + 1):
                acc = acc + (k * self.coeffs[k]) * out[n - k]
            out.append(acc * Fraction(1, n))
        return Series(out)

    def log(self) -> "Series":
        """log of a series with constant term 1, via s' = L' s."""
        if self.coeffs[0] != 1:
            raise ValueError("log needs constant term 1")
        out = [Fraction(0)]
        for n in range(1, self.order + 1):
            acc = Fraction(0)
            for k in range(1, n):
                acc = acc + (k * out[k]) * self.coeffs[n - k]
            out.append(self.coeffs[n] - acc * Fraction(1, n))
        return Series(out)

    def pow_rat(self, r) -> "Series":
        """Raise a series with constant term 1 to a rational power."""
        r = Fraction(r)
        return (self.log() * r).exp()

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
