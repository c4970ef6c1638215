"""Dense rational polynomials and truncated formal power series.

`Poly` is a dense univariate polynomial over the rationals, lowest degree
first, trailing zeros trimmed (the zero polynomial has no coefficients and
degree None).  `Series` is a formal power series, truncated at a fixed
inclusive order N; every operation is exact modulo t^(N+1), and operations
that would need unknown coefficients beyond the truncation shrink the order
instead of guessing.

Both store one exact vector form and nothing else: integer numerators
`nums` over one denominator `den` > 0 with gcd(den, *nums) = 1, the
content/primitive-part form of a polynomial over Q, so equal values are
stored alike and comparison is integer comparison.  The public
constructors `Poly(coeffs)` and `Series(coeffs)` read their values through
`exactnum.exact` and scale them once (`exactnum.scaled`), and the kernels
hand their integer results to `of(nums, den)`; both end in one store step,
which trims a Poly's trailing zeros and reduces by one content gcd.  The
given `Fraction`s are not kept: `.coeffs` is built on each read, so a
caller that needs the tuple reads it once.

A product is an integer convolution of the two numerator vectors over the
product of their denominators (`_convolve`), at full length for a Poly and
truncated at the order for a Series; `sheffer.expand_polynomials` builds
its columns A H^k on the same kernel.  Every other operation is one
recurrence sum_j (a_j + n b_j) c_(n-j) = r_n on integer vectors, solved by
one kernel (`_recurrence`) over a running lcm denominator; a first-order ODE
p f' = q f + r reaches it through `_first_order`.  `invert_mul` solves
s (1/s) = 1, and the generating pairs of `sheffer` and `catalog` solve their
own ODEs.  No product path needs an integral, exp, log or rational power of
a series, so those live with the tests' reference routes, on these kernels.

`Poly.coeff_strings` puts each nums[i] / den in lowest terms by one gcd
(`exactnum.ratio_strings`) and makes no Fraction.  `poly_text` and
`poly_latex` print such a list of strings as a signed sum through one
walker; `Poly.pretty` is `poly_text` over `coeff_strings()`.
A Poly keeps no strings: a caller that prints one polynomial twice
(`cli.cmd_expand`) reduces it once and passes the list to both printers.

Composition and reversion are the tests' independent reference route; the
verifier builds H* and the functionals from the couple instead (see
`operators`).
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub

from dsheffer.exactnum import content_reduced, exact, ratio_strings, scaled

_set = object.__setattr__


class _Vector:
    """The stored form of Poly and Series: coefficient i is nums[i] / den.

    nums is a tuple of ints and den an int > 0 with gcd(den, *nums) = 1, so
    the form is canonical and equality is equality of (nums, den).
    """

    __slots__ = ("nums", "den")
    _trims = False

    def __init__(self, coeffs: Iterable = ()):
        self._store(*scaled([exact(c) for c in coeffs]))

    @classmethod
    def of(cls, nums: Iterable[int], den: int):
        """Coefficients nums[i] / den for any nonzero int den; nothing goes through exact()."""
        out = object.__new__(cls)
        out._store(nums, den)
        return out

    def _store(self, nums: Iterable[int], den: int):
        # a Poly drops its trailing zeros, then one content gcd reduces the
        # form (a negative den moves its sign to the numerators)
        nums = list(nums)
        if self._trims:
            while nums and not nums[-1]:
                nums.pop()
        nums, den = content_reduced(nums, den)
        _set(self, "nums", nums)
        _set(self, "den", den)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The coefficients as Fractions, built on each read."""
        den = self.den
        return tuple(Fraction(v, den) for v in self.nums)

    def _same_form(self, other) -> bool:
        return self.den == other.den and self.nums == other.nums

    def _plus(self, other):
        # self + other over lcm(den, other.den); the shorter vector is padded
        L = lcm(self.den, other.den)
        a = [v * (L // self.den) for v in self.nums]
        b = [v * (L // other.den) for v in other.nums]
        if len(a) < len(b):
            a, b = b, a
        a[:len(b)] = map(add, a, b)
        return type(self).of(a, L)

    def _scaled_by(self, c):
        return type(self).of([v * c.numerator for v in self.nums], self.den * c.denominator)

    def __neg__(self):
        return type(self).of([-v for v in self.nums], self.den)

    def __sub__(self, other):
        if not isinstance(other, (type(self), int, Fraction)):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other


class Poly(_Vector):
    """Univariate polynomial over the rationals, dense, immutable."""

    __slots__ = ()
    _trims = True

    @classmethod
    def zero(cls) -> "Poly":
        return cls.of((), 1)

    @classmethod
    def one(cls) -> "Poly":
        return cls.of((1,), 1)

    def degree(self) -> int | None:
        # degree of the zero polynomial is None, not -1 or -inf
        return len(self.nums) - 1 if self.nums else None

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self._same_form(other)

    def __hash__(self):
        # a constant hashes like the Fraction it equals, the zero polynomial like 0
        if len(self.nums) < 2:
            return hash(Fraction(sum(self.nums), self.den))
        return hash(("Poly", self.nums, self.den))

    def __add__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly((other,))
        if not isinstance(other, Poly):
            return NotImplemented
        return self._plus(other)

    __radd__ = __add__

    def __mul__(self, other) -> "Poly":
        if isinstance(other, (int, Fraction)):
            return self._scaled_by(other)
        if not isinstance(other, Poly):
            return NotImplemented
        a, b = self.nums, other.nums
        return Poly.of(_convolve(a, b, len(a) + len(b) - 1), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Poly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("Poly powers must be nonnegative integers")
        out = Poly.one()
        for _ in range(n):
            out = out * self
        return out

    def derivative(self) -> "Poly":
        return Poly.of([k * v for k, v in enumerate(self.nums) if k], self.den)

    def shift(self, omega) -> "Poly":
        """Return the polynomial x -> self(x + omega)."""
        base = Poly((omega, 1))
        out = Poly()
        for c in reversed(self.coeffs):
            out = out * base + Poly((c,))
        return out

    def coeff_strings(self) -> list[str]:
        """Each coefficient as str(Fraction) prints it: "p" or "p/q", in lowest terms."""
        return ratio_strings(self.nums, self.den)

    def pretty(self) -> str:
        """The nonzero terms, top degree first, as "-2*x^2 + 1/2" (see poly_text)."""
        return poly_text(self.coeff_strings())

    def __repr__(self) -> str:
        return f"Poly({self.pretty()})"


class Series(_Vector):
    """Power series truncated at an inclusive order (length = order + 1)."""

    __slots__ = ()

    def __init__(self, coeffs: Sequence):
        super().__init__(coeffs)
        if not self.nums:
            raise ValueError("a series needs at least its constant term")

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @classmethod
    def constant(cls, c, order: int) -> "Series":
        return cls((exact(c),) + (Fraction(0),) * order)

    @classmethod
    def monomial(cls, k: int, order: int, c=1) -> "Series":
        if not 0 <= k <= order:
            raise ValueError(f"monomial degree {k} outside order {order}")
        out = [Fraction(0)] * (order + 1)
        out[k] = c
        return cls(out)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(f"cannot truncate order {self.order} up to {order}")
        return Series.of(self.nums[:order + 1], self.den)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Series):
            return NotImplemented
        return self._same_form(other)

    def __repr__(self) -> str:
        return f"Series({list(self.coeffs)!r})"

    def _check_order(self, other: "Series"):
        if self.order != other.order:
            raise ValueError(f"series order mismatch: {self.order} != {other.order}")

    def __add__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            other = Series.constant(other, self.order)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return self._plus(other)

    __radd__ = __add__

    def __mul__(self, other) -> "Series":
        if isinstance(other, (int, Fraction)):
            return self._scaled_by(other)
        if not isinstance(other, Series):
            return NotImplemented
        self._check_order(other)
        return Series.of(_convolve(self.nums, other.nums, self.order + 1), self.den * other.den)

    __rmul__ = __mul__

    def differentiate(self) -> "Series":
        """Formal d/dt; the result order drops by one (top coeff unknown)."""
        return Series.of([k * v for k, v in enumerate(self.nums) if k] or [0], self.den)

    def invert_mul(self) -> "Series":
        """Multiplicative inverse; requires an invertible constant term."""
        a = self.nums
        if not a[0]:
            raise ValueError("series with zero constant term has no multiplicative inverse")
        # s (1/s) = 1: sum_j a_j c_(n-j) = 0 for n >= 1; the scale of a cancels
        return _recurrence(Fraction(self.den, a[0]), a, (0,), (), self.order)

    def compose(self, inner: "Series") -> "Series":
        """self(inner(t)); inner must have zero constant term (exactness)."""
        self._check_order(inner)
        if inner.nums[0]:
            raise ValueError("composition needs an inner series with zero constant term")
        cs = self.coeffs
        n = self.order
        out = Series.constant(cs[n], n)
        for k in range(n - 1, -1, -1):
            out = out * inner + cs[k]
        return out

    def reversion(self) -> "Series":
        """Compositional inverse g with self(g(t)) = t (mod t^(N+1)).

        Newton iteration on the composition equation, doubling the number of
        correct coefficients each round; needs coeffs[0] = 0, coeffs[1] != 0.
        """
        a = self.nums
        if a[0]:
            raise ValueError("reversion needs a zero constant term")
        if self.order < 1 or not a[1]:
            raise ValueError("reversion needs a nonzero linear coefficient")
        n = self.order
        g = Series.monomial(1, n, Fraction(self.den, a[1]))
        ident = Series.monomial(1, n)
        # the derivative padded back to full order with a zero top
        # coefficient: the pad is wrong in general but only pollutes orders
        # > N after a composition with a zero-constant inner series, which
        # Newton's iteration never reads
        d = self.differentiate()
        deriv = Series.of(d.nums + (0,), d.den)
        prec = 2
        while prec < n + 1:
            err = self.compose(g) - ident
            g = g - err * deriv.compose(g).invert_mul()
            prec *= 2
        return g


def _signed_sum(strings: Sequence[str], term) -> str:
    """The nonzero lowest-terms strings, top degree first, as one sum of term(k, magnitude)."""
    parts = []
    for k in range(len(strings) - 1, -1, -1):
        text = strings[k]
        if text != "0":
            negative = text[0] == "-"
            body = term(k, text.lstrip("-"))
            if parts:
                parts.append(f"- {body}" if negative else f"+ {body}")
            else:
                parts.append(f"-{body}" if negative else body)
    return " ".join(parts) if parts else "0"


def poly_text(strings: Sequence[str]) -> str:
    """The polynomial with lowest-terms coefficient strings `strings`, as "-2*x^2 + 1/2"."""
    def term(k, mag):
        if not k:
            return mag
        xk = "x" if k == 1 else f"x^{k}"
        return xk if mag == "1" else f"{mag}*{xk}"
    return _signed_sum(strings, term)


def poly_latex(strings: Sequence[str]) -> str:
    """The same sum in LaTeX: "p/q" prints as \\frac{p}{q}, x^k as x^{k}."""
    def term(k, mag):
        p, _, q = mag.partition("/")
        mag_s = f"\\frac{{{p}}}{{{q}}}" if q else p
        if not k:
            return mag_s
        xk = "x" if k == 1 else f"x^{{{k}}}"
        return xk if mag == "1" else f"{mag_s} {xk}"
    return _signed_sum(strings, term)


def _convolve(a: Sequence[int], b: Sequence[int], length: int) -> list[int]:
    """The first `length` coefficients of the product of the integer vectors a and b."""
    rb, top = b[::-1], len(b) - 1           # rb[top - k:] = b_k, ..., b_0, so map stops at a_k
    return ([sum(map(mul, a, rb[top - k:])) for k in range(min(length, top + 1))]
            + [sum(map(mul, a[k - top:k + 1], rb)) for k in range(top + 1, length)])


def _recurrence(first: Fraction, a, b, r, order: int) -> Series:
    """The series c_0 = first, then sum_j (a_j + n b_j) c_(n-j) = r_n for n = 1 .. order.

    a, b and r are integer vectors over one shared denominator, which cancels
    (an entry past a vector's end is 0, and a_0 + n b_0 != 0).  The c_i are
    integer numerators X_i over a running common denominator R, extended by
    lcm as each c_n lands, reduced by one gcd.  A convolution over a vector
    that is only a constant term is skipped.
    """
    xs, R = [first.numerator], first.denominator
    a1, b1 = a[1:order + 1], b[1:order + 1]
    r = list(r[:order + 1]) + [0] * (order + 1 - len(r))
    for n in range(1, order + 1):
        acc = sum(map(mul, a1, reversed(xs)))
        if b1:
            acc += n * sum(map(mul, b1, reversed(xs)))
        num = r[n] * R - acc
        den = (a[0] + n * b[0]) * R
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        q = den // g
        if R % q:
            grow = q // gcd(R, q)
            R *= grow
            xs = [x * grow for x in xs]
        xs.append(num // g * (R // q))
    return Series.of(xs, R)


def _first_order(p, q, r, first: Fraction, order: int) -> Series:
    """f with f(0) = first and p f' = q f + r (integer vectors over one denominator, p(0) != 0).

    [t^(n-1)] of it is sum_j ((n - j) p_j - q_(j-1)) f_(n-j) = r_(n-1): the
    kernel with a_j = -j p_j - q_(j-1), b = p and r shifted by one.
    """
    a = [-j * c for j, c in enumerate(p)] + [0] * (len(q) + 1 - len(p))
    a[1:len(q) + 1] = map(sub, a[1:], q)
    return _recurrence(first, a, p, (0, *r), order)
