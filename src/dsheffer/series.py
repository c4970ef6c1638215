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
truncated at the order for a Series.  The recursions of `invert_mul`
(s (1/s) = 1), `exp` (E' = s'E) and `log` (t L' = t s'/s, then an integral)
hold their outputs as integer numerators over a running common
denominator, extended by lcm as each coefficient lands, so only the
denominators the result needs ever appear (`_recursion`).  `pow_rat` is
log, a scalar product and exp, except at the exponents 0, 1 and -1, which
give the constant 1, the series itself and `invert_mul()`.

`Poly.coeff_strings` puts each nums[i] / den in lowest terms by one gcd
(`exactnum.ratio_strings`) and makes no Fraction.  `poly_text` and
`poly_latex` print such a list of strings as a signed sum through one
walker; `Poly.pretty` and `Poly.latex` are those over `coeff_strings()`.
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
from operator import add, mul

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

    @classmethod
    def x(cls) -> "Poly":
        return cls.of((0, 1), 1)

    @classmethod
    def constant(cls, c) -> "Poly":
        return cls((c,))

    @classmethod
    def monomial(cls, k: int, c=1) -> "Poly":
        return cls((0,) * k + (c,))

    def degree(self) -> int | None:
        # degree of the zero polynomial is None, not -1 or -inf
        return len(self.nums) - 1 if self.nums else None

    def coeff(self, k: int) -> Fraction:
        return Fraction(self.nums[k], self.den) if 0 <= k < len(self.nums) else Fraction(0)

    @property
    def leading(self) -> Fraction:
        if not self.nums:
            raise ValueError("zero polynomial has no leading coefficient")
        return Fraction(self.nums[-1], self.den)

    def is_zero(self) -> bool:
        return not self.nums

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

    def __call__(self, value):
        out = Fraction(0)
        for c in reversed(self.coeffs):
            out = out * value + c
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

    def pretty(self, var: str = "x") -> str:
        """The nonzero terms, top degree first, as "-2*x^2 + 1/2" (see poly_text)."""
        return poly_text(self.coeff_strings(), var)

    def latex(self, var: str = "x") -> str:
        """The same sum in LaTeX (see poly_latex)."""
        return poly_latex(self.coeff_strings(), var)

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
        return cls.of((p.nums + (0,) * (order + 1))[:order + 1], p.den)

    def truncate(self, order: int) -> "Series":
        if order > self.order:
            raise ValueError(f"cannot truncate order {self.order} up to {order}")
        return Series.of(self.nums[:order + 1], self.den)

    def constant_term(self) -> Fraction:
        return Fraction(self.nums[0], self.den)

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

    def integrate(self) -> "Series":
        """Formal integral from 0; same order, the top input coefficient drops."""
        L = lcm(*range(1, self.order + 1))
        return Series.of([0] + [v * (L // k) for k, v in enumerate(self.nums[:-1], 1)],
                         self.den * L)

    def invert_mul(self) -> "Series":
        """Multiplicative inverse; requires an invertible constant term."""
        a = self.nums
        if not a[0]:
            raise ValueError("series with zero constant term has no multiplicative inverse")
        # s (1/s) = 1: b_n = -(1/a_0) sum_(k>=1) a_k b_(n-k); the scale of a cancels
        return _recursion(Fraction(self.den, a[0]), a, lambda n, acc, R: (-acc, a[0] * R))

    def exp(self) -> "Series":
        """exp of a series with zero constant term, via E' = s' E."""
        if self.nums[0]:
            raise ValueError("exp needs a zero constant term")
        # n E_n = sum_(k>=1) k s_k E_(n-k)
        da = self.den
        ka = [k * c for k, c in enumerate(self.nums)]
        return _recursion(Fraction(1), ka, lambda n, acc, R: (acc, n * da * R))

    def log(self) -> "Series":
        """log of a series with constant term 1, via s' = L' s."""
        a, da = self.nums, self.den
        if a[0] != da:
            raise ValueError("log needs constant term 1")
        # M = t L' has M_n = n s_n - sum_(1<=k<n) M_k s_(n-k), as s_0 = a_0 / da = 1;
        # L is the integral of M / t
        m = _recursion(Fraction(0), a, lambda n, acc, R: (n * R * a[n] - acc, R * da))
        return Series.of(m.nums[1:] + (0,), m.den).integrate()

    def pow_rat(self, r) -> "Series":
        """Raise a series with constant term 1 to a rational power.

        exp(r log s) in general; the exponents 0, 1 and -1 take the values
        that route gives directly: the constant 1, the series itself and
        its multiplicative inverse.
        """
        r = exact(r)
        if self.nums[0] != self.den:
            raise ValueError("pow_rat needs constant term 1")
        if r == 0:
            return Series.of((1,) + (0,) * self.order, 1)
        if r == 1:
            return self
        if r == -1:
            return self.invert_mul()
        return (self.log() * r).exp()

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
        ident = Series.identity(n)
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


def poly_text(strings: Sequence[str], var: str = "x") -> str:
    """The polynomial with lowest-terms coefficient strings `strings`, as "-2*x^2 + 1/2"."""
    def term(k, mag):
        if not k:
            return mag
        xk = var if k == 1 else f"{var}^{k}"
        return xk if mag == "1" else f"{mag}*{xk}"
    return _signed_sum(strings, term)


def poly_latex(strings: Sequence[str], var: str = "x") -> str:
    """The same sum in LaTeX: "p/q" prints as \\frac{p}{q}, x^k as x^{k}."""
    def term(k, mag):
        p, _, q = mag.partition("/")
        mag_s = f"\\frac{{{p}}}{{{q}}}" if q else p
        if not k:
            return mag_s
        xk = var if k == 1 else f"{var}^{{{k}}}"
        return xk if mag == "1" else f"{mag_s} {xk}"
    return _signed_sum(strings, term)


def _convolve(a: Sequence[int], b: Sequence[int], length: int) -> list[int]:
    """The first `length` coefficients of the product of the integer vectors a and b."""
    rb, top = b[::-1], len(b) - 1           # rb[top - k:] = b_k, ..., b_0
    return ([sum(map(mul, a[:k + 1], rb[top - k:])) for k in range(min(length, top + 1))]
            + [sum(map(mul, a[k - top:k + 1], rb)) for k in range(top + 1, length)])


def _recursion(first: Fraction, w: Sequence[int], coefficient) -> Series:
    """The series c_0 = first, then c_n = num / den for n = 1 .. len(w) - 1.

    The c_i are held as integer numerators X_i over a running common
    denominator R, extended by lcm as each coefficient lands, and
    (num, den) = coefficient(n, acc, R) with the integer convolution
    acc = sum_(i<n) X_i w_(n-i).  Each c_n is reduced once, with one gcd,
    as it lands.
    """
    xs, R = [first.numerator], first.denominator
    rw = w[::-1]                            # rw[top - n:] = w_n, ..., w_0
    top = len(w) - 1
    for n in range(1, top + 1):
        num, den = coefficient(n, sum(map(mul, xs, rw[top - n:])), R)
        g = gcd(num, den) if den > 0 else -gcd(num, den)
        q = den // g
        if R % q:
            grow = q // gcd(R, q)
            R *= grow
            xs = [x * grow for x in xs]
        xs.append(num // g * (R // q))
    return Series.of(xs, R)
