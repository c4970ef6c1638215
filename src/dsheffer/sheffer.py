"""Couples of polynomials, Sheffer generating pairs, and their expansions.

A d-orthogonal Sheffer set is determined by a couple (gamma, sigma): gamma of
degree exactly d, sigma of degree at most d+1, through

    A(t)    = exp( integral_0^t gamma/sigma )
    H(t)    = integral_0^t 1/sigma
    G(x, t) = A(t) exp(x H(t)) = sum_n P_n(x) t^n / n!

subject to the regularity conditions alpha_0 != 0, beta_d != 0 and
n*alpha_{d+1} - beta_d != 0 for n >= 1 (beta_d, alpha_0, alpha_{d+1} being
the leading/constant coefficients involved).  The last is linear in n, so it
is decided for all n at once: it fails exactly when beta_d / alpha_{d+1} is a
positive integer (CoupleSpec.irregular_n), and CoupleSpec.violations is the
one regularity decision that both check_conditions and the catalog's
parameter validation read.  The same couple gives the (d+2)-term recurrence
in closed form, as integer numerators over one denominator
(recurrence_numerators), which generates the sequence without any series
(expand_from_couple).  Both expansions work on the integer form that Poly
and Series store (numerators over one denominator, see `series`) and hand
each P_n over with Poly.of, so no Fraction is made: expand_from_couple
combines the rows with the P_n before it, and the generating-function route
(expand_polynomials) reads A's and H's numerators, one column A H^k at a
time.  Everything else works over a fixed truncation order with exact
rationals, so the inverse direction (recovering the couple from a pair) can
certify "polynomial of the right degree" by checking that every higher
series coefficient vanishes exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm

from dsheffer.exactnum import exact, scaled
from dsheffer.series import Poly, Series, _convolve, _first_order, _recurrence


class InvalidCoupleError(ValueError):
    """A couple violates a value-level restriction (beta_d = 0, alpha_0 = 0)."""


class NotDOrthogonalShefferError(ValueError):
    """The given pair does not come from any degree-(d, d+1) couple."""


class CoupleFileError(ValueError):
    """A couple document is structurally malformed."""


def _coerce_coeffs(values, name: str, length: int) -> tuple[Fraction, ...]:
    out = [exact(v) for v in values]
    if len(out) > length:
        extra = out[length:]
        if any(extra):
            raise ValueError(
                f"{name} has {len(out)} coefficients; at most {length} allowed"
            )
        out = out[:length]
    out.extend([Fraction(0)] * (length - len(out)))
    return tuple(out)


@dataclass(frozen=True)
class CoupleSpec:
    """Couple (gamma, sigma) for a claimed d; trailing zeros are padded.

    Value-level restrictions (beta_d != 0, alpha_0 != 0) are deliberately not
    enforced at construction: check_conditions must be able to report on
    broken couples.  pair_from_couple and recurrence_numerators enforce them.
    """

    d: int
    gamma: tuple[Fraction, ...]
    sigma: tuple[Fraction, ...]

    def __post_init__(self):
        if self.d < 1:
            raise ValueError(f"d must be >= 1, got {self.d}")
        object.__setattr__(self, "gamma", _coerce_coeffs(self.gamma, "gamma", self.d + 1))
        object.__setattr__(self, "sigma", _coerce_coeffs(self.sigma, "sigma", self.d + 2))

    @property
    def beta_d(self) -> Fraction:
        return self.gamma[self.d]

    @property
    def alpha_0(self) -> Fraction:
        return self.sigma[0]

    @property
    def alpha_top(self) -> Fraction:
        return self.sigma[self.d + 1]

    def irregular_n(self) -> int | None:
        """The smallest n >= 1 with n*alpha_(d+1) = beta_d, or None.

        The condition is linear in n: it has the single root
        beta_d / alpha_(d+1) when that is a positive integer, none when
        alpha_(d+1) = 0 != beta_d, and every n when both vanish.
        """
        if self.alpha_top == 0:
            return 1 if self.beta_d == 0 else None
        root = self.beta_d / self.alpha_top
        return int(root) if root.denominator == 1 and root >= 1 else None

    def violations(self) -> tuple[str, ...]:
        """The regularity conditions this couple breaks, for all n >= 1."""
        found = []
        if self.alpha_0 == 0:
            found.append("alpha_0 = 0")
        if self.beta_d == 0:
            found.append("beta_d = 0")  # with alpha_(d+1) = 0 every n is a root too
        elif (n := self.irregular_n()) is not None:
            found.append(f"n*alpha_(d+1) = beta_d at n = {n}")
        return tuple(found)

    def validate(self):
        if self.beta_d == 0:
            raise InvalidCoupleError(
                f"gamma must have degree exactly d={self.d} (leading coefficient is 0)"
            )
        if self.alpha_0 == 0:
            raise InvalidCoupleError("sigma must have a nonzero constant term")

    def to_jsonable(self) -> dict:
        return {
            "d": self.d,
            "gamma": [str(c) for c in self.gamma],
            "sigma": [str(c) for c in self.sigma],
        }


def couple_from_json_dict(obj) -> CoupleSpec:
    """Build a CoupleSpec from a parsed JSON document with the keys d, gamma and sigma.

    Coefficients are "p/q" strings or integers; decimals are rejected.
    """
    if not isinstance(obj, dict):
        raise CoupleFileError("couple document must be a JSON object")
    if unknown := sorted(set(obj) - {"d", "gamma", "sigma"}):
        raise CoupleFileError(f"couple document has unknown key {unknown[0]!r}")
    try:
        d = obj["d"]
        gamma = obj["gamma"]
        sigma = obj["sigma"]
    except KeyError as exc:
        raise CoupleFileError(f"couple document is missing key {exc.args[0]!r}") from None
    if not isinstance(d, int) or isinstance(d, bool):
        raise CoupleFileError("'d' must be an integer")
    if not isinstance(gamma, list) or not isinstance(sigma, list):
        raise CoupleFileError("'gamma' and 'sigma' must be arrays")

    def read(value, name):
        # an int or a str only (JSON's true and false are ints to Python)
        if isinstance(value, bool) or not isinstance(value, (int, str)):
            raise CoupleFileError(f"{name}: coefficients must be exact ('p/q' strings)")
        try:
            return exact(value)
        except ValueError as exc:
            raise CoupleFileError(f"{name}: {exc}") from None

    g = [read(v, "gamma") for v in gamma]
    s = [read(v, "sigma") for v in sigma]
    if 1 <= d and len(g) <= d and len(s) <= d + 2:
        # padding would give gamma a zero leading coefficient, after first
        # allocating d + 1 entries however large d is; d < 1 and an overlong
        # sigma keep CoupleSpec's own messages
        raise InvalidCoupleError(
            f"gamma must have degree exactly d={d} (leading coefficient is 0)"
        )
    try:
        return CoupleSpec(d=d, gamma=tuple(g), sigma=tuple(s))
    except ValueError as exc:
        raise CoupleFileError(str(exc)) from None


@dataclass(frozen=True)
class ShefferPair:
    """Generating pair (A, H) with A(0) = 1, H(0) = 0, H'(0) != 0."""

    A: Series
    Hx: Series

    def __post_init__(self):
        if self.A.order != self.Hx.order:
            raise ValueError("A and H must share a truncation order")
        if self.Hx.order < 1:
            raise ValueError("pair order must be at least 1")
        if self.A.nums[0] != self.A.den:
            raise ValueError("A(0) must be 1")
        if self.Hx.nums[0]:
            raise ValueError("H(0) must be 0")
        if not self.Hx.nums[1]:
            raise ValueError("H'(0) must be nonzero")

    @property
    def order(self) -> int:
        return self.A.order


@dataclass(frozen=True)
class PolySequence:
    """P_0..P_N with deg P_n = n and P_0 = 1."""

    polys: tuple[Poly, ...]

    def __post_init__(self):
        if not self.polys:
            raise ValueError("empty polynomial sequence")
        if self.polys[0] != Poly.one():
            raise ValueError("P_0 must be 1")
        for n, p in enumerate(self.polys):
            if p.degree() != n:
                raise ValueError(f"P_{n} must have degree exactly {n}")

    @property
    def max_index(self) -> int:
        return len(self.polys) - 1

    def __getitem__(self, n: int) -> Poly:
        return self.polys[n]

    def __iter__(self):
        return iter(self.polys)


def check_conditions(couple: CoupleSpec, N: int):
    """Decide the regularity conditions for every n >= 1 without raising.

    Returns a ConditionReport; a couple that fails (even structurally, with
    alpha_0 = 0 or beta_d = 0) yields a failing report rather than an error.
    The failing n is reported wherever it lies; N only fills the report's
    checked_n field.
    """
    return ConditionReport(couple, N)


@dataclass(frozen=True)
class ConditionReport:
    """The couple's regularity decision; everything but checked_n is read off it."""

    couple: CoupleSpec
    checked_n: int

    @property
    def failures(self) -> tuple[int, ...]:
        n = self.couple.irregular_n()
        return () if n is None else (n,)

    @property
    def passed(self) -> bool:
        return not self.couple.violations()

    def to_jsonable(self) -> dict:
        c = self.couple
        return {
            "d": c.d,
            "alpha_0": str(c.alpha_0),
            "beta_d": str(c.beta_d),
            "alpha_top": str(c.alpha_top),
            "checked_n": self.checked_n,
            "failures": [{"n": n, "value": "0"} for n in self.failures],
            "alpha_0_nonzero": c.alpha_0 != 0,
            "beta_d_nonzero": c.beta_d != 0,
        }


def pair_from_couple(couple: CoupleSpec, N: int) -> ShefferPair:
    """The generating pair at truncation order N: sigma H' = 1 and sigma A' = gamma A, O(N d)."""
    if N < 1:
        raise ValueError("order must be at least 1")
    couple.validate()
    ints, R = scaled(couple.gamma + couple.sigma)
    gamma, sigma = ints[:couple.d + 1], ints[couple.d + 1:]
    hx = _first_order(sigma, (), (R,), Fraction(0), N)
    a = _first_order(sigma, gamma, (), Fraction(1), N)
    return ShefferPair(A=a, Hx=hx)


def expand_polynomials(pair: ShefferPair) -> PolySequence:
    """Expand A(t) exp(x H(t)) into P_0..P_N, N the pair's order (with the n! normalization).

    exp(x H) = sum_k x^k H^k / k!, so [x^k] P_n = n!/k! [t^n] (A H^k).  The
    columns A H^k are integer numerators over one denominator D_k each,
    starting from A's own form, and since H(0) = 0 column k + 1 is the
    convolution (`series._convolve`) of column k with H's numerators over
    n >= k + 1 only.  One content gcd per column keeps D_k least, and only
    the current column is held.  P_n collects n!/k! col_k[n] / D_k over the
    lcm of its D_k and is handed over as integers (Poly.of); no Fraction is
    made.
    """
    N = pair.order
    col, D = pair.A.nums, pair.A.den            # col[n] / D = [t^n] A H^k, from k = 0
    h, dh = pair.Hx.nums[1:], pair.Hx.den       # h_1 .. h_N, as h_0 = 0
    terms = [[] for _ in range(N + 1)]          # terms[n][k] = ([x^k] P_n numerator, D_k)
    for k in range(N + 1):
        fac = 1                                 # n!/k!
        for n in range(k, N + 1):
            if n > k:
                fac *= n
            terms[n].append((col[n] * fac, D))
        if k < N:
            # [t^n] A H^(k+1) = sum_(1<=i<=n-k) h_i [t^(n-i)] A H^k
            col = [0] * (k + 1) + _convolve(col[k:], h, N - k)
            g = gcd(D * dh, *col)
            col, D = [c // g for c in col], D * dh // g
    polys = []
    for row in terms:
        L = lcm(*(Dk for _, Dk in row))
        polys.append(Poly.of([v * (L // Dk) for v, Dk in row], L))
    return PolySequence(tuple(polys))


def recurrence_numerators(couple: CoupleSpec, top: int) -> tuple[list[list[int]], int]:
    """Rows n < top of the recurrence x P_n = sum_k alpha_k(n) P_(n-d+k), from the couple.

    x G = sigma(t) G_t - gamma(t) G read coefficient by coefficient gives
    x P_n = sum_j sigma_j n^(j) P_(n+1-j) - sum_j gamma_j n^(j) P_(n-j) with
    the falling factorial n^(j) = n!/(n-j)!, so
    alpha_k(n) = sigma_(d+1-k) n^(d+1-k) - gamma_(d-k) n^(d-k) and
    alpha_(d+1)(n) = sigma_0.  n^(j) vanishes for j > n, which is the 0 that
    row n holds on the indices below zero.  No row is checked for
    regularity.  gamma and sigma are scaled once over R = lcm of their
    denominators, so the rows are handed over as the integers alpha_k(n) R
    = (R sigma_(d+1-k)) n^(d+1-k) - (R gamma_(d-k)) n^(d-k), over R.
    """
    couple.validate()
    d = couple.d
    ints, R = scaled(couple.gamma + couple.sigma)
    gamma, sigma = ints[:d + 1], ints[d + 1:]
    rows = []
    for n in range(top):
        falling = [1]                       # falling[j] = n^(j)
        for j in range(d + 1):
            falling.append(falling[-1] * (n - j))
        rows.append([
            sigma[d + 1 - k] * falling[d + 1 - k]
            - (gamma[d - k] * falling[d - k] if k <= d else 0)
            for k in range(d + 2)
        ])
    return rows, R


def expand_from_couple(couple: CoupleSpec, N: int) -> PolySequence:
    """P_0..P_N generated by the couple's recurrence, equal to expand_polynomials.

    Row n solved for its last term, alpha_(d+1)(n) P_(n+1) with
    alpha_(d+1)(n) = sigma_0, gives
    P_(n+1) = (x P_n - sum_(k<=d) alpha_k(n) P_(n-d+k)) / sigma_0:
    O(N^2 d) exact operations and no series product.  x P_n and the d + 1
    lower terms are combined on integer numerators over one common
    denominator L, with the rows' numerators over their one denominator da
    (recurrence_numerators); the division by sigma_0 = p/q puts q into the
    factor each term is scaled by and p into L, and Poly.of's content gcd
    brings the denominator back to the least one.  No Fraction is made.
    """
    rows, da = recurrence_numerators(couple, N)   # alpha_k(n) = rows[n][k] / da
    d = couple.d
    p, q = couple.alpha_0.numerator, couple.alpha_0.denominator
    polys = [Poly.one()]
    for n, alpha in enumerate(rows):
        terms = [(alpha[k], polys[n - d + k])
                 for k in range(max(d - n, 0), d + 1) if alpha[k]]
        pn = polys[n]
        L = lcm(pn.den, *(da * pm.den for _, pm in terms))
        f = q * (L // pn.den)
        nxt = [0] + [c * f for c in pn.nums]                 # q x P_n
        for a, pm in terms:
            f = a * q * (L // (da * pm.den))
            nxt[:len(pm.nums)] = [v - f * c for v, c in zip(nxt, pm.nums)]
        polys.append(Poly.of(nxt, L * p))
    return PolySequence(tuple(polys))


def couple_from_pair(pair: ShefferPair, d: int) -> CoupleSpec:
    """Recover the couple from a pair, certifying the degree bounds.

    sigma = 1/H' solves H' sigma = 1 and gamma solves A gamma = sigma A',
    each one recurrence of the series kernel (`series._recurrence`), and
    sigma A' is one convolution.  1/H' must be a polynomial of degree
    <= d+1 and A'/(A H') a polynomial of degree exactly d; any nonzero
    coefficient beyond those bounds (checkable because the arithmetic is
    exact) means the pair is not a d-orthogonal Sheffer pair.  The
    truncation order must exceed 2(d+1) so that the vanishing checks see a
    meaningful stretch of coefficients.
    """
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    N = pair.order
    if N <= 2 * (d + 1):
        raise ValueError(
            f"pair order {N} too small to certify degrees for d={d}; need order > {2 * (d + 1)}"
        )
    # the scale of H' cancels
    hp = [k * v for k, v in enumerate(pair.Hx.nums) if k]
    sigma = _recurrence(Fraction(pair.Hx.den, hp[0]), hp, (0,), (), N - 1)
    for k in range(d + 2, N):
        if sigma.nums[k]:
            raise NotDOrthogonalShefferError(
                f"1/H' has a nonzero t^{k} coefficient ({sigma.coeffs[k]}); "
                f"not a polynomial of degree <= {d + 1}"
            )
    # gamma from A gamma = sigma A', both sides over sigma.den A.den
    a = pair.A.nums
    rhs = _convolve([k * v for k, v in enumerate(a) if k], sigma.nums[:d + 2], N)
    lhs = [v * sigma.den for v in a]
    gamma = _recurrence(Fraction(rhs[0], lhs[0]), lhs, (0,), rhs, N - 1)
    for k in range(d + 1, N):
        if gamma.nums[k]:
            raise NotDOrthogonalShefferError(
                f"A'/(A H') has a nonzero t^{k} coefficient ({gamma.coeffs[k]}); "
                f"not a polynomial of degree <= {d}"
            )
    if not gamma.nums[d]:
        raise NotDOrthogonalShefferError(
            f"A'/(A H') has degree < {d}; the set is not exactly d-orthogonal for d={d}"
        )
    return CoupleSpec(
        d=d,
        gamma=tuple(gamma.coeffs[: d + 1]),
        sigma=tuple(sigma.coeffs[: d + 2]),
    )
