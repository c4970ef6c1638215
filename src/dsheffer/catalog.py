"""The built-in families of d-orthogonal Sheffer sets.

Each family is stored twice over: as a couple (gamma, sigma) and as a closed
generating function, so the construction can be verified along two
independent routes.  Every family has the same closed form,

    A(t) = exp(pi(t) - pi(0)) (1 - t)^e,    h(t) = s ((1 - t)^(-k) - 1),
    H(t) = h(t)                   (derivative kind),
    H(t) = log(1 + omega h(t))/omega   (difference kind, step omega),

and differs only in four numbers (e, k, s, omega), omega = 0 for the
derivative kind, given per family by `FamilyInfo.factors` (tabulated in
README, "Built-in families").  `family_generating` solves the closed form's
own ODEs on the recurrence kernel of `series`: (1 - t) A' = ((1 - t) pi' - e) A,
and for both kinds p H' = s k with H(0) = 0 and

    p = (1 - omega s)(1 - t)^(k+1) + omega s (1 - t)    (k >= -1),

which is H' = h'/(1 + omega h) with both sides of the quotient multiplied
by (1 - t)^(k+1), H' = h' at omega = 0.  No series is multiplied, and the
difference kind takes no logarithm.

Families whose generating function carries exp(pi(t)) for an auxiliary
polynomial pi are normalized to exp(pi(t) - pi(0)): the couple only ever
sees pi', and exact rational arithmetic cannot represent the constant factor
e^(pi(0)) anyway.  Discrete families are stated in the Newton form
A(t) (1 + omega*h(t))^(x/omega); expansion goes through the equivalent
exponential form above.  The lowering operator H*(D) and the functionals
come from the couple alone: `verify` and `functionals` build them in
`operators.FunctionalVector` (a difference family's h*(Delta_omega) is the
same operator on polynomials), and `family_lowering`, the `hstar` of one
at d = 1, stays only for the benchmark's tracer.  So a family is realized
in closed form only for the generating pair, and its step omega is read by
that closed form alone.  The labels DERIVATIVE and DIFFERENCE
(`FamilyInfo.kind`) say in which form the paper states a family.
The couples (`_couple_of`) stay written out by hand: they are the
independent route the closed form is compared against.

The Laguerre-type 2-orthogonal family and the Meixner-type family also carry
explicit moment functionals (series in derivatives of f, respectively sums
over integer nodes).  Like `FunctionalVector`, each closed form gives a
functional as its moment row <u_i, x^m>, m = 0..order (`laguerre2_moments`
and `meixner_moments`, whose d = 1 row is the classical Meixner functional);
`explicit_functional` hands these rows out as closed-form cross-checks for
the operator route.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, partial
from math import comb, factorial
from operator import mul
from types import MappingProxyType

from dsheffer.exactnum import exact, scaled, stirling2_rows
from dsheffer.operators import FunctionalVector
from dsheffer.series import Poly, Series, _first_order
from dsheffer.sheffer import CoupleSpec, ShefferPair

LAGUERRE_EQ9 = "laguerre-eq9"
LAGUERRE_EQ10 = "laguerre-eq10"
LAGUERRE_EQ11 = "laguerre-eq11"
HERMITE_EQ12 = "hermite-eq12"
CHARLIER_EQ13 = "charlier-eq13"
MEIXNER_EQ14 = "meixner-eq14"
MEIXNER_EQ16 = "meixner-eq16"
MEIXNER_EQ21 = "meixner-eq21"

DERIVATIVE = "derivative"
DIFFERENCE = "difference"


class InvalidParameterError(ValueError):
    """Family parameters violate a named restriction."""


class DivergentParameterError(InvalidParameterError):
    """Parameters put the defining series outside its region of convergence."""


@dataclass(frozen=True)
class FamilySpec:
    """A family id with a concrete d, parameter values, and aux polynomial.

    `params` is a read-only mapping, so the screening kept on the spec
    (`_screened`) always matches its values.
    """

    family: str
    d: int
    params: Mapping[str, Fraction] = field(default_factory=dict)
    aux: tuple[Fraction, ...] | None = None

    def __post_init__(self):
        if self.family not in FAMILIES:
            raise InvalidParameterError(f"unknown family: {self.family!r}")
        object.__setattr__(
            self, "params",
            MappingProxyType({str(k): exact(v) for k, v in dict(self.params).items()}),
        )
        if self.aux is not None:
            object.__setattr__(self, "aux", tuple(exact(a) for a in self.aux))

    @cached_property
    def _screened(self) -> tuple[tuple[str, ...], CoupleSpec | None]:
        return _screen(self)


@dataclass(frozen=True)
class FamilyInfo:
    family: str
    label: str
    kind: str                      # derivative | difference
    params: tuple[str, ...]
    aux_len: Callable[[int], int] | None
    aux_text: str | None
    d_min: int
    d_fixed: int | None
    restrictions: str
    generating_text: str
    # (d, params) -> (e, k, s, omega) of the closed form in the module docstring
    factors: Callable[[int, Mapping[str, Fraction]], tuple[Fraction, int, Fraction, Fraction]]


FAMILIES: dict[str, FamilyInfo] = {}


def _register(info: FamilyInfo):
    FAMILIES[info.family] = info


_register(FamilyInfo(
    family=LAGUERRE_EQ9,
    label="Laguerre type, sigma = -(1/d)(1-t)^(d+1)",
    kind=DERIVATIVE,
    params=("alpha",),
    aux_len=None,
    aux_text=None,
    d_min=1,
    d_fixed=None,
    restrictions="n/d + alpha + 1 != 0 for all n >= 0",
    generating_text="(1-t)^(-(alpha+1)d) * exp(-x[(1-t)^(-d) - 1])",
    factors=lambda d, p: (-(p["alpha"] + 1) * d, d, Fraction(-1), Fraction(0)),
))
_register(FamilyInfo(
    family=LAGUERRE_EQ10,
    label="Laguerre type with auxiliary exp(pi_(d-1))",
    kind=DERIVATIVE,
    params=("alpha",),
    aux_len=lambda d: d,
    aux_text="a_0..a_(d-1), degree d-1",
    d_min=1,
    d_fixed=None,
    restrictions="a_(d-1) != 0 for d >= 2; alpha + n + 1 != 0 for d = 1",
    generating_text="exp(pi(t)-pi(0)) * (1-t)^(-alpha-1) * exp(-x t/(1-t))",
    factors=lambda d, p: (-(p["alpha"] + 1), 1, Fraction(-1), Fraction(0)),
))
_register(FamilyInfo(
    family=LAGUERRE_EQ11,
    label="Laguerre type, 2-orthogonal, with closed-form functionals",
    kind=DERIVATIVE,
    params=("alpha",),
    aux_len=None,
    aux_text=None,
    d_min=2,
    d_fixed=2,
    restrictions="alpha + n + 1 != 0 for all n >= 0",
    generating_text="(1-t)^(-alpha-1) * exp(x (t^2 - 2t) / (2 (1-t)^2))",
    factors=lambda d, p: (-(p["alpha"] + 1), 2, Fraction(-1, 2), Fraction(0)),
))
_register(FamilyInfo(
    family=HERMITE_EQ12,
    label="Hermite type (Appell)",
    kind=DERIVATIVE,
    params=(),
    aux_len=lambda d: d + 2,
    aux_text="a_0..a_(d+1), degree d+1",
    d_min=1,
    d_fixed=None,
    restrictions="a_(d+1) != 0",
    generating_text="exp(pi(t)-pi(0)) * exp(x t)",
    factors=lambda d, p: (Fraction(0), -1, Fraction(-1), Fraction(0)),
))
_register(FamilyInfo(
    family=CHARLIER_EQ13,
    label="Charlier type (discrete Appell)",
    kind=DIFFERENCE,
    params=("omega",),
    aux_len=lambda d: d + 1,
    aux_text="a_0..a_d, degree d",
    d_min=1,
    d_fixed=None,
    restrictions="a_d != 0; omega != 0",
    generating_text="exp(pi(t)-pi(0)) * (1 + omega t)^(x/omega)",
    factors=lambda d, p: (Fraction(0), -1, Fraction(-1), p["omega"]),
))
_register(FamilyInfo(
    family=MEIXNER_EQ14,
    label="Meixner type with auxiliary exp(pi_(d-1))",
    kind=DIFFERENCE,
    params=("c", "beta"),
    aux_len=lambda d: d,
    aux_text="a_0..a_(d-1), degree d-1",
    d_min=1,
    d_fixed=None,
    restrictions="c not in {0, 1}; a_(d-1) != 0 for d >= 2; "
                 "beta not a nonpositive integer for d = 1",
    generating_text="exp(pi(t)-pi(0)) * (1-t)^(-beta) * (1 + ((c-1)/c) t/(1-t))^x",
    factors=lambda d, p: (-p["beta"], 1, (p["c"] - 1) / p["c"], Fraction(1)),
))
_register(FamilyInfo(
    family=MEIXNER_EQ16,
    label="Meixner type with closed-form moment functionals",
    kind=DIFFERENCE,
    params=("c", "beta"),
    aux_len=None,
    aux_text=None,
    d_min=1,
    d_fixed=None,
    restrictions="c not in {0, 1/(1-d), 1}; beta != -n/d for all n >= 0",
    generating_text="(1-t)^(-beta d) * (1 + ((c-1)/(dc)) [(1-t)^(-d) - 1])^x",
    factors=lambda d, p: (-p["beta"] * d, d, (p["c"] - 1) / (d * p["c"]), Fraction(1)),
))
_register(FamilyInfo(
    family=MEIXNER_EQ21,
    label="Meixner type with quadratic Newton argument (d >= 2)",
    kind=DIFFERENCE,
    params=("c", "beta"),
    aux_len=lambda d: d - 1,
    aux_text="a_0..a_(d-2), degree d-2",
    d_min=2,
    d_fixed=None,
    restrictions="c not in {0, 1/3, 1}; a_(d-2) != 0; "
                 "beta not a nonpositive integer for d = 2",
    generating_text="exp(pi(t)-pi(0)) * (1-t)^(-beta) * "
                    "(1 + ((c-1)/(2c)) (t^2 - 2t)/(1-t)^2)^x",
    factors=lambda d, p: (-p["beta"], 2, -(p["c"] - 1) / (2 * p["c"]), Fraction(1)),
))


def validate_params(spec: FamilySpec) -> tuple[str, ...]:
    """Return the violated restrictions (empty tuple means valid).

    Shape first (d, parameter names, aux length), then the few rules the
    couple cannot express, then the couple's own regularity decision: every
    other restriction in a family's text is that decision written out for
    the family's parameters.
    """
    return spec._screened[0]


def _screen(spec: FamilySpec) -> tuple[tuple[str, ...], CoupleSpec | None]:
    # validate_params' verdict and the couple its regularity decision built
    # (None when a structural or value rule failed first)
    info = FAMILIES[spec.family]
    violations = []

    if info.d_fixed is not None and spec.d != info.d_fixed:
        violations.append(f"{spec.family} requires d = {info.d_fixed}, got d = {spec.d}")
    elif spec.d < info.d_min:
        violations.append(f"{spec.family} requires d >= {info.d_min}, got d = {spec.d}")

    missing = [p for p in info.params if p not in spec.params]
    unknown = [p for p in spec.params if p not in info.params]
    if missing:
        violations.append(f"missing parameter(s): {', '.join(missing)}")
    if unknown:
        violations.append(f"unknown parameter(s): {', '.join(sorted(unknown))}")

    if info.aux_len is None:
        if spec.aux is not None:
            violations.append(f"{spec.family} takes no auxiliary polynomial")
    else:
        want = max(info.aux_len(spec.d), 0) if spec.d >= 1 else 0
        # an omitted auxiliary polynomial means the zero polynomial
        if spec.aux is not None and len(spec.aux) != want:
            violations.append(
                f"auxiliary polynomial needs {want} coefficient(s) ({info.aux_text}), "
                f"got {len(spec.aux)}"
            )

    if violations:
        # structural problems first; value restrictions need the right shape
        return tuple(violations), None

    p = spec.params
    fam = spec.family
    # the couple divides by c and c - 1, and its omega = 0 is no difference step
    if fam in (MEIXNER_EQ14, MEIXNER_EQ16, MEIXNER_EQ21) and p["c"] in (0, 1):
        violations.append(f"c = {p['c']} must avoid 0 and 1")
    if fam == CHARLIER_EQ13 and p["omega"] == 0:
        violations.append("omega must be nonzero")
    # at d = 2 the derivative of pi drops a_0 before it reaches the couple
    if fam == MEIXNER_EQ21 and _aux_poly(spec).coeff(spec.d - 2) == 0:
        violations.append("leading auxiliary coefficient a_(d-2) must be nonzero")
    if violations:
        return tuple(violations), None

    couple = _couple_of(spec)
    broken = couple.violations()
    if broken:
        values = [f"d = {spec.d}"] + [f"{k} = {v}" for k, v in p.items()]
        if spec.aux is not None:
            values.append("aux = " + ",".join(str(a) for a in spec.aux))
        violations.append(
            f"{fam} at {', '.join(values)} violates {info.restrictions!r}: "
            f"its couple has {'; '.join(broken)}"
        )
    return tuple(violations), couple


_ONE_MINUS_T = Poly((1, -1))


def _aux_poly(spec: FamilySpec) -> Poly:
    return Poly(spec.aux or ())


def family_couple(spec: FamilySpec) -> CoupleSpec:
    """The couple (gamma, sigma) of a valid family instance.

    It is the couple that validation built, kept on the spec, so it is
    built once per spec.
    """
    violations, couple = spec._screened
    if violations:
        raise InvalidParameterError("; ".join(violations))
    return couple


def _couple_of(spec: FamilySpec) -> CoupleSpec:
    # the couple of a well-shaped spec with c not in {0, 1}, unchecked
    d = spec.d
    p = spec.params
    fam = spec.family
    if fam == LAGUERRE_EQ9:
        a = p["alpha"]
        gamma = _ONE_MINUS_T ** d * (-(a + 1))
        sigma = _ONE_MINUS_T ** (d + 1) * Fraction(-1, d)
    elif fam == LAGUERRE_EQ10:
        a = p["alpha"]
        dpi = _aux_poly(spec).derivative()
        sq = _ONE_MINUS_T ** 2
        gamma = -(sq * dpi) - _ONE_MINUS_T * (a + 1)
        sigma = -sq
    elif fam == LAGUERRE_EQ11:
        a = p["alpha"]
        gamma = _ONE_MINUS_T ** 2 * (-(a + 1))
        sigma = -(_ONE_MINUS_T ** 3)
    elif fam == HERMITE_EQ12:
        gamma = _aux_poly(spec).derivative()
        sigma = Poly.one()
    elif fam == CHARLIER_EQ13:
        lin = Poly((1, p["omega"]))
        gamma = lin * _aux_poly(spec).derivative()
        sigma = lin
    elif fam == MEIXNER_EQ14:
        c, beta = p["c"], p["beta"]
        base = Poly((c, -1)) * _ONE_MINUS_T * (1 / (c - 1))
        gamma = base * _aux_poly(spec).derivative() + Poly((c, -1)) * (beta / (c - 1))
        sigma = base
    elif fam == MEIXNER_EQ16:
        c, beta = p["c"], p["beta"]
        bracket = _ONE_MINUS_T ** d * ((d * c - c + 1) / (d * c)) + Poly(((c - 1) / (d * c),))
        gamma = bracket * (d * c * beta / (c - 1))
        sigma = _ONE_MINUS_T * bracket * (c / (c - 1))
    elif fam == MEIXNER_EQ21:
        c, beta = p["c"], p["beta"]
        bracket = Poly((1, -2, 1)) * ((3 * c - 1) / (2 * c)) - Poly(((c - 1) / (2 * c),))
        dpi = _aux_poly(spec).derivative()
        gamma = -(_ONE_MINUS_T * bracket * dpi) * (c / (c - 1)) - bracket * (beta * c / (c - 1))
        sigma = -(_ONE_MINUS_T * bracket) * (c / (c - 1))
    else:  # pragma: no cover
        raise InvalidParameterError(f"unknown family: {fam!r}")
    return CoupleSpec(d=d, gamma=gamma.coeffs, sigma=sigma.coeffs)


def family_generating(spec: FamilySpec, N: int) -> ShefferPair:
    """The closed-form generating pair at order N, from its own ODEs (module docstring)."""
    family_couple(spec)
    if N < 1:
        raise ValueError("order must be at least 1")
    e, k, s, omega = FAMILIES[spec.family].factors(spec.d, spec.params)
    omega_s = omega * s
    dpi = [j * a for j, a in enumerate(spec.aux or ()) if j]                    # pi'
    ints, _ = scaled([1, -1, *(c - b for b, c in zip([e, *dpi], [*dpi, 0]))])  # (1 - t) pi' - e
    A = _first_order(ints[:2], ints[2:], (), Fraction(1), N)
    # p H' = s k with p = (1 - omega s)(1 - t)^(k+1) + omega s (1 - t), k >= -1
    p = [(1 - omega_s) * comb(k + 1, j) * (-1) ** j for j in range(max(k + 2, 2))]
    p[0] += omega_s
    p[1] -= omega_s
    ints, _ = scaled([*p, s * k])
    Hx = _first_order(ints[:-1], (), ints[-1:], Fraction(0), N)
    return ShefferPair(A=A, Hx=Hx)


def family_lowering(spec: FamilySpec, N: int) -> Series:
    """The family's H* at truncation order N, the series of its lowering operator H*(D)."""
    return FunctionalVector(family_couple(spec), N, 1).hstar


def laguerre2_moments(alpha: Fraction, i: int, order: int) -> tuple[Fraction, ...]:
    """Moments <u_i, x^m>, m = 0..order, of the 2-orthogonal Laguerre-type family.

    mu_i(m) = (2^m / i!) sum_{r=0}^{i} C(i,r) (-1)^r ((alpha+r+1)/2)_m,

    each 2^m ((alpha+r+1)/2)_m a running product over m.  The rewriting
    behind it is certified in the tests by the duplication identity
    (alpha+1)_{2k} = 4^k ((alpha+1)/2)_k ((alpha+2)/2)_k.
    """
    alpha = exact(alpha)
    if alpha == -1:
        raise InvalidParameterError("alpha = -1 is excluded")
    if not 0 <= i <= 1:
        raise IndexError(f"functional index {i} out of range for d=2")
    mu = [Fraction(0)] * (order + 1)
    for r in range(i + 1):
        term = Fraction(comb(i, r) * (-1) ** r, factorial(i))
        for m in range(order + 1):
            mu[m] += term
            term *= alpha + r + 1 + 2 * m
    return tuple(mu)


def _meixner_weight_ratio(d: int, c: Fraction) -> Fraction:
    # w = dc / (1 + c(d-1)); the defining node series converges iff |w| < 1
    denom = 1 + c * (d - 1)
    if denom == 0:
        raise InvalidParameterError(f"c = {c} must avoid 1/(1-d)")
    return d * c / denom


def _meixner_gates(d: int, c: Fraction, r: int) -> Fraction:
    if d < 1:
        raise InvalidParameterError(f"d must be >= 1, got {d}")
    if c in (0, 1):
        raise InvalidParameterError(f"c = {c} must avoid 0 and 1")
    if not 0 <= r < d:
        raise IndexError(f"functional index {r} out of range for d={d}")
    w = _meixner_weight_ratio(d, Fraction(c))
    if abs(w) >= 1:
        raise DivergentParameterError(
            f"node series diverges: |dc/(1 + c(d-1))| = {abs(w)} >= 1"
        )
    return w


def meixner_moments(d: int, c: Fraction, beta: Fraction,
                    r: int, order: int) -> tuple[Fraction, ...]:
    """Exact moments <u_r, x^m>, m = 0..order, of the Meixner-type family.

    The defining value is (1/r!) sum_i C(r,i)(-1)^i times a series over
    integer nodes j; expanding x^m at the nodes in falling factorials
    collapses each node series to the finite sum over k of S(m,k) g_k, with

        g_k = (1/r!) sum_i C(r,i) (-1)^i (beta+i/d)_k z^k,   z = w/(1 - w),

    w = dc/(1 + c(d-1)), using (1 - dc/(c-1)) (1 - w) = 1.  The g_k are
    running products, read by every row of one Stirling table.  Demands
    |w| < 1, where the node series converges.
    """
    c = exact(c)
    beta = exact(beta)
    w = _meixner_gates(d, c, r)
    z = w / (1 - w)
    g = [Fraction(0)] * (order + 1)
    for i in range(r + 1):
        b = beta + Fraction(i, d)
        term = Fraction(comb(r, i) * (-1) ** i, factorial(r))
        for k in range(order + 1):
            g[k] += term
            term *= (b + k) * z
    ints, D = scaled(g)
    return tuple(Fraction(sum(map(mul, row, ints)), D) for row in stirling2_rows(order, order))


def explicit_functional(spec: FamilySpec):
    """Closed-form moment rows for families that have them, or None.

    Returns (label, rows) with rows(i, order) the moments <u_i, x^m> for
    m = 0..order, a tuple of order + 1 Fractions, for use as an independent
    cross-check against the operator-series route.
    """
    p = spec.params
    if spec.family == LAGUERRE_EQ11:
        return ("laguerre2-series", partial(laguerre2_moments, p["alpha"]))
    if spec.family == MEIXNER_EQ16:
        c, beta = p["c"], p["beta"]
        if abs(_meixner_weight_ratio(spec.d, c)) < 1:
            return ("meixner-node-series", partial(meixner_moments, spec.d, c, beta))
        return None
    if spec.family == MEIXNER_EQ14 and spec.d == 1:
        c, beta = p["c"], p["beta"]
        if 0 < c < 1:
            return ("meixner-classical", partial(meixner_moments, 1, c, beta))
    return None


def default_spec(family: str, d: int) -> FamilySpec:
    """The documented default parameter sample for a family at a given d."""
    info = FAMILIES[family]
    params = {}
    if "alpha" in info.params:
        params["alpha"] = Fraction(1, 2)
    if "beta" in info.params:
        params["beta"] = Fraction(1)
    if "c" in info.params:
        params["c"] = Fraction(1, 2)
    if "omega" in info.params:
        params["omega"] = Fraction(1)
    aux = None
    if info.aux_len is not None:
        aux = tuple(Fraction(1) for _ in range(info.aux_len(d)))
    return FamilySpec(family=family, d=d, params=params, aux=aux)


def default_sample_specs() -> tuple[FamilySpec, ...]:
    """One valid default FamilySpec per family and applicable d in {1, 2, 3}."""
    out = []
    for family, info in FAMILIES.items():
        if info.d_fixed is not None:
            ds = (info.d_fixed,)
        else:
            ds = tuple(d for d in (1, 2, 3) if d >= info.d_min)
        for d in ds:
            out.append(default_spec(family, d))
    return tuple(out)
