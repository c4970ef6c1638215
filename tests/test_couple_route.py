"""The couple route to H* and the functionals against the reference route.

The verifier builds the lowering series y = H* and the functional operator
series y^i / A(y) from the couple alone, by the ODE (1 + omega s) y' =
sigma(y).  The reference route reverts the closed-form H (the Newton form h
for difference families) and composes t^i / A(t) with the result.  The two
share no code past the family's couple and generating pair, and must agree
coefficient for coefficient.  The verifier keeps only the moment table
<u_i, x^j>, built by one formula for both operator kinds (Stirling numbers
for a step, the diagonal j! without one); the reference moments apply the
base operator to x^j instead.  verify and functionals build H*(D) for every
source, and a difference family's own h*(Delta_omega) must give the same
moment integers and the same lowering verdicts.
"""

import contextlib
import io
import json
import random
from fractions import Fraction
from functools import lru_cache
from math import factorial

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dsheffer import (
    DERIVATIVE,
    DIFFERENCE,
    FunctionalVector,
    LoweringOp,
    Poly,
    PolySequence,
    Series,
    apply_base,
    check_conditions,
    expand_polynomials,
    functional_eval,
    lowering_from_couple,
    lowering_from_H,
    pair_from_couple,
    verify_lowering,
)
from dsheffer import catalog
from dsheffer.catalog import FAMILIES, FamilySpec
from dsheffer.cli import main
from dsheffer.sheffer import CoupleSpec

F = Fraction


def reference_ops(A: Series, hstar: Series, d: int):
    """t^i / A(t) composed with H*, for i < d."""
    inv_a = A.invert_mul()
    return [(Series.monomial(i, hstar.order) * inv_a).compose(hstar) for i in range(d)]


def base_values(lop, f: Poly) -> list[Fraction]:
    """[B^k f]_(x=0) for k <= deg f, applying the base operator B k times."""
    values = []
    g = f
    for _ in f.coeffs:                         # B lowers the degree of f each time
        values.append(g(Fraction(0)))
        g = apply_base(lop.kind, g, lop.omega)
    return values


def reference_value(w: Series, i: int, values) -> Fraction:
    """(1/i!) sum_k w_k [B^k f]_(x=0), given the values of base_values."""
    return sum((c * b for c, b in zip(w.coeffs, values)), Fraction(0)) / factorial(i)


def reference_eval(w: Series, i: int, lop, f: Poly) -> Fraction:
    return reference_value(w, i, base_values(lop, f))


@lru_cache(maxsize=None)
def monomial_base_values(kind: str, omega, order: int):
    """base_values of x^0..x^order; they depend on the base operator only."""
    lop = LoweringOp(kind, Series.identity(order), omega)
    return [base_values(lop, Poly.monomial(j)) for j in range(order + 1)]


def reference_moments(ops, lop):
    """<u_i, x^j> for j up to the operator order, by the reference evaluator."""
    values = monomial_base_values(lop.kind, lop.omega, lop.hstar.order)
    return tuple(tuple(reference_value(w, i, v) for v in values) for i, w in enumerate(ops))


def reference_family(spec: FamilySpec, N: int):
    """H* and the functional series by Newton reversion of the closed form."""
    pair = catalog.family_generating(spec, N)
    if FAMILIES[spec.family].kind == DERIVATIVE:
        lop = lowering_from_H(pair.Hx, DERIVATIVE, N)
    else:
        # exp(x H) = (1 + omega h)^(x/omega): the Newton form h has the
        # family's stated step, omega for Charlier and 1 for Meixner
        omega = spec.params.get("omega", F(1))
        newton = ((pair.Hx * omega).exp() - 1) * (1 / omega)
        lop = lowering_from_H(newton, DIFFERENCE, N, omega=omega)
    return lop, reference_ops(pair.A, lop.hstar, spec.d)


def couple_route(couple: CoupleSpec, N: int, omega, d: int):
    lop = lowering_from_couple(couple, N, omega)
    return lop, FunctionalVector(couple, lop, d)


def assert_family_routes_agree(spec: FamilySpec, N: int):
    ref_lop, ref_ops = reference_family(spec, N)
    lop, v = couple_route(catalog.family_couple(spec), N, catalog.family_step(spec), spec.d)
    assert catalog.family_lowering(spec, N).hstar == lop.hstar
    assert (lop.kind, lop.omega) == (ref_lop.kind, ref_lop.omega), spec
    assert lop.hstar == ref_lop.hstar, spec
    ref_moments = reference_moments(ref_ops, ref_lop)
    for i in range(spec.d):
        assert v.moments[i] == ref_moments[i], (spec, i)


def test_default_samples_agree_at_order_24():
    specs = catalog.default_sample_specs()
    assert len(specs) == 21
    assert {FAMILIES[s.family].kind for s in specs} == {DERIVATIVE, DIFFERENCE}
    for spec in specs:
        assert_family_routes_agree(spec, 24)


def moment_rows(couple: CoupleSpec, lop, d: int):
    """The functionals' moment rows as their stored integers (nums, den)."""
    return [(row.nums, row.den) for row in FunctionalVector(couple, lop, d).rows]


def test_h_star_of_d_and_the_newton_step_agree_on_every_sample():
    # verify and functionals build H*(D) with no step; a difference family's
    # h*(Delta_omega) is the same operator on polynomials, so it must give the
    # same moment integers and flag the same P_n
    for spec in catalog.default_sample_specs():
        couple = catalog.family_couple(spec)
        for N in (12, 24):
            order = N + N // spec.d
            plain = lowering_from_couple(couple, order)
            newton = lowering_from_couple(couple, order, catalog.family_step(spec))
            assert moment_rows(couple, plain, spec.d) == moment_rows(couple, newton, spec.d), \
                (spec, N)
            polys = list(expand_polynomials(catalog.family_generating(spec, N), N))
            for p7, expected in ((polys[7], ()), (polys[7] * 2, (7, 8)),
                                 (polys[7] + polys[3], (7, 8))):
                seq = PolySequence(tuple(polys[:7] + [p7] + polys[8:]))
                verdicts = [verify_lowering(seq, lop).failures for lop in (plain, newton)]
                assert verdicts == [expected] * 2, (spec, N, expected)


def charlier_with_step(d: int, omega: Fraction) -> FamilySpec:
    default = catalog.default_spec(catalog.CHARLIER_EQ13, d)
    return FamilySpec(family=default.family, d=d, params={"omega": omega}, aux=default.aux)


def test_charlier_non_unit_steps_agree_at_order_24():
    # the default samples all step by 1, where omega^(j-l) never differs from 1
    for d in (1, 2):
        for omega in (F(1, 3), F(-2)):
            assert_family_routes_agree(charlier_with_step(d, omega), 24)


def random_regular_couple(rng: random.Random) -> CoupleSpec:
    def coeff():
        return F(rng.randint(-9, 9), rng.choice((1, 2, 3)))

    while True:
        d = rng.randint(1, 4)
        couple = CoupleSpec(d=d, gamma=tuple(coeff() for _ in range(d + 1)),
                            sigma=tuple(coeff() for _ in range(d + 2)))
        if check_conditions(couple, 24).passed:
            return couple


def test_couple_sources_agree_at_order_24():
    rng = random.Random(20261018)
    couples = [
        CoupleSpec(d=1, gamma=(F(-1), F(1)), sigma=(F(-1), F(2), F(-1))),   # Laguerre
        CoupleSpec(d=1, gamma=(F(0), F(-1)), sigma=(F(1),)),                # Hermite
    ] + [random_regular_couple(rng) for _ in range(6)]
    for couple in couples:
        pair = pair_from_couple(couple, 24)
        ref = lowering_from_H(pair.Hx, DERIVATIVE, 24)
        lop, v = couple_route(couple, 24, None, couple.d)
        assert lop.hstar == ref.hstar, couple
        ref_ops = reference_ops(pair.A, ref.hstar, couple.d)
        assert v.moments == reference_moments(ref_ops, ref), couple


# ---------------------------------------------------------------- functional values

PROPERTY_SPECS = catalog.default_sample_specs() + (charlier_with_step(2, F(-2, 3)),)


@lru_cache(maxsize=None)
def property_routes(index: int):
    """Reference operator and series, and the verifier's table, at order 12."""
    spec = PROPERTY_SPECS[index]
    ref_lop, ref_ops = reference_family(spec, 12)
    _, v = couple_route(catalog.family_couple(spec), 12, catalog.family_step(spec), spec.d)
    return ref_lop, ref_ops, v


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_functional_eval_matches_the_reference_evaluator(data):
    ref_lop, ref_ops, v = property_routes(
        data.draw(st.integers(min_value=0, max_value=len(PROPERTY_SPECS) - 1)))
    i = data.draw(st.integers(min_value=0, max_value=v.d - 1))
    f = Poly(data.draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                                max_size=v.order + 1)))
    assert functional_eval(v, i, f) == reference_eval(ref_ops[i], i, ref_lop, f)


# ---------------------------------------------------------------- random family parameters

RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def family_specs(draw):
    info = FAMILIES[draw(st.sampled_from(sorted(FAMILIES)))]
    d = info.d_fixed or draw(st.integers(min_value=info.d_min, max_value=3))
    params = {name: draw(RATIONALS) for name in info.params}
    aux = None
    if info.aux_len is not None:
        aux = tuple(draw(RATIONALS) for _ in range(info.aux_len(d)))
    spec = FamilySpec(family=info.family, d=d, params=params, aux=aux)
    assume(not catalog.validate_params(spec))
    return spec


def family_argv(spec: FamilySpec) -> list[str]:
    argv = ["--family", spec.family, "--d", str(spec.d)]
    for name, value in sorted(spec.params.items()):
        argv += ["--param", f"{name}={value}"]
    if spec.aux is not None:
        argv.append("--aux=" + ",".join(str(a) for a in spec.aux))
    return argv


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.filter_too_much])
@given(family_specs())
def test_random_valid_parameters_agree_and_verify(spec):
    # verify --order 6 builds the operator and the functionals at order 12
    assert_family_routes_agree(spec, 12)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["verify", "--order", "6"] + family_argv(spec))
    report = json.loads(out.getvalue())
    assert (code, report["overall"]) == (0, "pass"), report
