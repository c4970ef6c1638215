"""The couple route to H* and the functionals against the reference route.

The verifier builds the lowering series y = H* and the functional operator
series y^i / A(y) from the couple alone, by the ODE y' = sigma(y), and
keeps the moment table <u_i, x^j> = w_j j!/i!.  The reference route
reverts the closed-form H and composes t^i / A(t) with the result, and its
moments apply the base operator to x^j.  For a difference family the
reference is the Newton step's Fraction oracle of tests/reference.py: it
reverts the Newton form h and applies Delta_omega, so h*(Delta_omega) is
held against the verifier's H*(D), the same operator on polynomials.  The
two routes share no code past the family's couple and generating pair, and
must give the same moments and flag the same P_n.
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
from reference import base_values, fraction_hstar, invert_mul, lowering_failures, monomial, \
    mul, newton_hstar, newton_step, stepped_moments

from dsheffer import (
    FunctionalVector,
    Poly,
    PolySequence,
    Series,
    check_conditions,
    expand_polynomials,
    pair_from_couple,
    verify_lowering,
)
from dsheffer import catalog
from dsheffer.catalog import FAMILIES, FamilySpec
from dsheffer.cli import main
from dsheffer.operators import functional_eval, lowering_from_H
from dsheffer.sheffer import CoupleSpec

F = Fraction


def reference_ops(A: Series, hstar: Series, d: int):
    """t^i / A(t) composed with H*, for i < d."""
    inv_a = invert_mul(A)
    return [mul(monomial(i, hstar.order), inv_a).compose(hstar) for i in range(d)]


def reference_eval(w: Series, i: int, omega, f: Poly) -> Fraction:
    """(1/i!) sum_k w_k [B^k f]_(x=0), B = D, or Delta_omega for a step omega."""
    values = base_values(f, omega)
    return sum((c * b for c, b in zip(w.coeffs, values)), Fraction(0)) / factorial(i)


def reference_family(spec: FamilySpec, N: int):
    """(y, omega, functional series): H* of the closed form, or h* of its Newton form."""
    pair = catalog.family_generating(spec, N)
    omega = newton_step(spec)
    hstar = lowering_from_H(pair.Hx, N) if omega is None else newton_hstar(spec, N)
    return hstar, omega, reference_ops(pair.A, hstar, spec.d)


def couple_route(couple: CoupleSpec, N: int, d: int):
    v = FunctionalVector(couple, N, d)
    return v.hstar, v


def assert_family_routes_agree(spec: FamilySpec, N: int):
    couple = catalog.family_couple(spec)
    hstar, omega, ref_ops = reference_family(spec, N)
    lop, v = couple_route(couple, N, spec.d)
    assert catalog.family_lowering(spec, N) == lop
    # H*(D) from the couple, and the reference's operator from the couple's
    # stepped ODE, (1 + omega s) y' = sigma(y)
    assert lop.coeffs == tuple(fraction_hstar(couple, N)), spec
    assert hstar.coeffs == tuple(fraction_hstar(couple, N, omega)), spec
    ref_moments = stepped_moments(ref_ops, omega, N)
    for i in range(spec.d):
        assert v.rows[i].coeffs == ref_moments[i], (spec, i)


def test_default_samples_agree_at_order_24():
    specs = catalog.default_sample_specs()
    assert len(specs) == 21
    assert {FAMILIES[s.family].kind for s in specs} == {catalog.DERIVATIVE, catalog.DIFFERENCE}
    for spec in specs:
        assert_family_routes_agree(spec, 24)


def test_h_star_of_d_and_the_newton_step_agree_on_every_sample():
    # verify and functionals build H*(D); a difference family's h*(Delta_omega)
    # is the same operator on polynomials, so the stepped oracle must give the
    # same moments and flag the same P_n.  The oracle applies its base
    # operator n times per P_n and j times per x^j, so it runs at N = 12
    # (order 24 is test_default_samples_agree_at_order_24's)
    for spec in catalog.default_sample_specs():
        couple = catalog.family_couple(spec)
        omega = newton_step(spec)
        for N in (12, 24):
            order = N + N // spec.d
            v = FunctionalVector(couple, order, spec.d)
            plain = v.hstar
            if N == 12:
                hstar, _, ref_ops = reference_family(spec, order)
                moments = tuple(r.coeffs for r in v.rows)
                assert moments == stepped_moments(ref_ops, omega, order), spec
            polys = list(expand_polynomials(catalog.family_generating(spec, N), N))
            for p7, expected in ((polys[7], ()), (polys[7] * 2, (7, 8)),
                                 (polys[7] + polys[3], (7, 8))):
                seq = PolySequence(tuple(polys[:7] + [p7] + polys[8:]))
                assert verify_lowering(seq, plain).failures == expected, (spec, N)
                if N == 12:
                    assert tuple(lowering_failures(seq, hstar.coeffs, omega)) == expected, spec


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
        ref = lowering_from_H(pair.Hx, 24)
        lop, v = couple_route(couple, 24, couple.d)
        assert lop == ref, couple
        ref_ops = reference_ops(pair.A, ref, couple.d)
        assert tuple(r.coeffs for r in v.rows) == stepped_moments(ref_ops, None, 24), couple


# ---------------------------------------------------------------- functional values

PROPERTY_SPECS = catalog.default_sample_specs() + (charlier_with_step(2, F(-2, 3)),)


@lru_cache(maxsize=None)
def property_routes(index: int):
    """Reference step and series, and the verifier's table, at order 12."""
    spec = PROPERTY_SPECS[index]
    _, omega, ref_ops = reference_family(spec, 12)
    _, v = couple_route(catalog.family_couple(spec), 12, spec.d)
    return omega, ref_ops, v


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_functional_eval_matches_the_reference_evaluator(data):
    omega, ref_ops, v = property_routes(
        data.draw(st.integers(min_value=0, max_value=len(PROPERTY_SPECS) - 1)))
    i = data.draw(st.integers(min_value=0, max_value=v.d - 1))
    f = Poly(data.draw(st.lists(st.fractions(min_value=-9, max_value=9, max_denominator=7),
                                max_size=v.order + 1)))
    assert functional_eval(v, i, f) == reference_eval(ref_ops[i], i, omega, f)


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
