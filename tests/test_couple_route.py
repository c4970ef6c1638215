"""The couple route to H* and the functionals against the reference route.

The verifier builds the lowering series y = H* and the functional operator
series y^i / A(y) from the couple alone, by the ODE (1 + omega s) y' =
sigma(y).  The reference route reverts the closed-form H (the Newton form h
for difference families) and composes t^i / A(t) with the result.  The two
share no code past the family's couple and generating pair, and must agree
coefficient for coefficient.
"""

import contextlib
import io
import json
import random
from fractions import Fraction

from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from dsheffer import (
    DERIVATIVE,
    DIFFERENCE,
    FunctionalVector,
    Series,
    check_conditions,
    lowering_from_couple,
    lowering_from_H,
    pair_from_couple,
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
    for i in range(spec.d):
        assert v._ops[i] == ref_ops[i], (spec, i)


def test_default_samples_agree_at_order_24():
    specs = catalog.default_sample_specs()
    assert len(specs) == 21
    assert {FAMILIES[s.family].kind for s in specs} == {DERIVATIVE, DIFFERENCE}
    for spec in specs:
        assert_family_routes_agree(spec, 24)


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
        assert list(v._ops) == reference_ops(pair.A, ref.hstar, couple.d), couple


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
