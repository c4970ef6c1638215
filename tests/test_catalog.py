"""The eight built-in families: restrictions, couples, functionals, evaluators."""

from contextlib import suppress
from dataclasses import replace
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st
from legacy_rules import violations
from meixner_numeric import meixner_functional_numeric
from reference import (
    branch_family_generating,
    constant,
    fraction_hstar,
    lowering_failures,
    monomial,
    newton_step,
    pow_rat,
    stirling_classical_meixner,
    sub,
)

from dsheffer import (
    FunctionalVector,
    Poly,
    expand_polynomials,
    pair_from_couple,
)
from dsheffer import catalog
from dsheffer.catalog import (
    CHARLIER_EQ13,
    DERIVATIVE,
    DIFFERENCE,
    DivergentParameterError,
    FAMILIES,
    FamilySpec,
    HERMITE_EQ12,
    InvalidParameterError,
    LAGUERRE_EQ9,
    LAGUERRE_EQ10,
    LAGUERRE_EQ11,
    MEIXNER_EQ14,
    MEIXNER_EQ16,
    MEIXNER_EQ21,
)
from dsheffer.operators import apply_lowering, functional_eval

F = Fraction


def mono(m: int) -> Poly:
    return Poly((0,) * m + (1,))


def spec_of(family, d, params=None, aux=None):
    return FamilySpec(family=family, d=d,
                      params={k: F(v) for k, v in (params or {}).items()},
                      aux=None if aux is None else tuple(F(a) for a in aux))


def family_functionals(spec, N):
    return FunctionalVector(spec.couple, N, d=spec.d)


# ---------------------------------------------------------------- registry

def test_registry_lists_eight_families():
    assert list(FAMILIES) == [
        LAGUERRE_EQ9, LAGUERRE_EQ10, LAGUERRE_EQ11, HERMITE_EQ12,
        CHARLIER_EQ13, MEIXNER_EQ14, MEIXNER_EQ16, MEIXNER_EQ21,
    ]


def test_operator_kinds():
    derivative = {LAGUERRE_EQ9, LAGUERRE_EQ10, LAGUERRE_EQ11, HERMITE_EQ12}
    for family, info in FAMILIES.items():
        expected = DERIVATIVE if family in derivative else DIFFERENCE
        assert info.kind == expected, family


def test_family_spec_coerces_params():
    spec = spec_of(LAGUERRE_EQ9, 1, {"alpha": 0})
    assert spec.params["alpha"] == F(0)
    assert isinstance(spec.params["alpha"], Fraction)



def test_family_spec_params_are_read_only():
    # the couple kept on the spec must match its values, so they cannot change
    spec = catalog.default_spec(LAGUERRE_EQ9, 1)
    couple = spec.couple
    with pytest.raises(TypeError):
        spec.params["alpha"] = F(-1)
    assert spec.couple is couple
    with pytest.raises(InvalidParameterError):
        spec_of(LAGUERRE_EQ9, 1, {"alpha": -1})
    assert spec == catalog.default_spec(LAGUERRE_EQ9, 1)
    assert dict(spec.params) == {"alpha": F(1, 2)}
    # the couple is neither compared nor printed: the spec is its values
    assert "couple" not in repr(spec)


def test_family_specs_hash_by_their_values():
    samples = catalog.default_sample_specs()
    assert len(set(samples)) == len(samples) == 21
    # params is compared but not hashed, so its order cannot split equal specs
    one = spec_of(MEIXNER_EQ16, 2, {"c": F(1, 2), "beta": 1})
    other = spec_of(MEIXNER_EQ16, 2, {"beta": 1, "c": F(1, 2)})
    assert one == other and hash(one) == hash(other)
    assert one in set(samples)
    assert spec_of(MEIXNER_EQ16, 2, {"c": F(1, 3), "beta": 1}) not in set(samples)


def test_unknown_family_rejected():
    with pytest.raises(InvalidParameterError):
        FamilySpec(family="legendre", d=1, params={}, aux=None)


def test_divergent_error_is_a_parameter_error():
    assert issubclass(DivergentParameterError, InvalidParameterError)


@pytest.mark.parametrize("family, params, rule", [
    (MEIXNER_EQ16, {"c": 1, "beta": 1}, "c = 1 must avoid 0 and 1"),
    (CHARLIER_EQ13, {"omega": 0}, "omega must be nonzero"),
])
def test_a_family_is_its_record(family, params, rule, monkeypatch):
    # a copy of a record under a new id is a whole family: its couple, closed
    # form and moments come from the record, its value rules from its names
    info = replace(FAMILIES[family], family="copy")
    monkeypatch.setitem(FAMILIES, "copy", info)
    for d in (1, 2):
        spec, twin = catalog.default_spec("copy", d), catalog.default_spec(family, d)
        assert spec.couple == twin.couple
        assert catalog.family_generating(spec, 8) == catalog.family_generating(twin, 8)
        ours, theirs = catalog.explicit_functional(spec), catalog.explicit_functional(twin)
        assert (ours and (ours[0], ours[1](0, 6))) == (theirs and (theirs[0], theirs[1](0, 6)))
    aux = catalog.default_spec("copy", 1).aux
    assert violations("copy", 1, params, aux) == (rule,)


# ---------------------------------------------------------------- validation

def test_default_samples_are_valid():
    specs = catalog.default_sample_specs()
    assert len(specs) == 21
    for spec in specs:
        assert spec.couple.violations() == (), spec.family


def irregular(family, values, fact):
    # the text of a couple's regularity violation, with the family's restrictions
    return (f"{family} at {values} violates {FAMILIES[family].restrictions!r}: "
            f"its couple has {fact}",)


# each invalid spec's arguments, and the restrictions it violates, in order
RESTRICTION_CASES = [
    ((LAGUERRE_EQ9, 1, {"alpha": -1}), irregular(LAGUERRE_EQ9, "d = 1, alpha = -1", "beta_d = 0")),
    ((LAGUERRE_EQ9, 2, {"alpha": "-3/2"}),              # d(alpha+1) = -1
     irregular(LAGUERRE_EQ9, "d = 2, alpha = -3/2", "n*alpha_(d+1) = beta_d at n = 1")),
    ((LAGUERRE_EQ10, 1, {"alpha": -2}),
     irregular(LAGUERRE_EQ10, "d = 1, alpha = -2", "n*alpha_(d+1) = beta_d at n = 1")),
    ((LAGUERRE_EQ10, 2, {"alpha": 0}, (1, 0)),          # a_{d-1} = 0
     irregular(LAGUERRE_EQ10, "d = 2, alpha = 0, aux = 1,0", "beta_d = 0")),
    ((LAGUERRE_EQ11, 1, {"alpha": "1/2"}),              # d is fixed at 2
     ("laguerre-eq11 requires d = 2, got d = 1",)),
    ((LAGUERRE_EQ11, 2, {"alpha": -3}),
     irregular(LAGUERRE_EQ11, "d = 2, alpha = -3", "n*alpha_(d+1) = beta_d at n = 2")),
    ((HERMITE_EQ12, 1, {}),                             # aux omitted -> zero leading
     irregular(HERMITE_EQ12, "d = 1", "beta_d = 0")),
    ((HERMITE_EQ12, 1, {}, (0, 0, 0)), irregular(HERMITE_EQ12, "d = 1, aux = 0,0,0", "beta_d = 0")),
    ((HERMITE_EQ12, 1, {}, (0, 0)),                     # wrong length
     ("auxiliary polynomial needs 3 coefficient(s) (a_0..a_(d+1), degree d+1), got 2",)),
    ((CHARLIER_EQ13, 1, {"omega": 0}, (0, 1)), ("omega must be nonzero",)),
    ((CHARLIER_EQ13, 1, {"omega": 1}, (1, 0)),
     irregular(CHARLIER_EQ13, "d = 1, omega = 1, aux = 1,0", "beta_d = 0")),
    ((MEIXNER_EQ14, 1, {"beta": 1, "c": 1}), ("c = 1 must avoid 0 and 1",)),
    ((MEIXNER_EQ14, 1, {"beta": 0, "c": "1/2"}),
     irregular(MEIXNER_EQ14, "d = 1, beta = 0, c = 1/2", "beta_d = 0")),
    ((MEIXNER_EQ14, 2, {"beta": 1, "c": "1/2"}, (1, 0)),
     irregular(MEIXNER_EQ14, "d = 2, beta = 1, c = 1/2, aux = 1,0", "beta_d = 0")),
    ((MEIXNER_EQ16, 2, {"beta": 1, "c": 0}), ("c = 0 must avoid 0 and 1",)),
    ((MEIXNER_EQ16, 2, {"beta": 1, "c": -1}),           # c = 1/(1-d)
     irregular(MEIXNER_EQ16, "d = 2, beta = 1, c = -1", "beta_d = 0")),
    ((MEIXNER_EQ16, 2, {"beta": "-1/2", "c": "1/2"}),   # d*beta = -1
     irregular(MEIXNER_EQ16, "d = 2, beta = -1/2, c = 1/2", "n*alpha_(d+1) = beta_d at n = 1")),
    ((MEIXNER_EQ21, 1, {"beta": 1, "c": "1/2"}),        # d_min = 2
     ("meixner-eq21 requires d >= 2, got d = 1",)),
    ((MEIXNER_EQ21, 2, {"beta": 1, "c": "1/3"}),
     ("leading auxiliary coefficient a_(d-2) must be nonzero",)),
    ((MEIXNER_EQ21, 3, {"beta": 1, "c": "1/2"}, (1, 0)),
     ("leading auxiliary coefficient a_(d-2) must be nonzero",)),
    ((LAGUERRE_EQ9, 1, {"alpha": 0, "beta": 1}),        # unknown parameter
     ("unknown parameter(s): beta",)),
    ((LAGUERRE_EQ9, 1, {}), ("missing parameter(s): alpha",)),
    ((LAGUERRE_EQ9, 1, {"alpha": 0}, (1,)),             # family takes no aux
     ("laguerre-eq9 takes no auxiliary polynomial",)),
    ((MEIXNER_EQ21, 2, {"beta": 0, "c": -1}, (1,)),     # gamma loses degree d
     irregular(MEIXNER_EQ21, "d = 2, beta = 0, c = -1, aux = 1", "beta_d = 0")),
    ((MEIXNER_EQ21, 2, {"beta": -1, "c": -1}, (1,)),    # irregular at n = 1
     irregular(MEIXNER_EQ21, "d = 2, beta = -1, c = -1, aux = 1",
               "n*alpha_(d+1) = beta_d at n = 1")),
    ((LAGUERRE_EQ11, 1, {"beta": 1}, (1,)),             # every shape rule at once
     ("laguerre-eq11 requires d = 2, got d = 1", "missing parameter(s): alpha",
      "unknown parameter(s): beta", "laguerre-eq11 takes no auxiliary polynomial")),
]


@pytest.mark.parametrize("spec, expected", RESTRICTION_CASES,
                         ids=[f"spec{i}" for i in range(len(RESTRICTION_CASES))])
def test_restriction_violations(spec, expected):
    # spec holds the arguments of a FamilySpec, which refuses to be built
    with pytest.raises(InvalidParameterError) as raised:
        spec_of(*spec)
    assert raised.value.violations == expected
    assert str(raised.value) == "; ".join(expected)


@pytest.mark.parametrize("spec", [
    spec_of(LAGUERRE_EQ9, 2, {"alpha": "-1/2"}),
    spec_of(LAGUERRE_EQ10, 1, {"alpha": "1/2"}),        # aux omitted, length 0+1... constant only
    spec_of(MEIXNER_EQ14, 1, {"beta": "5/2", "c": "-1/2"}),
    spec_of(MEIXNER_EQ16, 3, {"beta": "1/3", "c": 4}),
    spec_of(MEIXNER_EQ21, 2, {"beta": 1, "c": 3}, aux=(2,)),
    spec_of(MEIXNER_EQ21, 2, {"beta": "-1/2", "c": -1}, aux=(1,)),
    spec_of(MEIXNER_EQ21, 3, {"beta": -1, "c": -1}, aux=(1, 1)),
])
def test_unusual_but_valid_specs(spec):
    assert spec.couple.violations() == ()


def test_omitted_aux_means_zero_polynomial():
    with_zero = spec_of(MEIXNER_EQ14, 1, {"beta": 1, "c": "1/2"}, aux=(0,))
    without = spec_of(MEIXNER_EQ14, 1, {"beta": 1, "c": "1/2"})
    a = catalog.family_generating(with_zero, 6)
    b = catalog.family_generating(without, 6)
    assert a.A == b.A and a.Hx == b.Hx


# ---------------------------------------------------------------- couples

def test_laguerre_eq9_couple_d1():
    couple = spec_of(LAGUERRE_EQ9, 1, {"alpha": 0}).couple
    assert couple.gamma == (-1, 1)
    assert couple.sigma == (-1, 2, -1)


def test_hermite_couple_is_appell():
    couple = spec_of(HERMITE_EQ12, 1, {}, aux=(0, 0, "-1/2")).couple
    assert couple.gamma == (0, -1)
    assert couple.sigma == (1, 0, 0)


def test_charlier_couple_d1():
    # A = e^{-t}, Newton H = t at omega = 1: sigma = 1 + t, gamma = -(1 + t)
    couple = spec_of(CHARLIER_EQ13, 1, {"omega": 1}, aux=(0, -1)).couple
    assert couple.gamma == (-1, -1)
    assert couple.sigma == (1, 1, 0)


def test_couples_carry_the_declared_d():
    for spec in catalog.default_sample_specs():
        couple = spec.couple
        assert couple.d == spec.d
        assert couple.beta_d != 0
        assert couple.alpha_0 != 0


# ---------------------------------------------------------------- generating pairs

def test_generating_pair_invariants():
    for spec in catalog.default_sample_specs():
        pair = catalog.family_generating(spec, 8)
        assert pair.A.coeffs[0] == 1
        assert pair.Hx.coeffs[0] == 0
        assert pair.Hx.coeffs[1] != 0


def test_two_path_equality_small():
    for spec in catalog.default_sample_specs():
        direct = expand_polynomials(catalog.family_generating(spec, 8))
        via_couple = expand_polynomials(
            pair_from_couple(spec.couple, 8))
        for n in range(9):
            assert direct[n] == via_couple[n], (spec.family, spec.d, n)


GRID_VALUES = (F(1, 2), F(-3, 7), F(5, 3), F(2), F(-5, 2))


def grid_specs() -> list[FamilySpec]:
    """Every valid spec at d = 1..4 with parameters from GRID_VALUES, aux omitted or given."""
    specs = []
    for family, info in FAMILIES.items():
        for d, values in product(range(1, 5), product(GRID_VALUES, repeat=len(info.params))):
            auxes = [None]
            if info.aux_len is not None:
                auxes.append(tuple(GRID_VALUES[(d + i) % 5] for i in range(max(info.aux_len(d), 0))))
            for aux in auxes:
                with suppress(InvalidParameterError):
                    specs.append(FamilySpec(family=family, d=d,
                                            params=dict(zip(info.params, values)), aux=aux))
    return specs


def test_closed_form_factors_satisfy_the_couple_identities():
    # With H = h or log(1 + omega h)/omega, h = s((1-t)^(-k) - 1), and
    # A = exp(pi - pi(0)) (1-t)^e, the identities below are sigma H' = 1 and
    # sigma A' = gamma A with denominators cleared.  Since A(0) = 1 and
    # H(0) = 0, the closed form is the couple's pair at every order.
    one_minus_t = Poly((1, -1))
    specs = grid_specs()
    assert len(specs) == 362
    for spec in specs:
        e, k, s, omega = FAMILIES[spec.family].factors(spec.d, spec.params)
        couple = spec.couple
        gamma, sigma = Poly(couple.gamma), Poly(couple.sigma)
        dpi = Poly(spec.aux or ()).derivative()
        assert sigma * (s * k) == (one_minus_t ** (k + 1) * (1 - omega * s)
                                   + one_minus_t * (omega * s)), spec
        assert gamma * one_minus_t == sigma * (dpi * one_minus_t - Poly((e,))), spec
        pair = catalog.family_generating(spec, 1)
        assert pair.A.coeffs[0] == 1 and pair.Hx.coeffs[0] == 0, spec


small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=7)


@st.composite
def family_specs(draw) -> FamilySpec:
    family = draw(st.sampled_from(list(FAMILIES)))
    info = FAMILIES[family]
    d = info.d_fixed or draw(st.integers(info.d_min, 4))
    params = {name: draw(small_rationals) for name in info.params}
    aux = None
    if info.aux_len is not None and draw(st.booleans()):
        length = info.aux_len(d)
        aux = tuple(draw(st.lists(small_rationals, min_size=length, max_size=length)))
    try:
        return FamilySpec(family=family, d=d, params=params, aux=aux)
    except InvalidParameterError:
        reject()


@given(family_specs(), st.integers(1, 16).flatmap(lambda N: st.tuples(st.integers(1, N),
                                                                      st.just(N))))
@settings(max_examples=40, deadline=None)
def test_a_lower_order_family_pair_expands_to_a_prefix(spec, orders):
    # family_generating(spec, k) expands to P_0..P_k of the same family at N >= k
    k, N = orders
    short = expand_polynomials(catalog.family_generating(spec, k))
    assert short.polys == expand_polynomials(catalog.family_generating(spec, N)).polys[:k + 1]


@given(family_specs(), st.integers(1, 24))
@settings(max_examples=120, deadline=None)
def test_family_generating_equals_the_branch_oracle(spec, N):
    pair = catalog.family_generating(spec, N)
    oracle = branch_family_generating(spec, N)
    assert pair.A == oracle.A and pair.Hx == oracle.Hx


def test_meixner_eq16_first_polynomials():
    spec = catalog.default_spec(MEIXNER_EQ16, 2)       # beta = 1, c = 1/2
    seq = expand_polynomials(catalog.family_generating(spec, 3))
    assert seq[1] == Poly((2, -1))


def test_charlier_classical_convention():
    spec = spec_of(CHARLIER_EQ13, 1, {"omega": 1}, aux=(0, -1))
    seq = expand_polynomials(catalog.family_generating(spec, 3))
    assert seq[1] == Poly((-1, 1))                      # x - 1
    assert seq[2] == Poly((1, -3, 1))                   # x^2 - 3x + 1


# ---------------------------------------------------------------- lowering

def test_lowering_kind_follows_family():
    # the kind is the family's label; every family's operator is H*(D)
    assert FAMILIES[LAGUERRE_EQ9].kind == DERIVATIVE
    assert FAMILIES[CHARLIER_EQ13].kind == DIFFERENCE
    for family in (LAGUERRE_EQ9, CHARLIER_EQ13):
        spec = catalog.default_spec(family, 1)
        assert catalog.family_lowering(spec, 6) \
            == FunctionalVector(spec.couple, 6, 1).hstar


def test_lowering_drops_index_for_difference_families():
    for family, d in ((CHARLIER_EQ13, 1), (MEIXNER_EQ14, 1), (MEIXNER_EQ16, 2),
                      (MEIXNER_EQ21, 2)):
        spec = catalog.default_spec(family, d)
        seq = expand_polynomials(catalog.family_generating(spec, 5))
        op = catalog.family_lowering(spec, 12)
        for n in range(1, 6):
            assert apply_lowering(op, seq[n]) == seq[n - 1] * F(n), (family, n)
        # and so does the family's own h*(Delta_omega), the tests' oracle
        step = newton_step(spec)
        newton = fraction_hstar(spec.couple, 12, step)
        assert lowering_failures(seq, newton, step) == [], family


def test_eq11_lowering_matches_closed_form():
    # the lowering series H* must equal 1 - (1-2t)^{-1/2}
    spec = spec_of(LAGUERRE_EQ11, 2, {"alpha": "1/2"})
    op = catalog.family_lowering(spec, 16)
    closed = pow_rat(sub(constant(F(1), 16), monomial(1, 16, 2)), F(-1, 2))
    closed = sub(constant(F(1), 16), closed)
    assert op.coeffs == closed.coeffs


# ---------------------------------------------------------------- Laguerre 2-orthogonal functionals

def test_laguerre2_frozen_values():
    alpha = F(1, 2)
    assert catalog.laguerre2_moments(alpha, 0, 1)[0] == 1
    assert catalog.laguerre2_moments(alpha, 0, 1)[1] == F(3, 2)
    assert catalog.laguerre2_moments(alpha, 1, 1)[0] == 0
    assert catalog.laguerre2_moments(alpha, 1, 1)[1] == -1


def test_laguerre2_matches_operator_route():
    for alpha in (F(1, 2), F(0), F(3)):
        spec = spec_of(LAGUERRE_EQ11, 2, {"alpha": alpha})
        v = family_functionals(spec, 10)
        for i in (0, 1):
            row = catalog.laguerre2_moments(alpha, i, 8)
            for m in range(9):
                assert row[m] == functional_eval(v, i, mono(m)), (alpha, i, m)


def test_laguerre2_contracts():
    with pytest.raises(InvalidParameterError):
        catalog.laguerre2_moments(F(-1), 0, 0)
    with pytest.raises(IndexError):
        catalog.laguerre2_moments(F(0), 2, 0)


# ---------------------------------------------------------------- Meixner functionals

def test_meixner_exact_frozen_values():
    assert catalog.meixner_moments(2, F(1, 2), F(1), 0, 1)[1] == 2
    assert catalog.meixner_moments(2, F(1, 2), F(1), 0, 1)[0] == 1
    assert catalog.meixner_moments(2, F(1, 2), F(1), 1, 3)[3] == -79


def test_meixner_exact_matches_operator_route():
    for d, c, beta in ((2, F(1, 2), F(1)), (3, F(1, 5), F(2))):
        spec = spec_of(MEIXNER_EQ16, d, {"c": c, "beta": beta})
        v = family_functionals(spec, 8)
        for r in range(d):
            row = catalog.meixner_moments(d, c, beta, r, 6)
            for m in range(7):
                assert row[m] == functional_eval(v, r, mono(m)), (d, r, m)


def test_meixner_numeric_agrees_with_exact():
    row = catalog.meixner_moments(2, F(1, 2), F(1), 1, 6)
    for m in range(7):
        exact = row[m]
        approx = meixner_functional_numeric(2, F(1, 2), F(1), 1, mono(m))
        if exact == 0:
            assert abs(approx) < 1e-25
        else:
            assert abs(approx / float(exact) - 1) < 1e-12


def test_meixner_divergence_gate():
    # w = 2c/(1+c) = 9/4 at c = -9: the node series diverges
    with pytest.raises(DivergentParameterError):
        catalog.meixner_moments(2, F(-9), F(1), 0, 0)
    with pytest.raises(DivergentParameterError):
        meixner_functional_numeric(2, F(-9), F(1), 0, Poly.one())


def test_meixner_gates():
    with pytest.raises(InvalidParameterError):
        catalog.meixner_moments(0, F(1, 2), F(1), 0, 0)
    with pytest.raises(InvalidParameterError):
        catalog.meixner_moments(2, F(1), F(1), 0, 0)
    with pytest.raises(IndexError):
        catalog.meixner_moments(2, F(1, 2), F(1), 2, 0)


def test_classical_meixner_moments():
    values = list(catalog.meixner_moments(1, F(1, 2), F(1), 0, 4))
    assert values == [1, 1, 3, 13, 75]


def test_classical_meixner_needs_inner_c():
    # the classical functional is the d = 1 row only for |c| < 1, where its
    # node series converges (c = -1/2 is inside, see test_explicit_functional_routes)
    for c in ("3/2", "-3/2"):
        assert catalog.explicit_functional(spec_of(MEIXNER_EQ14, 1, {"beta": 1, "c": c})) is None


def test_meixner_d1_reduces_to_classical():
    for c, beta in ((F(1, 2), F(1)), (F(3, 4), F(5, 2))):
        one_d = catalog.meixner_moments(1, c, beta, 0, 6)
        for m in range(7):
            assert one_d[m] == stirling_classical_meixner(c, beta, mono(m)), (c, m)


# ---------------------------------------------------------------- evaluator routing

def test_explicit_functional_routes():
    lag = catalog.explicit_functional(spec_of(LAGUERRE_EQ11, 2, {"alpha": "1/2"}))
    assert lag is not None and lag[0] == "laguerre2-series"

    mix = catalog.explicit_functional(
        spec_of(MEIXNER_EQ16, 2, {"beta": 1, "c": "1/2"}))
    assert mix is not None and mix[0] == "meixner-node-series"

    divergent = catalog.explicit_functional(
        spec_of(MEIXNER_EQ16, 2, {"beta": 1, "c": -9}))
    assert divergent is None

    classical = catalog.explicit_functional(
        spec_of(MEIXNER_EQ14, 1, {"beta": 1, "c": "1/2"}))
    assert classical is not None and classical[0] == "meixner-classical"

    # the node series converges for |c| < 1, negative c included
    negative = catalog.explicit_functional(
        spec_of(MEIXNER_EQ14, 1, {"beta": 1, "c": "-1/2"}))
    assert negative is not None and negative[0] == "meixner-classical"

    assert catalog.explicit_functional(
        spec_of(LAGUERRE_EQ9, 1, {"alpha": 0})) is None


def test_explicit_functional_values_match_labelled_evaluator():
    spec = spec_of(MEIXNER_EQ16, 2, {"beta": 1, "c": "1/2"})
    label, rows = catalog.explicit_functional(spec)
    assert rows(0, 1)[1] == 2
    spec11 = spec_of(LAGUERRE_EQ11, 2, {"alpha": "1/2"})
    _, rows11 = catalog.explicit_functional(spec11)
    assert rows11(0, 1)[1] == F(3, 2)


ROW_SPECS = (
    [spec for spec in catalog.default_sample_specs() if catalog.explicit_functional(spec)]
    + [spec_of(MEIXNER_EQ16, d, {"c": c, "beta": beta})
       for d, c in ((1, "-1/3"), (1, "1/3"), (2, "-1/5"), (2, "-1/4"), (3, "-1/8"), (3, "2/5"))
       for beta in ("1/2", "-5/4")]
    + [spec_of(LAGUERRE_EQ11, 2, {"alpha": alpha}) for alpha in (0, 3, "-3/2")]
    + [spec_of(MEIXNER_EQ14, 1, {"c": "1/3", "beta": "5/2"})]
)


@pytest.mark.parametrize("spec", ROW_SPECS, ids=lambda s: f"{s.family}-d{s.d}-"
                         + "-".join(f"{k}{v}" for k, v in s.params.items()))
def test_explicit_rows_equal_the_functional_vector_at_order_40(spec):
    # the whole closed-form row, m = 0..40, against the couple's moment table
    fv = family_functionals(spec, 40)
    _, rows = catalog.explicit_functional(spec)
    for i in range(spec.d):
        row = rows(i, 40)
        assert len(row) == 41 and all(type(v) is F for v in row)
        assert row == fv.rows[i].coeffs, (spec, i)


# ---------------------------------------------------------------- defaults

def test_default_spec_shapes():
    spec = catalog.default_spec(HERMITE_EQ12, 2)
    assert spec.aux is not None and len(spec.aux) == 4


def test_default_samples_cover_each_family():
    families = {s.family for s in catalog.default_sample_specs()}
    assert families == set(FAMILIES)
    assert {s.d for s in catalog.default_sample_specs()
            if s.family == LAGUERRE_EQ11} == {2}
    assert {s.d for s in catalog.default_sample_specs()
            if s.family == MEIXNER_EQ21} == {2, 3}
