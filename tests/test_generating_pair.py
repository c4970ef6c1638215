"""The generating pairs from their own first-order ODEs, against the chains they replaced.

`pair_from_couple` solves sigma H' = 1 and sigma A' = gamma A, and
`catalog.family_generating` solves (1 - t) A' = ((1 - t) pi' - e) A and, for
both kinds, p H' = s k with p = (1 - omega s)(1 - t)^(k+1) + omega s (1 - t)
(omega = 0 for the derivative kind).  Both must store exactly the
(nums, den) of the routes from before (tests/reference.py): 1/sigma,
integrals, a product and exp for the couple; powers of 1 - t as
exp(r log s), exp(pi - pi(0)), a product and the difference kind's
log(1 + omega h)/omega for the catalog.  Each pair is exactly two first-order
ODEs on the series kernel, with no series product and no other recurrence
(`Series` has no inverse to call).
"""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsheffer import CoupleSpec, Series, couple_from_json_dict, pair_from_couple
from dsheffer import catalog, series, sheffer
from reference import chain_family_generating, chain_pair_from_couple
from sweep import load_workloads

F = Fraction
SAMPLES = {f"{s.family}-d{s.d}": s for s in catalog.default_sample_specs()}
CHARLIER = {f"omega={omega}-d{d}": catalog.FamilySpec(
    family=catalog.CHARLIER_EQ13, d=d, params={"omega": omega},
    aux=catalog.default_spec(catalog.CHARLIER_EQ13, d).aux)
    for omega in (F(1, 3), F(-2)) for d in (1, 2, 3)}
SEED_COUPLES = {f"seed{seed}-{i}": couple_from_json_dict(doc) for seed in (1, 2, 3)
                for i, doc in enumerate(load_workloads().draw_couples(seed))}


def forms(pair) -> tuple:
    return pair.A.nums, pair.A.den, pair.Hx.nums, pair.Hx.den


# the difference kind's H left its logarithm for p H' = s k: N = 96 checks it far out
DIFFERENCE = [name for name, spec in SAMPLES.items()
              if catalog.FAMILIES[spec.family].kind == catalog.DIFFERENCE]
FAMILY_ORDERS = [*((name, N) for N in (1, 12, 40) for name in [*SAMPLES, *CHARLIER]),
                 *((name, 96) for name in [*DIFFERENCE, *CHARLIER])]


@pytest.mark.parametrize("name, N", FAMILY_ORDERS)
def test_family_pair_equals_the_chain(name, N):
    spec = SAMPLES.get(name) or CHARLIER[name]
    assert forms(catalog.family_generating(spec, N)) == forms(chain_family_generating(spec, N))
    couple = spec.couple
    assert forms(pair_from_couple(couple, N)) == forms(chain_pair_from_couple(couple, N))


@pytest.mark.parametrize("N", (20, 48))
@pytest.mark.parametrize("name", SEED_COUPLES)
def test_seed_couple_pair_equals_the_chain(name, N):
    couple = SEED_COUPLES[name]
    assert forms(pair_from_couple(couple, N)) == forms(chain_pair_from_couple(couple, N))


small = st.fractions(min_value=-5, max_value=5, max_denominator=9)
nonzero = small.filter(bool)


@st.composite
def valid_couples(draw):
    """Couples with beta_d != 0 and alpha_0 != 0, d = 1..4, regular or not."""
    d = draw(st.integers(1, 4))
    return CoupleSpec(d=d,
                      gamma=tuple(draw(small) for _ in range(d)) + (draw(nonzero),),
                      sigma=(draw(nonzero),) + tuple(draw(small) for _ in range(d + 1)))


@settings(max_examples=60, deadline=None)
@given(valid_couples(), st.integers(1, 40))
def test_couple_pair_equals_the_chain(couple, N):
    assert forms(pair_from_couple(couple, N)) == forms(chain_pair_from_couple(couple, N))


def counting(monkeypatch, owner, name) -> list:
    """Record the calls of owner.name from now on."""
    calls, original = [], getattr(owner, name)

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(owner, name, counted)
    return calls


def test_the_pairs_run_no_product_exp_inverse_or_power(monkeypatch):
    specs = [*SAMPLES.values(), *CHARLIER.values()]
    assert {catalog.FAMILIES[s.family].kind for s in specs} == {catalog.DERIVATIVE,
                                                                catalog.DIFFERENCE}
    assert not hasattr(Series, "invert_mul")
    spied = {"_convolve": counting(monkeypatch, series, "_convolve")}
    solved = counting(monkeypatch, series, "_first_order")
    recurrences = counting(monkeypatch, series, "_recurrence")
    for module in (sheffer, catalog):       # each binds the kernel's name on import
        monkeypatch.setattr(module, "_first_order", series._first_order)
    for couple in [*SEED_COUPLES.values(), *(s.couple for s in specs)]:
        solved.clear()
        recurrences.clear()
        pair_from_couple(couple, 24)
        assert len(solved) == 2, couple     # H, then A
        assert len(recurrences) == 2, couple
    for spec in specs:
        solved.clear()
        recurrences.clear()
        catalog.family_generating(spec, 24)
        assert len(solved) == 2, spec       # A, then H, on both kinds
        assert len(recurrences) == 2, spec
    assert all(calls == [] for calls in spied.values()), {k: len(v) for k, v in spied.items()}
