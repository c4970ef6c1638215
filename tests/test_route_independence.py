"""What each claim's two routes share, held to a list with a reason per entry.

`verify` decides a claim by computing one object two ways and comparing the
results: two_path (the closed-form expansion against the couple's
recurrence), recurrence (back-substitution in the checked sequence against
the couple's own rows), and lowering and orthogonality (the checked
sequence against the couple's FunctionalVector).  A fault in a function
that both ways call can move both results alike and pass the comparison
(Knight and Leveson, IEEE TSE 12(1), 1986).  The test records with
`sys.setprofile` the `src/` functions each route enters, over the 21
default samples and the sweep's rational edge couples, and requires the
functions both routes of a claim enter to be exactly those listed in
SHARED, each with the reason it may be shared.  A newly shared function
fails the test until it is listed with its reason, and a listed one that
is no longer shared fails it until it is taken off.
"""

from calltrace import names, recording
from sweep import EDGE_COUPLES

from dsheffer import catalog, dorth
from dsheffer.operators import FunctionalVector
from dsheffer.sheffer import (couple_from_json_dict, expand_from_couple, expand_polynomials,
                              pair_from_couple)

N = 8

SCALED = ("reads the couple's rationals over one denominator; the recurrence claim's "
          "couple rows read each p/q alone, so a fault here fails that claim (the "
          "`scaled` mutant in tests/mutants.py)")
STORE = ("the integer form every Poly and Series is stored in, reduced by its content; "
         "tests/test_kernels.py holds each kernel that fills it to a Fraction oracle")
REFUSAL = ("the input refusal (beta_d = 0 or sigma_0 = 0) a raw couple passes before "
           "either route reads it; it computes no value")
COUPLE_READ = ("the input refusal (beta_d = 0 or sigma_0 = 0), then the couple's one read "
               "as integers over one denominator, which every solver of the couple takes; "
               "the recurrence claim's couple rows read each p/q alone, so a wrong read "
               "fails that claim")
SEQUENCE = ("PolySequence's construction check (P_0 = 1, deg P_n = n) that both "
            "sequences pass; it refuses a malformed sequence and computes no value")

CHECKED_AGAINST_FUNCTIONALS = {
    "exactnum.scaled": SCALED,
    "exactnum.content_reduced": STORE,
    "series._Vector.of": STORE,
    "series._Vector._store": STORE,
    "sheffer.CoupleSpec.validate": COUPLE_READ,
    "sheffer.CoupleSpec.alpha_0": REFUSAL,
    "sheffer.CoupleSpec.beta_d": REFUSAL,
}
SHARED = {
    "two_path": {
        "exactnum.scaled": SCALED,
        "exactnum.content_reduced": STORE,
        "series._Vector.of": STORE,
        "series._Vector._store": STORE,
        "sheffer.PolySequence.__post_init__": SEQUENCE,
        "series.Poly.one": SEQUENCE,
        "series.Poly.degree": SEQUENCE,
        "series.Poly.__eq__": SEQUENCE + "; also two_path's comparison itself",
        "series._Vector._same_form": SEQUENCE + "; also two_path's comparison itself",
    },
    "recurrence": {},
    "lowering": CHECKED_AGAINST_FUNCTIONALS,
    "orthogonality": CHECKED_AGAINST_FUNCTIONALS,
}


def entered(route, *args) -> set[str]:
    """The src/ functions that route(*args) enters, as module.qualname.

    A function defined inside another (its qualname holds "<locals>"), a
    lambda or a comprehension is not recorded.
    """
    with recording() as codes:
        route(*args)
    return {name for name in names(codes) if "<" not in name}


def checked_sequence(spec, couple):
    """The sequence verify checks: a family's closed form, a raw couple's own pair."""
    if spec is None:
        return expand_polynomials(pair_from_couple(couple, N))
    return expand_polynomials(catalog.family_generating(spec, N))


def sources():
    yield from ((spec, spec.couple) for spec in catalog.default_sample_specs())
    for name in ("rational-d1", "rational-d2", "rational-d3"):
        yield None, couple_from_json_dict(EDGE_COUPLES[name])


def test_each_claims_routes_share_only_the_listed_functions(monkeypatch):
    shared = {claim: set() for claim in SHARED}
    for spec, couple in sources():
        d = couple.d
        seq = checked_sequence(spec, couple)
        table = dorth.extract_recurrence(seq, d)
        sequence = entered(checked_sequence, spec, couple)
        functionals = entered(FunctionalVector, couple, N + N // d, d)
        back_substitution = entered(
            lambda: dorth.extract_recurrence(checked_sequence(spec, couple), d))
        # the couple's rows are read inside verify's recurrence section, which
        # is entered here with back-substitution's table handed in
        monkeypatch.setattr(dorth, "extract_recurrence", lambda *_: table)
        couple_rows = entered(dorth._recurrence_section, seq, d, couple)
        monkeypatch.undo()
        routes = {
            "recurrence": (back_substitution, couple_rows),
            "lowering": (sequence, functionals),
            "orthogonality": (sequence, functionals),
        }
        if spec is not None:        # a raw couple has a single construction route
            routes["two_path"] = (sequence, entered(expand_from_couple, couple, N))
        for claim, (one, other) in routes.items():
            shared[claim] |= one & other
    assert {claim: sorted(names ^ SHARED[claim].keys()) for claim, names in shared.items()} \
        == {claim: [] for claim in SHARED}
    assert all(reason for reasons in SHARED.values() for reason in reasons.values())
