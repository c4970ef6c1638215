"""Acceptance criteria for the package, one test per criterion.

Every test prints a single [PASS]/[FAIL] line (visible with -s or in captured
output) and asserts the same condition, so the suite doubles as a checklist.
All equalities are exact unless a tolerance is stated.
"""

import hashlib
import json
import random
import time
from fractions import Fraction
from math import prod

import pytest
from meixner_numeric import meixner_functional_numeric
from reference import (
    add, constant, exp, fraction_hstar, lowering_failures, monomial, newton_step, pow_rat,
    stirling_classical_meixner, sub,
)

from dsheffer import (
    FunctionalVector,
    Poly,
    ShefferPair,
    NotDOrthogonalShefferError,
    WindowViolationError,
    check_conditions,
    couple_from_pair,
    expand_polynomials,
    extract_recurrence,
    pair_from_couple,
    verify_d_orthogonality,
    verify_duality,
    verify_lowering,
)
from dsheffer import catalog
from dsheffer.catalog import FamilySpec
from dsheffer.cli import main
from dsheffer.operators import functional_eval
from dsheffer.sheffer import CoupleSpec

F = Fraction
N = 12


def report(line: str, failures):
    ok = not failures
    print(f"[{'PASS' if ok else 'FAIL'}] {line}")
    assert ok, (line, failures[:5])


def mono(m: int) -> Poly:
    return Poly((0,) * m + (1,))


def family_functionals(spec, order):
    return FunctionalVector(catalog.family_couple(spec), order, d=spec.d)


@pytest.fixture(scope="module")
def suite():
    """Every default family sample, fully built at expansion order N = 12."""
    built = []
    start = time.perf_counter()
    for spec in catalog.default_sample_specs():
        pair = catalog.family_generating(spec, 2 * N)
        seq = expand_polynomials(pair, N)
        v = FunctionalVector(catalog.family_couple(spec), 2 * N, d=spec.d)
        lop = v.hstar
        built.append((spec, pair, seq, lop, v))
    elapsed = time.perf_counter() - start
    return built, elapsed


# criterion 1: characterization round-trip, both directions


def random_valid_couple(rng: random.Random) -> CoupleSpec:
    def coeff():
        return F(rng.randint(-10, 10), rng.choice((1, 2)))  # values within [-5, 5]

    while True:
        d = rng.randint(1, 4)
        gamma = [coeff() for _ in range(d + 1)]
        sigma = [coeff() for _ in range(d + 2)]
        while gamma[d] == 0:
            gamma[d] = coeff()
        while sigma[0] == 0:
            sigma[0] = coeff()
        couple = CoupleSpec(d=d, gamma=tuple(gamma), sigma=tuple(sigma))
        if check_conditions(couple, 16).passed:
            return couple


def test_criterion_1_roundtrip():
    rng = random.Random(20260825)
    failures = []
    start = time.perf_counter()
    for _ in range(50):
        couple = random_valid_couple(rng)
        back = couple_from_pair(pair_from_couple(couple, 16), couple.d)
        if back != couple:
            failures.append((couple, back))
    elapsed = time.perf_counter() - start
    if elapsed >= 10:
        failures.append(f"roundtrips took {elapsed:.1f}s, budget 10s")

    order = 16
    t = monomial(1, order)
    non_polynomial_pairs = [
        # 1/H' fails to be a polynomial
        (ShefferPair(A=constant(F(1), order),
                     Hx=add(monomial(1, order), monomial(3, order))), 1),
        # H = e^t - 1: 1/H' = e^{-t}
        (ShefferPair(A=constant(F(1), order),
                     Hx=sub(exp(monomial(1, order, 1)), 1)), 1),
        # A'/(A H') fails to be a polynomial
        (ShefferPair(A=add(constant(F(1), order), monomial(1, order)), Hx=t), 1),
        # gamma degree exceeds d
        (ShefferPair(A=exp(monomial(3, order)), Hx=t), 1),
        # gamma degree falls short of d
        (ShefferPair(A=constant(F(1), order), Hx=t), 1),
    ]
    rejected = 0
    for pair, d in non_polynomial_pairs:
        try:
            couple_from_pair(pair, d)
            failures.append(f"pair accepted for d={d}: {pair.Hx.coeffs[:4]}")
        except NotDOrthogonalShefferError:
            rejected += 1
    if rejected < 5:
        failures.append(f"only {rejected} rejections")
    report(f"criterion 1: 50 random couples round-trip at N=16 in {elapsed:.2f}s, "
           f"{rejected} non-polynomial pairs rejected", failures)


# criterion 2: two construction paths agree


def test_criterion_2_two_path_equality(suite):
    built, _ = suite
    failures = []
    for spec, pair, seq, _, _ in built:
        other = expand_polynomials(pair_from_couple(catalog.family_couple(spec), N), N)
        for n in range(N + 1):
            if seq[n] != other[n]:
                failures.append((spec.family, spec.d, n))
    report(f"criterion 2: generating-function and couple expansions agree on "
           f"P_0..P_{N} for all {len(built)} samples", failures)


# criterion 3: recurrence window and regularity


def test_criterion_3_recurrence_structure(suite):
    built, _ = suite
    failures = []
    for spec, _, seq, _, _ in built:
        try:
            table = extract_recurrence(seq, spec.d)
        except Exception as exc:
            failures.append((spec.family, spec.d, str(exc)))
            continue
        if len(table.rows) < N or any(len(row) != spec.d + 2 for row in table.rows):
            failures.append((spec.family, spec.d, "row shape"))
        for n in range(spec.d, N):
            if table.rows[n][0] == 0 or table.rows[n][spec.d + 1] == 0:
                failures.append((spec.family, spec.d, f"regularity at n={n}"))

    eq11 = FamilySpec(family=catalog.LAGUERRE_EQ11, d=2,
                      params={"alpha": F(1, 2)}, aux=None)
    seq11 = expand_polynomials(catalog.family_generating(eq11, 8), 8)
    try:
        extract_recurrence(seq11, 1)
        failures.append("eq11 passed the d=1 window check")
    except WindowViolationError:
        pass
    report("criterion 3: every sample satisfies the (d+2)-term recurrence with "
           "regular extremes for d <= n < 12; eq11 fails the d=1 window check",
           failures)


# criterion 4: d-orthogonality and duality


def test_criterion_4_orthogonality_and_duality(suite):
    built, _ = suite
    failures = []
    for spec, _, seq, _, v in built:
        orth = verify_d_orthogonality(seq, v)
        if not orth.passed:
            failures.append((spec.family, spec.d, "orthogonality",
                             [c.to_jsonable() for c in orth.failures[:2]]))
        dual = verify_duality(orth)
        if not dual.passed:
            failures.append((spec.family, spec.d, "duality", dual.failures[:2]))
    report("criterion 4: constrained <u_k, P_n P_m> values and duality "
           "<u_i, P_k> = delta_ik hold exactly for all samples", failures)


# criterion 5: Laguerre 2-orthogonal functionals and the duplication identity


def test_criterion_5_laguerre2_functionals():
    failures = []
    for alpha in (F(1, 2), F(0), F(3)):
        spec = FamilySpec(family=catalog.LAGUERRE_EQ11, d=2,
                          params={"alpha": alpha}, aux=None)
        v = family_functionals(spec, 12)
        for i in (0, 1):
            row = catalog.laguerre2_moments(alpha, i, 12)
            for m in range(13):
                series_value = row[m]
                operator_value = functional_eval(v, i, mono(m))
                if series_value != operator_value:
                    failures.append((str(alpha), i, m, str(series_value),
                                     str(operator_value)))
        # mu_0(k) = 2^k ((alpha+1)/2)_k, so the rows at alpha and alpha + 1
        # multiply to (alpha+1)_{2k} by the duplication identity
        mu = catalog.laguerre2_moments(alpha, 0, 20)
        mu_next = catalog.laguerre2_moments(alpha + 1, 0, 20)
        for k in range(21):
            if mu[k] * mu_next[k] != prod(alpha + 1 + j for j in range(2 * k)):
                failures.append(("duplication", str(alpha), k))
    report("criterion 5: explicit u_0, u_1 series match the operator route on "
           "x^m (m <= 12) at alpha in {1/2, 0, 3}; duplication identity holds "
           "for k <= 20", failures)


# criterion 6: Meixner functional vector, exact and numeric


def test_criterion_6_meixner_functionals():
    failures = []
    d, c, beta = 2, F(1, 2), F(1)
    spec = FamilySpec(family=catalog.MEIXNER_EQ16, d=d,
                      params={"c": c, "beta": beta}, aux=None)
    v = family_functionals(spec, 8)
    for r in range(d):
        row = catalog.meixner_moments(d, c, beta, r, 8)
        for m in range(9):
            exact = row[m]
            operator_value = functional_eval(v, r, mono(m))
            if exact != operator_value:
                failures.append(("exact-vs-operator", r, m))
            approx = meixner_functional_numeric(d, c, beta, r, mono(m))
            if exact == 0:
                if abs(approx) > 1e-25:
                    failures.append(("numeric-zero", r, m, float(approx)))
            elif abs(approx / float(exact) - 1) > 1e-12:
                failures.append(("numeric", r, m, float(approx), str(exact)))
    one_d_row = catalog.meixner_moments(1, c, beta, 0, 8)
    for m in range(9):
        one_d = one_d_row[m]
        oracle = stirling_classical_meixner(c, beta, mono(m))
        if one_d != oracle:
            failures.append(("d=1-reduction", m, str(one_d), str(oracle)))
    report("criterion 6: node-series evaluator matches the operator route on "
           "x^m (m <= 8) at (2, 1/2, 1), numerics agree to 1e-12, and d = 1 "
           "reduces to the classical Meixner functional", failures)


# criterion 7: lowering operators of both kinds


def test_criterion_7_lowering_operators(suite):
    # every sample's H*(D) with verify_lowering, and every difference
    # sample's own h*(Delta_omega) with the tests' stepped oracle
    built, _ = suite
    failures = []
    kinds = set()
    for spec, _, seq, lop, _ in built:
        kinds.add(catalog.FAMILIES[spec.family].kind)
        rep = verify_lowering(seq, lop)
        if not rep.passed:
            failures.append((spec.family, spec.d, rep.failures))
        step = newton_step(spec)
        if step is not None:
            newton = fraction_hstar(catalog.family_couple(spec), N, step)
            stepped = lowering_failures(seq, newton, step)
            if stepped:
                failures.append((spec.family, spec.d, "h*(Delta_omega)", stepped))
    if kinds != {"derivative", "difference"}:
        failures.append(f"kinds covered: {kinds}")

    spec11 = FamilySpec(family=catalog.LAGUERRE_EQ11, d=2,
                        params={"alpha": F(1, 2)}, aux=None)
    op = catalog.family_lowering(spec11, 16)
    closed = sub(constant(F(1), 16),
                 pow_rat(sub(constant(F(1), 16), monomial(1, 16, 2)), F(-1, 2)))
    if op.coeffs != closed.coeffs:
        failures.append("closed form 1 - (1-2t)^{-1/2} disagrees with the lowering series")
    report(f"criterion 7: sigma P_n = n P_(n-1) exactly for n <= {N} across "
           "derivative and difference kinds; the lowering series matches the closed form "
           "to order 16", failures)


# criterion 8: classical d = 1 reductions


def test_criterion_8_classical_reductions():
    failures = []

    hermite = FamilySpec(family=catalog.HERMITE_EQ12, d=1, params={},
                         aux=(F(0), F(0), F(-1, 2)))
    seq = expand_polynomials(catalog.family_generating(hermite, 12), 6)
    table = extract_recurrence(seq, 1)
    for n, row in enumerate(table.rows):
        if row != (F(n), F(0), F(1)):
            failures.append(("hermite-recurrence", n, row))

    laguerre = FamilySpec(family=catalog.LAGUERRE_EQ9, d=1,
                          params={"alpha": F(0)}, aux=None)
    pair = catalog.family_generating(laguerre, 8)
    if pair.A.coeffs != (1,) * 9:                       # A = (1-t)^{-1}
        failures.append(("laguerre-A", pair.A.coeffs[:4]))
    v = family_functionals(laguerre, 8)
    if functional_eval(v, 0, Poly((0, 1))) != 1:
        failures.append(("laguerre-moment", str(functional_eval(v, 0, Poly((0, 1))))))

    charlier = FamilySpec(family=catalog.CHARLIER_EQ13, d=1,
                          params={"omega": F(1)}, aux=(F(0), F(-1)))
    cseq = expand_polynomials(catalog.family_generating(charlier, 6), 2)
    if cseq[1] != Poly((-1, 1)):
        failures.append(("charlier-P1", cseq[1].pretty()))

    moments = list(catalog.meixner_moments(1, F(1, 2), F(1), 0, 4))
    if moments != [1, 1, 3, 13, 75]:
        failures.append(("meixner-moments", [str(q) for q in moments]))
    if moments[2] != 3:
        failures.append(("meixner-m2", str(moments[2])))

    report("criterion 8: Hermite recurrence x P_n = P_(n+1) + n P_(n-1), "
           "Laguerre <u_0, x> = 1, Charlier P_1 = x - 1, Meixner moments "
           "1, 1, 3, 13, 75", failures)


# criterion 9: runtime and determinism

# sha256 of the verify --order 12 and functionals --order 8 reports of every
# default sample; a change to any value, key or verdict shows up here
VERIFY_DIGESTS = {
    ("charlier-eq13", 1): "0a2cbfb250a315c12808766992092343bf5a728b14f6d5d1cc7d3488f5abb5ce",
    ("charlier-eq13", 2): "bf6b29a178dc9298e605cde9f478d63d86902decdefef53fabb996665c182058",
    ("charlier-eq13", 3): "3d4e539fc3c923685385855a239a7d078e8ce4adf0b1531d45707063dc50fee0",
    ("hermite-eq12", 1): "036fa6e7e1ea97804875271b97f68285c13ea1a729b2c11766ac0b688ff02434",
    ("hermite-eq12", 2): "2de7e4d5f6d58a4543066255b0c9ba01b3e4ad08c55caab2b1ff66d0052a602d",
    ("hermite-eq12", 3): "bf85c634d2f33c4fc782b5b041bbeed3988082ccf83be06fec95ba53a20016b9",
    ("laguerre-eq10", 1): "f99000b11d301346b09bed6a7c82e37f4bdac03a66751ab750370284ae9a5395",
    ("laguerre-eq10", 2): "c2a05937a7871215c10e2cd6fdf54cb77e1e4f9e8c7700b0565da3558629680a",
    ("laguerre-eq10", 3): "2af5de5c600d95bf5046b8805a3061d7708e14b30c93ce27cd44c4fbeaeac27a",
    ("laguerre-eq11", 2): "e2d268eb618e361e1d4ab76e912b8b2e96de0952a1ec7ccbc62dc7922942b6f9",
    ("laguerre-eq9", 1): "539a1da905d4245be828328bcc8a641bf0e420aabeb6d0e466f4cc90a29db18b",
    ("laguerre-eq9", 2): "a63e171ebee4debcb1a2d62737017c62bd62f9f216524eef21ec2b619667a636",
    ("laguerre-eq9", 3): "e563f7d17a94534cfcb54077c3bf24d490edb9b8b3dd69f6d7f15753c4995978",
    ("meixner-eq14", 1): "055674ea9b4ff11db64467b4af1b8b9ad3d2b0248f8c4172024f828de9e195b2",
    ("meixner-eq14", 2): "1e902b6f002791f6958a4869eb1a8e70f3dff48dcd348ff82f3bcce29795a232",
    ("meixner-eq14", 3): "2031611e4abc6545136a235eeed8c12744896cecbbcb773a715be637f9786e20",
    ("meixner-eq16", 1): "2529e549a7562d06737ea9e1ea6b2e2b208084bab412508de790b09cb93a9dc8",
    ("meixner-eq16", 2): "0226c0e9aefef33d643f75d452b0578cc49d00f914eaa7dad417f168f2502891",
    ("meixner-eq16", 3): "df5acf3163885399507ee260b9054914bc9bb3f41de5e732a1e62e59fabec9f8",
    ("meixner-eq21", 2): "513ee3c26f012d1894acdae165791075ac2e9577b7a24d7600b708420ef63a14",
    ("meixner-eq21", 3): "127eb06b87a6f736ca97a09b3f2d453f565835ccf5c721f8a859e7b1612cb92b",
}

FUNCTIONALS_DIGESTS = {
    ("charlier-eq13", 1): "d4c8c829964c4b86a549d48c8ebe76c7cefc823ed2e7d32ec9c19d2ae8b4c237",
    ("charlier-eq13", 2): "6226683bfff54898a83ebab188c250d67f3bf021830718c89a36daab3a0ce7e0",
    ("charlier-eq13", 3): "dbe80c1df4ee1d6612972f13a8dbda5e7ff83572198210b2f83677e2bd460c86",
    ("hermite-eq12", 1): "a225eeeda51d128972eee8333037711b7e2ae22f9542c4c7e545d247b3232c2b",
    ("hermite-eq12", 2): "2fbaadbbadf5423e085813fac55da05ef1656da78a235a367f044adc6a259886",
    ("hermite-eq12", 3): "269b7ab0ecafc1b7338d810d496f0cbfcc109085ddb49e8d09d46e509ba65b1f",
    ("laguerre-eq10", 1): "a2c3154fe1aa4305a4b5fc0b9576e4bc6986a9de304d20308dae20b8a61a32b9",
    ("laguerre-eq10", 2): "9bb97c902636db01af97eaf1c802e9765ca5589135146037d07b92099ceee830",
    ("laguerre-eq10", 3): "9ba24784811de5fa6ee56b78c0364ee32b24dd98ef3983abc8601c9a3215e068",
    ("laguerre-eq11", 2): "2608688608c460f54adff886a7a760c4d2103122a04b34a4718201ef5e270950",
    ("laguerre-eq9", 1): "6020728c26b110082173e5e76f74079d2fb88f7680a2807e9886ef30631012cc",
    ("laguerre-eq9", 2): "b675dab4ee389277342be5d5c31ff8e37b33329c8c5d0f10d2a7e567ddd434c2",
    ("laguerre-eq9", 3): "aef72bd8236422c396603d751d7751e9ddaca00c97f6775376f73b89484ea397",
    ("meixner-eq14", 1): "1d2ae17fe7952f3fbb4b4c4b55f96fada3ba040b2db8abc38ed5205f502cda67",
    ("meixner-eq14", 2): "081ea13d4be612209fe8b3d3eb2c41f833f6433592780ea6b5063ef34ff62d03",
    ("meixner-eq14", 3): "b5e0b4ccebb0c71de77974255fcc0463e4f09e28e645b08777e40400fb24e06c",
    ("meixner-eq16", 1): "ae683eb10e04ba49e370046e46c9b899081b2763ce7019d5e797c20def0faea4",
    ("meixner-eq16", 2): "c0d826db55c7f52b0ef123520611f96d9aa0d58093f760815398d996c0a75783",
    ("meixner-eq16", 3): "4d27998f51ef4133538cae076d8d9bbed420e1b2e1ba241d46879bb7cd5e0d8b",
    ("meixner-eq21", 2): "9e5e4ed135f08a24ae4254283352d33a49abd11907615a8d45d4e42d132f54b7",
    ("meixner-eq21", 3): "2e185e4405fa2a4c6cabcf3fde79861629613d57300e25819f74b8a0fa1fc1f1",
}

# sha256 of the expand and recurrence outputs of every default sample: the
# JSON reports at --order 40, then the CSV and LaTeX tables at --order 12, of
# expand and then of recurrence, hashed as one stream.  Computed when both
# commands still expanded the generating function (and back-substituted),
# so the couple's recurrence must reproduce those bytes exactly.
EXPAND_RECURRENCE_DIGESTS = {
    ("laguerre-eq9", 1): "3b5a46c137052396c0f906aedc83a4eb9714a17fd9d66b2392a43fed3b1c573f",
    ("laguerre-eq9", 2): "1833170e198440ae1408f7e4ec94b68173bbf88f7b119afd843cd6ace7081654",
    ("laguerre-eq9", 3): "517b17e242c820dd1cc87f889570b3f444cd269266f292464c139ab7a5a8a104",
    ("laguerre-eq10", 1): "96dfaacdb4dcd8b0d9ac00ecb89d98e2ab8132f699bcad31340866d66e55fe7f",
    ("laguerre-eq10", 2): "4ae9621b98be9175a251653b1af5069d7dac12bf556f803661339e9d8ab3b5b7",
    ("laguerre-eq10", 3): "e13545ab16c472a8108efacfae215b543f5abfe2a390394b340b9fd8e5af6d8a",
    ("laguerre-eq11", 2): "753f254161ee15e67db33d836630f7ba58c0ed522cae8a24d6545dc71b5626bb",
    ("hermite-eq12", 1): "16a40dec01e0c075ddd0f44629e648dd51d3553501e6019d7250aa370d6cd08d",
    ("hermite-eq12", 2): "14bc8bf33d4102e6649701af4513bc92f678c05f70d5beefefa931e4c5efe060",
    ("hermite-eq12", 3): "5d7ff1e5cc37ea4d669e60d1092a067fb845e6c27fceb7f9039fb6b534c4a41a",
    ("charlier-eq13", 1): "30203658dbe92ea95f0e0d7e6e964ceeb11ae496f50c9528cf77da743873c8ab",
    ("charlier-eq13", 2): "e523258c3e8fe4b7b31e39268887e8ce528ddaee184be4ffa952b78f1787dc8c",
    ("charlier-eq13", 3): "a0b2c1cba11f167925fc795ce8dac3c4bb66431b17b18ecf9c29c941febcdf67",
    ("meixner-eq14", 1): "20cc47db6e555b75787b2e9a3b509ee0a153b439c6d52b9f5c3ac139534debd8",
    ("meixner-eq14", 2): "3c5b41d74b8b49b2c503f2001515bfcd496d1638a565c8f810c915cedd218fd1",
    ("meixner-eq14", 3): "40d037f52ebd455e61481bb4c89f800d43e2cd0cf478b64c8ede64fcc0c31502",
    ("meixner-eq16", 1): "3d7d943f71f8dd28a005faed9872f77bafcde942025c8735173a064645cf93bf",
    ("meixner-eq16", 2): "9930d188a80d3c9cb5e58158abf4deb94ff1aa2a165af1ed79a952da07ad4e15",
    ("meixner-eq16", 3): "f274bf76987b39939e2f92940d6b585600b607cbecd1f4576ec0d517336ec99b",
    ("meixner-eq21", 2): "8651ee74e07437eaf615f2a7cb4022d1654198eee9be6decbdf30daad50cff94",
    ("meixner-eq21", 3): "be313327e524e1c9641cb071347eba0580f58a0d024458173b646608a84207fa",
}


# sha256 of verify --order 24 for one sample per family (both operator kinds)
# and one couple file per d = 1, 2, 3.  Computed while orthogonality, duality,
# the lowering check and series products were still per-term Fraction loops,
# so the integer kernels must reproduce those reports byte for byte.
VERIFY_24_DIGESTS = {
    ("laguerre-eq9", 3): "c444b990c327a021ac4cd82f0213c353512bdf3e40200b60eb0beebfabb8412d",
    ("laguerre-eq10", 2): "29ad8900e73741d46cbb5c641d761ec4e2c568c9bdc4b7a45551443c39c96cc0",
    ("laguerre-eq11", 2): "05484da7b1cc8bdde9c0d084cdb3f1899b371248544faba8238592e29341da13",
    ("hermite-eq12", 1): "4cc55d84c50463b1d997e0e9359a298a9ad0f6f4572e79e5c747091dbb4ffaaa",
    ("charlier-eq13", 3): "56d4e1c14f98b216025797d8cadde9eafd60579fe123bab333d90381b0a0084d",
    ("meixner-eq14", 1): "5b0ad36a2c0ae27cf611b5dd0ba809968184777c37db44d97bd2e72bb2ed3b11",
    ("meixner-eq16", 2): "93c0dc1658bd8f6ea14398d00fcecad1a65b6f363e582f35ef6f1b63ed8dd9cb",
    ("meixner-eq21", 3): "25e6d44338837dd45238045cbf6cacf47cfff1358bfac8295ad7798f4c350273",
}

VERIFY_24_COUPLE_DIGESTS = [
    ({"d": 1, "gamma": ["1/2", "-3"], "sigma": ["2", "-1/3", "1"]},
     "04190efd08b72af2a9e77997fd2cb00738eb7ea93f5d82697a1d62215e29177f"),
    ({"d": 2, "gamma": ["1", "-1/2", "2"], "sigma": ["-3/2", "1", "0", "-1/3"]},
     "359afaa60cac6b13fbd461ea23acdc47f49a2e28f5d3fd092ef2654155c1aaa5"),
    ({"d": 3, "gamma": ["0", "1", "-2/3", "5/4"], "sigma": ["1", "1/2", "-1", "0", "2"]},
     "3f8a2a7c07917c7e4da018c7a995b30c12f09cb40e820ff86f667e0a99d0123d"),
]


# sha256 of the expand and recurrence outputs, hashed as EXPAND_RECURRENCE_DIGESTS
# are, of the couple files of VERIFY_24_COUPLE_DIGESTS (keyed by d), whose
# negative and fractional coefficients reach every sign and fraction case of
# the printed text.  Computed while the recurrence rows and Poly.pretty/latex
# still ran on Fraction operations.
EXPAND_RECURRENCE_COUPLE_DIGESTS = {
    1: "39c107eced6a040be5cc21e039ea744269eff21e1e474333e9d427cca3b02cc1",
    2: "fb8773485344eb5275e57f0c20a97acca550a1cb54846d025c8b88e9ddb184a9",
    3: "7070f5ec5baea190812880787427d9e9ced8b3c3dfa0d4cc883150441d9c79d7",
}


# sha256 of the functionals --order 8 tables: the CSV and then the LaTeX table
# of every default sample, hashed as one stream, and the JSON, CSV and LaTeX
# outputs of the couple files of VERIFY_24_COUPLE_DIGESTS (keyed by d).
# Computed while the CLI still wrapped its source in a class and built every
# format's rows from one shared list of row dicts.
FUNCTIONALS_TABLE_DIGESTS = {
    ("laguerre-eq9", 1): "85766da04bc3a2b49b96b0ec1aa978842001c58ce1d163e194aa4bdec8a0561a",
    ("laguerre-eq9", 2): "5c42af152a15b09f7ef455a5519cdb6904a6ae191a4c441be7c0fb18f33e1d80",
    ("laguerre-eq9", 3): "ed7fa9d5d5ac3753b33f6282ba89af58337db2b520b52d1782d9e3806a27fed5",
    ("laguerre-eq10", 1): "85766da04bc3a2b49b96b0ec1aa978842001c58ce1d163e194aa4bdec8a0561a",
    ("laguerre-eq10", 2): "b22e1501e41ae4e1902a684d3b400d3c9ad31ddc147fa5c4337a381dac0409f6",
    ("laguerre-eq10", 3): "5e6be8d36e0bb437f11bf9ee12f98a206adc8cbfb0e26a2bafd00e83e009ab8a",
    ("laguerre-eq11", 2): "52d3f68dafe60d63c3f4d292618d2aa2d721497f888aaad0c6c65adc59b50dea",
    ("hermite-eq12", 1): "ea79d9a5a3d25d3484ce39a11f2adca9f45ef6871345a2fff8b0fb1e030ad0ff",
    ("hermite-eq12", 2): "c0c6acdd9286d9a1758e745564e7d517de52c0a569c8d3233422aaa5cb15bfb5",
    ("hermite-eq12", 3): "3c5d3726dcfcd41fcac9fb863cfd932288bb822cb7acd90ef0d7302fcf139b69",
    ("charlier-eq13", 1): "f4ec461f80d0e0a4e1a4570ca481eae36c3e3ba3bfc70aa4851b279bdf462a5a",
    ("charlier-eq13", 2): "f2f87dd4a0b106bd25467de95370dce64ff86f4be2d6c8337957e99d20e969a1",
    ("charlier-eq13", 3): "5b50c735b2069f7980c3da05ec32d6d0f1ecbae7d85c3105cc8a34fd3323ad86",
    ("meixner-eq14", 1): "6e2ebad63109396a07c40fb6e2922b1b257a10ebf74db885605b183ed210ce1c",
    ("meixner-eq14", 2): "a0a5dacb456650de53a6ecc824cd5a10d331f05fc7988068059fc5be2043517a",
    ("meixner-eq14", 3): "a1225fe058263747da1a60422d2c66729b1c8d3346052e062eea36e18bff4ae8",
    ("meixner-eq16", 1): "e602ee6b50a02c824c9d4647c11bb10c6a1fc670eed66c089b3c117a1cadbc02",
    ("meixner-eq16", 2): "7a3ac97ad5bccecde040096e6ce9aac4249dbf26923be13f5ce5974c7a90b829",
    ("meixner-eq16", 3): "695cd0e613ce4160a9875826bd8882c3659a1f85abf86bfc15567d990e354445",
    ("meixner-eq21", 2): "7e407c93b80135f792615ff5edfd5c73622de783783e3cd8e064ee3a76be2335",
    ("meixner-eq21", 3): "8112bcbbf38fabce443d589ebe10f9214e80b5e9202aec4e2bbe556143949ad3",
}

FUNCTIONALS_COUPLE_DIGESTS = {
    1: "a55ef01bdf1b23eeca07a55630dab13da19173127f2d7e2e93cd64ef71f924d3",
    2: "6c10ab012b9190254830cbc88311fc2fa17aaaab794a1f7aed569523281f66c9",
    3: "c5f075f46d141807fd81fd888c935da61fed5a3ba5f9805537e446ce5c5dfdac",
}

def family_argv(spec) -> list[str]:
    argv = ["--family", spec.family, "--d", str(spec.d)]
    for key, value in spec.params.items():
        argv += ["--param", f"{key}={value}"]
    if spec.aux is not None:
        argv += ["--aux", ",".join(str(a) for a in spec.aux)]
    return argv


def digest(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_criterion_9_runtime_and_determinism(suite, tmp_path):
    built, build_seconds = suite
    failures = []
    start = time.perf_counter()
    for index, (spec, *_rest) in enumerate(built):
        code = main(["verify", *family_argv(spec), "--order", str(N),
                     "--out", str(tmp_path / f"r{index}.json")])
        if code != 0:
            failures.append((spec.family, spec.d, f"exit {code}"))
    cli_seconds = time.perf_counter() - start
    for index, (spec, *_rest) in enumerate(built):
        if digest(tmp_path / f"r{index}.json") != VERIFY_DIGESTS[(spec.family, spec.d)]:
            failures.append((spec.family, spec.d, "report differs from its pinned digest"))
    total = build_seconds + cli_seconds
    if total >= 60:
        failures.append(f"suite took {total:.1f}s, budget 60s")

    first = tmp_path / "again1.json"
    second = tmp_path / "again2.json"
    for path in (first, second):
        main(["verify", "--family", "meixner-eq16", "--d", "2", "--param", "c=1/2",
              "--param", "beta=1", "--order", str(N), "--out", str(path)])
    if first.read_bytes() != second.read_bytes():
        failures.append("verify reports differ between identical runs")
    else:
        json.loads(first.read_text())                   # and they are valid JSON
    report(f"criterion 9: full verification of {len(built)} samples at N={N} in "
           f"{total:.1f}s (< 60s) with byte-identical reports", failures)


def test_functionals_reports_match_their_digests(tmp_path):
    failures = []
    for spec in catalog.default_sample_specs():
        path = tmp_path / f"{spec.family}-{spec.d}.json"
        code = main(["functionals", *family_argv(spec), "--order", "8", "--out", str(path)])
        if code != 0 or digest(path) != FUNCTIONALS_DIGESTS[(spec.family, spec.d)]:
            failures.append((spec.family, spec.d, code))
    report("functionals --order 8 reports of all samples match their pinned digests",
           failures)


# (command, format, order) of each output a digest hashes, in stream order
EXPAND_RECURRENCE_RUNS = [(command, fmt, order) for command in ("expand", "recurrence")
                          for fmt, order in (("json", 40), ("csv", 12), ("latex", 12))]
FUNCTIONALS_TABLE_RUNS = [("functionals", "csv", 8), ("functionals", "latex", 8)]
FUNCTIONALS_COUPLE_RUNS = [("functionals", "json", 8), *FUNCTIONALS_TABLE_RUNS]


def outputs_digest(argv, runs, tmp_path, failures, key) -> str:
    """sha256 of the outputs of `runs` on the source `argv`, hashed as one stream."""
    stream = hashlib.sha256()
    for command, fmt, order in runs:
        path = tmp_path / f"{command}.{fmt}"
        code = main([command, *argv, "--order", str(order),
                     "--format", fmt, "--out", str(path)])
        if code != 0:
            failures.append((*key, command, fmt, code))
        stream.update(path.read_bytes())
    return stream.hexdigest()


def test_expand_and_recurrence_outputs_match_their_digests(tmp_path):
    failures = []
    for spec in catalog.default_sample_specs():
        key = (spec.family, spec.d)
        if outputs_digest(family_argv(spec), EXPAND_RECURRENCE_RUNS, tmp_path, failures, key) \
                != EXPAND_RECURRENCE_DIGESTS[key]:
            failures.append((*key, "outputs differ from their pinned digest"))
    report("expand and recurrence outputs of all samples (JSON at N=40, CSV and LaTeX "
           "at N=12) match their pinned digests", failures)


def test_expand_and_recurrence_outputs_of_couple_files_match_their_digests(tmp_path):
    failures = []
    for doc, _ in VERIFY_24_COUPLE_DIGESTS:
        path = tmp_path / f"couple-{doc['d']}.json"
        path.write_text(json.dumps(doc))
        key = ("couple", doc["d"])
        if outputs_digest(["--couple-file", str(path)], EXPAND_RECURRENCE_RUNS,
                          tmp_path, failures, key) \
                != EXPAND_RECURRENCE_COUPLE_DIGESTS[doc["d"]]:
            failures.append((*key, "outputs differ from their pinned digest"))
    report("expand and recurrence outputs of one couple file per d = 1, 2, 3 (JSON at "
           "N=40, CSV and LaTeX at N=12) match their pinned digests", failures)


def test_verify_order_24_reports_match_their_digests(tmp_path):
    failures = []
    specs = {(spec.family, spec.d): spec for spec in catalog.default_sample_specs()}
    runs = [(key, family_argv(specs[key]), digest_)
            for key, digest_ in VERIFY_24_DIGESTS.items()]
    for doc, digest_ in VERIFY_24_COUPLE_DIGESTS:
        path = tmp_path / f"couple-{doc['d']}.json"
        path.write_text(json.dumps(doc))
        runs.append((("couple", doc["d"]), ["--couple-file", str(path)], digest_))
    for key, argv, digest_ in runs:
        out = tmp_path / "report.json"
        code = main(["verify", *argv, "--order", "24", "--out", str(out)])
        if code != 0 or digest(out) != digest_:
            failures.append((key, code))
    report("verify --order 24 reports of one sample per family and one couple per "
           "d = 1, 2, 3 match their pinned digests", failures)


def test_functionals_tables_match_their_digests(tmp_path):
    failures = []
    for spec in catalog.default_sample_specs():
        key = (spec.family, spec.d)
        if outputs_digest(family_argv(spec), FUNCTIONALS_TABLE_RUNS, tmp_path, failures, key) \
                != FUNCTIONALS_TABLE_DIGESTS[key]:
            failures.append((*key, "tables differ from their pinned digest"))
    report("functionals --order 8 CSV and LaTeX tables of all samples match their "
           "pinned digests", failures)


def test_functionals_outputs_of_couple_files_match_their_digests(tmp_path):
    failures = []
    for doc, _ in VERIFY_24_COUPLE_DIGESTS:
        path = tmp_path / f"couple-{doc['d']}.json"
        path.write_text(json.dumps(doc))
        key = ("couple", doc["d"])
        if outputs_digest(["--couple-file", str(path)], FUNCTIONALS_COUPLE_RUNS,
                          tmp_path, failures, key) \
                != FUNCTIONALS_COUPLE_DIGESTS[doc["d"]]:
            failures.append((*key, "outputs differ from their pinned digest"))
    report("functionals --order 8 outputs of one couple file per d = 1, 2, 3 (JSON, "
           "CSV and LaTeX) match their pinned digests", failures)
