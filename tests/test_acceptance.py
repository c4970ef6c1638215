"""Acceptance criteria for the package, one test per criterion.

Every test prints a single [PASS]/[FAIL] line (visible with -s or in captured
output) and asserts the same condition, so the suite doubles as a checklist.
All equalities are exact unless a tolerance is stated.
"""

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
from sweep import VERIFY_24_COUPLES, VERIFY_24_SAMPLES, load_workloads, unpinned

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
    return FunctionalVector(spec.couple, order, d=spec.d)


@pytest.fixture(scope="module")
def suite():
    """Every default family sample, fully built at expansion order N = 12."""
    built = []
    start = time.perf_counter()
    for spec in catalog.default_sample_specs():
        pair = catalog.family_generating(spec, N)
        seq = expand_polynomials(pair)
        v = FunctionalVector(spec.couple, 2 * N, d=spec.d)
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
        other = expand_polynomials(pair_from_couple(spec.couple, N))
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
    seq11 = expand_polynomials(catalog.family_generating(eq11, 8))
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
                             orth.failures[:2]))
        dual = verify_duality(orth)
        if dual:
            failures.append((spec.family, spec.d, "duality", dual[:2]))
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
        low = verify_lowering(seq, lop)
        if low:
            failures.append((spec.family, spec.d, low))
        step = newton_step(spec)
        if step is not None:
            newton = fraction_hstar(spec.couple, N, step)
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
    seq = expand_polynomials(catalog.family_generating(hermite, 6))
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
    cseq = expand_polynomials(catalog.family_generating(charlier, 2))
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


def test_criterion_9_runtime_and_determinism(suite, tmp_path):
    built, build_seconds = suite
    failures = []
    start = time.perf_counter()
    for spec, *_rest in built:
        code = main(["verify", *load_workloads()._family_argv(spec), "--order", str(N),
                     "--out", str(tmp_path / "report.json")])
        if code != 0:
            failures.append((spec.family, spec.d, f"exit {code}"))
    cli_seconds = time.perf_counter() - start
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


# The reports below are pinned by tests/sweep.sha256 (tests/sweep.py's corpus
# holds each of their argv); each test runs its reports afresh and lists
# those whose bytes are not the pinned ones.

def sample_argvs(runs) -> list[tuple[str, ...]]:
    """(command, *source, --order N, --format F) of every sample, for each (command, format, N)."""
    return [(command, *load_workloads()._family_argv(spec), "--order", str(n), "--format", fmt)
            for spec in catalog.default_sample_specs() for command, fmt, n in runs]


def couple_argvs(runs) -> list[tuple[str, ...]]:
    """The same on the rational couple file of each d = 1, 2, 3."""
    return [(command, "--couple-file", f"{name}.json", "--order", str(n), "--format", fmt)
            for name in VERIFY_24_COUPLES for command, fmt, n in runs]


EXPAND_RECURRENCE_RUNS = [(command, fmt, n) for command in ("expand", "recurrence")
                          for fmt, n in (("json", 40), ("csv", 12), ("latex", 12))]


def test_functionals_reports_match_their_digests():
    report("functionals --order 8 reports of all samples match their pinned bytes",
           unpinned(sample_argvs([("functionals", "json", 8)])))


def test_expand_and_recurrence_outputs_match_their_digests():
    report("expand and recurrence outputs of all samples (JSON at N=40, CSV and LaTeX "
           "at N=12) match their pinned bytes", unpinned(sample_argvs(EXPAND_RECURRENCE_RUNS)))


def test_expand_and_recurrence_outputs_of_couple_files_match_their_digests():
    report("expand and recurrence outputs of one couple file per d = 1, 2, 3 (JSON at "
           "N=40, CSV and LaTeX at N=12) match their pinned bytes",
           unpinned(couple_argvs(EXPAND_RECURRENCE_RUNS)))


def test_verify_order_24_reports_match_their_digests():
    specs = [spec for spec in catalog.default_sample_specs()
             if (spec.family, spec.d) in VERIFY_24_SAMPLES]
    assert len(specs) == len(VERIFY_24_SAMPLES)
    argvs = [("verify", *load_workloads()._family_argv(spec), "--order", "24") for spec in specs]
    argvs += [("verify", "--couple-file", f"{name}.json", "--order", "24")
              for name in VERIFY_24_COUPLES]
    report("verify --order 24 reports of one sample per family and one couple per "
           "d = 1, 2, 3 match their pinned bytes", unpinned(argvs))


def test_functionals_tables_match_their_digests():
    report("functionals --order 8 CSV and LaTeX tables of all samples match their "
           "pinned bytes", unpinned(sample_argvs([("functionals", "csv", 8),
                                                   ("functionals", "latex", 8)])))


def test_functionals_outputs_of_couple_files_match_their_digests():
    report("functionals --order 8 outputs of one couple file per d = 1, 2, 3 (JSON, "
           "CSV and LaTeX) match their pinned bytes",
           unpinned(couple_argvs([("functionals", fmt, 8) for fmt in ("json", "csv", "latex")])))
