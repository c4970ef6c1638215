"""The integer kernels against the Fraction loops they replaced.

Poly and series products and the exp/log/invert_mul recursions, the lowering ODE
and the moment rows read off its table, the couple's recurrence and its rows,
the generating-function expansion, back-substitution, orthogonality,
duality and the lowering check run on integer numerators over one common
(or running) denominator, and the lowering check works in the basis
x^l / l! instead of applying the derivative.
Orthogonality is decided on <u_k, x^j P_m> and must give the verdict and
the cells of the Hankel form <u_k, P_n P_m>.  Poly.pretty, poly_latex and
Poly.coeff_strings read each coefficient's lowest-terms numerator and
denominator off the stored integer form.  Every result must
equal the per-term Fraction oracle of tests/reference.py exactly, on valid
sequences and on perturbed ones, errors included.
"""

import json
from contextlib import contextmanager
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from dsheffer import (
    FunctionalVector,
    Poly,
    PolySequence,
    Series,
    expand_from_couple,
    expand_polynomials,
    extract_recurrence,
    pair_from_couple,
    verify_d_orthogonality,
    verify_duality,
    verify_lowering,
)
from dsheffer import catalog, cli, series, sheffer
from dsheffer.dorth import (
    BackSubstitutionError,
    RecurrenceTable,
    RegularityViolationError,
    WindowViolationError,
    recurrence_from_couple,
    verify,
)
from dsheffer.exactnum import scaled
from dsheffer.series import poly_latex
from dsheffer.sheffer import CoupleSpec, recurrence_numerators
from reference import (
    UncheckedSequence,
    duality_failures,
    exp,
    fraction_couple_rows,
    fraction_exp,
    fraction_expand_from_couple,
    fraction_hstar,
    fraction_invert_mul,
    fraction_latex,
    fraction_log,
    fraction_pretty,
    fraction_product,
    fraction_recurrence_rows,
    fraction_table,
    hankel_cells,
    invert_mul,
    log,
    lowering_failures,
    mul,
    regular_fraction_table,
    series_expand_polynomials,
    series_moment_rows,
)

F = Fraction


# ---------------------------------------------------------------- series products

@st.composite
def tall_fractions(draw):
    """Rationals whose numerator and denominator have up to a drawn bit height."""
    bits = draw(st.integers(1, 256))
    num = draw(st.integers(-(2 ** bits), 2 ** bits))
    return F(num, draw(st.integers(1, 2 ** bits)))


@given(st.integers(0, 12).flatmap(
    lambda n: st.tuples(*[st.lists(tall_fractions(), min_size=n + 1, max_size=n + 1)] * 2)))
def test_series_product_equals_the_fraction_convolution(pair):
    a, b = pair
    assert mul(Series(a), Series(b)).coeffs == tuple(fraction_product(a, b))


poly_factors = st.lists(tall_fractions() | st.just(F(0)), max_size=8)


@given(poly_factors, poly_factors)
@example([], [F(1), F(2)])
@example([F(1), F(0), F(0), F(-2, 3)], [F(0), F(1, 2)])
def test_poly_product_equals_the_fraction_convolution(a, b):
    # unequal lengths, interior zeros and the zero polynomial (all-zero or
    # empty lists) included; both factors are padded to len(a) + len(b),
    # which holds the whole product
    length = len(a) + len(b)
    product = fraction_product(a + [F(0)] * (length - len(a)), b + [F(0)] * (length - len(b)))
    coeffs = (Poly(a) * Poly(b)).coeffs
    assert list(coeffs) + [F(0)] * (length - len(coeffs)) == product


tall_series = st.integers(0, 40).flatmap(
    lambda n: st.lists(tall_fractions(), min_size=n + 1, max_size=n + 1))


@settings(max_examples=60, deadline=None)
@given(tall_series)
def test_invert_mul_equals_the_fraction_recursion(s):
    assume(s[0] != 0)
    assert invert_mul(Series(s)).coeffs == tuple(fraction_invert_mul(s))


@settings(max_examples=60, deadline=None)
@given(tall_series)
def test_exp_equals_the_fraction_recursion(s):
    s = [F(0)] + s[1:]
    assert exp(Series(s)).coeffs == tuple(fraction_exp(s))


@settings(max_examples=60, deadline=None)
@given(tall_series)
def test_log_equals_the_fraction_recursion(s):
    s = [F(1)] + s[1:]
    assert log(Series(s)).coeffs == tuple(fraction_log(s))


# ---------------------------------------------------------------- printed text

printed_coefficients = (st.sampled_from([F(0), F(1), F(-1)]) | st.integers(-40, 40).map(F)
                        | st.fractions(min_value=-9, max_value=9, max_denominator=12)
                        | st.builds(F, tall_fractions()))


@given(st.lists(printed_coefficients, max_size=12))
def test_pretty_and_latex_equal_the_fraction_text(coeffs):
    p = Poly(coeffs)                # the zero polynomial too, once trailing zeros go
    assert p.pretty() == fraction_pretty(p)
    assert poly_latex(p.coeff_strings()) == fraction_latex(p)
    assert repr(p) == f"Poly({fraction_pretty(p)})"


@given(st.lists(st.integers(-10 ** 6, 10 ** 6), max_size=12),
       st.integers(-60, 60).filter(bool), st.integers(1, 40))
def test_printing_reads_the_integer_form_and_makes_no_fraction(nums, scale, den):
    # non-reduced forms: every numerator times scale, over scale * den
    p = Poly.of([v * scale for v in nums], scale * den)
    oracle = Poly([F(v, den) for v in nums])

    assert p.pretty() == fraction_pretty(oracle)
    assert poly_latex(p.coeff_strings()) == fraction_latex(oracle)
    assert p.coeff_strings() == [str(c) for c in oracle.coeffs]
    with coeffs_reads() as reads:
        p.pretty(), poly_latex(p.coeff_strings()), p.coeff_strings(), repr(p)
    assert reads == []


def test_printing_keeps_nothing_on_the_poly():
    p = Poly((F(-3, 4), -1, 0, 1, F(5, 2)))
    p.pretty(), poly_latex(p.coeff_strings()), p.coeff_strings(), repr(p)
    slots = [name for cls in type(p).__mro__ for name in vars(cls).get("__slots__", ())]
    assert slots == ["nums", "den"] and not hasattr(p, "__dict__")
    assert (p.nums, p.den) == ((-3, -4, 0, 4, 10), 4)


@pytest.mark.parametrize("fmt", ["json", "csv", "latex"])
def test_expand_puts_each_polynomial_in_lowest_terms_once(fmt, tmp_path, monkeypatch, capsys):
    couple = CoupleSpec(d=2, gamma=(1, F(-1, 2), 2), sigma=(F(-3, 2), 1, 0, F(-1, 3)))
    path = tmp_path / "c.json"
    path.write_text(json.dumps(couple.to_jsonable()))
    calls = counting(monkeypatch, "ratio_strings", series)
    assert cli.main(["expand", "--couple-file", str(path), "--order", "6", "--format", fmt]) == 0
    assert ("\\frac" if fmt == "latex" else "/") in capsys.readouterr().out
    assert calls == [(p.nums, p.den) for p in expand_from_couple(couple, 6)]


def test_pretty_and_latex_text_of_fixed_polynomials():
    p = Poly((F(-3, 4), -1, 0, 1, F(5, 2), -2))
    assert p.pretty() == "-2*x^5 + 5/2*x^4 + x^3 - x - 3/4"
    assert (poly_latex(p.coeff_strings())
            == "-2 x^{5} + \\frac{5}{2} x^{4} + x^{3} - x - \\frac{3}{4}")
    assert Poly().pretty() == poly_latex(Poly().coeff_strings()) == "0"
    assert Poly((-1,)).pretty() == "-1"
    # magnitudes ending in 1 at degrees 0, 1 and >= 2, where rewriting "1*x" as text would fail
    p = Poly((F(-1, 11), 11, F(21, 11), -1, 1))
    assert p.pretty() == "x^4 - x^3 + 21/11*x^2 + 11*x - 1/11"
    assert (poly_latex(p.coeff_strings())
            == "x^{4} - x^{3} + \\frac{21}{11} x^{2} + 11 x - \\frac{1}{11}")
    p = Poly((-1, -1, -1))
    assert p.pretty() == "-x^2 - x - 1"
    assert poly_latex(p.coeff_strings()) == "-x^{2} - x - 1"


# ---------------------------------------------------------------- verify sections

def perturbed(seq: PolySequence, n: int, j: int, delta: Fraction) -> PolySequence:
    coeffs = list(seq[n].coeffs)
    coeffs[j] += delta
    return PolySequence(seq.polys[:n] + (Poly(coeffs),) + seq.polys[n + 1:])


def failing_cells(cells, d) -> list:
    """The oracle's cells that are zero at their boundary m = n d + k or nonzero off it."""
    return [(k, n, m, value) for k, n, m, value in cells if bool(value) != (m == n * d + k)]


def assert_sections_match_the_oracles(seq, lop, v):
    low = verify_lowering(seq, lop)
    assert low == tuple(lowering_failures(seq, lop.coeffs))
    orth = verify_d_orthogonality(seq, v)
    failures = orth.failures                    # built before the cells are
    cells, unchecked = hankel_cells(seq, v)
    assert list(orth.cells) == cells
    assert list(failures) == failing_cells(cells, v.d)
    assert orth.passed == (not failures) and orth.checked == len(cells)
    assert list(orth.unchecked) == unchecked
    assert list(verify_duality(orth)) == duality_failures(seq, v)
    return low


small = st.fractions(min_value=-3, max_value=3, max_denominator=4)
nonzero = small.filter(bool)
# nonzero rationals p/q of height max(|p|, q) <= 2^64
tall = st.builds(lambda p, q, sign: sign * Fraction(p, q), st.integers(1, 2 ** 64),
                 st.integers(1, 2 ** 64), st.sampled_from((1, -1)))


@st.composite
def regular_couples(draw):
    d = draw(st.integers(1, 3))
    couple = CoupleSpec(d=d,
                        gamma=tuple(draw(small) for _ in range(d)) + (draw(nonzero),),
                        sigma=(draw(nonzero),) + tuple(draw(small) for _ in range(d + 1)))
    assume(not couple.violations())
    return couple


@settings(max_examples=60, deadline=None)
@given(regular_couples(), st.data())
def test_verify_sections_match_the_oracles_on_perturbed_sequences(couple, data):
    top = data.draw(st.integers(couple.d + 2, 8))
    seq = expand_polynomials(pair_from_couple(couple, top))
    v = FunctionalVector(couple, top + top // couple.d, couple.d)
    lop = v.hstar
    assert not assert_sections_match_the_oracles(seq, lop, v)
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(1, top))
        j = data.draw(st.integers(0, n))
        delta = data.draw(nonzero)
        assume(j < n or seq[n].coeffs[n] + delta != 0)   # keep deg P_n = n
        seq = perturbed(seq, n, j, delta)
    assert_sections_match_the_oracles(seq, lop, v)


def assert_orthogonality_matches_the_hankel_cells(seq, v) -> bool:
    """The report's verdict, counts and cells against the term-by-term cells."""
    orth = verify_d_orthogonality(seq, v)
    failures = orth.failures                    # derived before the cells are
    cells, unchecked = hankel_cells(seq, v)
    failing = failing_cells(cells, v.d)
    assert list(failures) == failing
    assert orth.passed == (not failing)
    assert orth.checked == len(cells)
    assert list(orth.unchecked) == unchecked
    assert list(orth.cells) == cells
    return orth.passed


@settings(max_examples=25, deadline=None)
@given(regular_couples(), st.data())
def test_orthogonality_verdicts_equal_the_hankel_cells_at_every_claimed_d(couple, data):
    # the report decides from <u_k, x^j P_m>; the oracle computes every
    # <u_k, P_n P_m> term by term, so both forms must give the same verdict
    # and the cells derived on demand must be the oracle's, at the true d and
    # at the d - 1 and d + 1 a user may claim, before and after a mutation
    d = couple.d
    top = data.draw(st.integers(7, 8))
    check_d = data.draw(st.sampled_from([c for c in (d - 1, d, d + 1) if c >= 1]))
    seq = expand_polynomials(pair_from_couple(couple, top))
    v = FunctionalVector(couple, top + top // check_d, check_d)
    polys = list(seq)
    n = data.draw(st.integers(1, top))
    j = data.draw(st.integers(0, n))
    delta = data.draw(nonzero)
    assume(j < n or seq[n].coeffs[n] + delta != 0)      # keep deg P_n = n
    mutations = {
        "none": seq,
        "P_7 doubled": PolySequence(tuple(polys[:7] + [polys[7] * 2] + polys[8:])),
        "P_7 += P_3": PolySequence(tuple(polys[:7] + [polys[7] + polys[3]] + polys[8:])),
        "coefficient": perturbed(seq, n, j, delta),
    }
    verdicts = {name: assert_orthogonality_matches_the_hankel_cells(s, v)
                for name, s in mutations.items()}
    if check_d == d:
        # a doubled P_n is still d-orthogonal; P_3 breaks the zeros of P_7
        assert (verdicts["none"], verdicts["P_7 doubled"], verdicts["P_7 += P_3"]) \
            == (True, True, False)


def test_a_perturbed_p7_is_flagged_like_the_oracle_on_every_sample():
    top = 10
    for spec in catalog.default_sample_specs():
        couple = spec.couple
        seq = expand_polynomials(catalog.family_generating(spec, top))
        v = FunctionalVector(couple, top + top // spec.d, spec.d)
        lop = v.hstar
        seq = perturbed(seq, 7, 3, F(1, 3))
        low = assert_sections_match_the_oracles(seq, lop, v)
        assert low == (7, 8), (spec.family, spec.d)


# ---------------------------------------------------------------- the couple's kernels

@st.composite
def couples(draw):
    """Couples that pass validate(), regular or not, with tall or small coefficients."""
    d = draw(st.integers(1, 3))
    coeff = small | st.builds(F, tall_fractions())
    top = coeff.filter(bool)
    return CoupleSpec(d=d,
                      gamma=tuple(draw(coeff) for _ in range(d)) + (draw(top),),
                      sigma=(draw(top),) + tuple(draw(coeff) for _ in range(d + 1)))


@settings(max_examples=60, deadline=None)
@given(couples(), st.integers(0, 30))
def test_recurrence_rows_equal_the_fraction_rows(couple, top):
    nums, den = recurrence_numerators(couple, top)
    assert tuple(tuple(F(v, den) for v in row) for row in nums) \
        == fraction_couple_rows(couple, top)


@settings(max_examples=60, deadline=None)
@given(couples(), st.integers(0, 30))
def test_couple_recurrence_table_prints_the_fraction_rows(couple, top):
    # recurrence_from_couple hands the integers over: the table prints and
    # compares like the Fraction rows it replaced
    nums, den = recurrence_numerators(couple, top)
    rows = tuple(tuple(F(v, den) for v in row) for row in nums)
    d, root = couple.d, couple.irregular_n()
    # regularity is decided for every n: the table's only irregular row is
    # the couple's root row d + root, when that lies below top
    assert tuple(n for n, row in enumerate(rows) if n >= d and not (row[0] and row[d + 1])) \
        == (() if root is None or d + root >= top else (d + root,))
    if root is not None:
        with pytest.raises(RegularityViolationError) as info:
            recurrence_from_couple(couple, top)
        assert info.value.rows == (d + root,)
        return
    table = recurrence_from_couple(couple, top)
    assert table.to_jsonable() == {"d": couple.d, "rows": [[str(c) for c in row] for row in rows]}
    assert table == fraction_table(couple.d, rows)
    assert hash(table) == hash(fraction_table(couple.d, rows))
    assert table.rows == rows
    assert RecurrenceTable(couple.d, [[-v for v in row] for row in nums], -den) == table


# the magnitudes of the benchmark's seed-1 couple at d = 3, whose denominators
# share factors (R = 60, where den sigma * den gamma = 3,600), and a couple
# with sigma_(d+1) = 0, whose sigma the solver reads without its zero top
SEED_1_D3 = CoupleSpec(d=3, gamma=(F(1, 2), F(-5, 3), F(7, 5), F(-3, 4)),
                       sigma=(F(5, 6), F(-2, 3), F(3, 5), F(7, 4), F(-4, 3)))
TOP_ZERO = CoupleSpec(d=2, gamma=(F(2, 3), F(-1, 4), F(5, 7)),
                      sigma=(F(3, 5), F(1, 6), F(-2, 9), 0))


@settings(max_examples=40, deadline=None)
@given(couples(), st.sampled_from((12, 30)), st.integers(-1, 1))
@example(CoupleSpec(d=2, gamma=(F(7, 11), F(-13, 17), F(19, 23)),
                    sigma=(F(29, 31), F(-37, 41), F(43, 47), F(-53, 59))), 48, 0)
@example(SEED_1_D3, 48, -1)
@example(SEED_1_D3, 48, 0)
@example(SEED_1_D3, 48, 1)
@example(TOP_ZERO, 48, -1)
@example(TOP_ZERO, 48, 0)
@example(TOP_ZERO, 48, 1)
def test_moment_rows_equal_the_series_route_on_drawn_couples(couple, M, dd):
    # the rows and y come off the ODE's integer table in one scale, R = the
    # lcm of the couple's denominators; the oracle goes through gamma(y), an
    # integral, exp and products by y.  dd moves d to d +- 1, as --check-d does
    d = max(1, couple.d + dd)
    v = FunctionalVector(couple, M, d)
    assert (v.hstar, v.rows) == series_moment_rows(couple, M, d)


def test_functional_vector_keeps_the_couples_own_operator():
    # the operator a FunctionalVector solves is the same at its d as at
    # d = 1, on every sample and on drawn couples (d <= 3, so any M >= 2 fits d)
    for spec in catalog.default_sample_specs():
        couple = spec.couple
        for M in (12, 30):
            assert FunctionalVector(couple, M, spec.d).hstar \
                == FunctionalVector(couple, M, 1).hstar, (spec, M)

    @settings(max_examples=40, deadline=None)
    @given(couples(), st.integers(2, 30))
    def on_drawn_couples(couple, M):
        assert FunctionalVector(couple, M, couple.d).hstar \
            == FunctionalVector(couple, M, 1).hstar

    on_drawn_couples()


def test_moment_rows_equal_the_series_route_on_every_sample():
    for spec in catalog.default_sample_specs():
        couple = spec.couple
        for M in (12, 30):
            v = FunctionalVector(couple, M, spec.d)
            assert (v.hstar, v.rows) == series_moment_rows(couple, M, spec.d), (spec, M)


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 30), st.data())
def test_expand_polynomials_equals_the_series_products(order, data):
    if data.draw(st.booleans()):
        pair = pair_from_couple(data.draw(couples()), order)
    else:
        pair = catalog.family_generating(
            data.draw(st.sampled_from(catalog.default_sample_specs())), order)
    assert expand_polynomials(pair) == series_expand_polynomials(pair)


@settings(max_examples=60, deadline=None)
@given(regular_couples(), st.integers(1, 30))
def test_lowering_ode_equals_the_fraction_recursion(couple, N):
    lop = FunctionalVector(couple, N, 1).hstar
    assert lop.coeffs == tuple(fraction_hstar(couple, N))


@settings(max_examples=60, deadline=None)
@given(regular_couples(), st.integers(0, 30))
def test_expand_from_couple_equals_the_fraction_recurrence(couple, N):
    seq = expand_from_couple(couple, N)
    oracle = fraction_expand_from_couple(couple, N)
    assert list(seq) == oracle
    # the content gcd keeps every integer row over its least denominator
    assert [(list(p.nums), p.den) for p in seq] == [scaled(p.coeffs) for p in oracle]


def counting(monkeypatch, name, *modules):
    """Record the calls of `name` in each module from now on, in one list."""
    calls = []
    for module in modules:
        def counted(*args, original=getattr(module, name)):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(module, name, counted)
    return calls


def test_expand_from_couple_converts_no_value(monkeypatch):
    couple = CoupleSpec(d=2, gamma=(1, F(-1, 2), 2), sigma=(F(-3, 2), 1, 0, F(-1, 3)))
    calls = counting(monkeypatch, "exact", series)
    seq = expand_from_couple(couple, 40)
    assert calls == []
    assert seq[40].degree() == 40


def test_functional_vector_runs_no_series_arithmetic(monkeypatch):
    # y and each moment row leave the ODE's integer table once, through
    # Series.of; no product runs on the way (every one is a convolution of the
    # series kernel), and no recursion of the series kernel, which every exp,
    # log, power or inverse runs
    arithmetic = [counting(monkeypatch, "_convolve", series),
                  counting(monkeypatch, "_recurrence", series)]
    handed = counting(monkeypatch, "of", Series)
    couple = CoupleSpec(d=2, gamma=(1, F(-1, 2), 2), sigma=(F(-3, 2), 1, 0, F(-1, 3)))
    v = FunctionalVector(couple, 30, 3)
    assert arithmetic == [[], []]
    assert len(handed) == 1 + len(v.rows) == 4


def test_a_wrong_product_kernel_fails_verify_on_every_sample(monkeypatch):
    # every product longer than 3 entries gains 1 in its last entry; the
    # samples' couples are Poly products, so they are built before the patch
    specs = catalog.default_sample_specs()
    convolve = series._convolve

    def off_by_one(a, b, length):
        out = convolve(a, b, length)
        if len(out) > 3:
            out[-1] += 1
        return out

    for module in (series, sheffer):
        monkeypatch.setattr(module, "_convolve", off_by_one)
    for spec in specs:
        seq = expand_polynomials(catalog.family_generating(spec, 12))
        sections = verify(spec.couple, 12, spec.d, seq)
        assert "fail" in [s["status"] for s in sections.values()], (spec.family, spec.d)


@contextmanager
def coeffs_reads():
    """The Poly and Series whose `.coeffs` is read inside the block, in one list."""
    reads, built = [], series._Vector.coeffs

    def counted(self):
        reads.append(self)
        return built.fget(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series._Vector, "coeffs", property(counted))
        yield reads


def test_one_verify_reads_the_integer_forms_only(monkeypatch):
    calls = counting(monkeypatch, "scaled", series, sheffer)
    couple = CoupleSpec(d=2, gamma=(1, F(-1, 2), 2), sigma=(F(-3, 2), 1, 0, F(-1, 3)))
    top = 9
    # the pair, the expansion, the functionals, the four checks and the
    # printing of every P_n make no Fraction coefficient tuple
    with coeffs_reads() as reads:
        seq = expand_polynomials(pair_from_couple(couple, top))
        v = FunctionalVector(couple, top + top // 2, 2)
        lop = v.hstar
        calls.clear()
        extract_recurrence(seq, 2)
        verify_duality(verify_d_orthogonality(seq, v))
        verify_lowering(seq, lop)
        assert calls == []
        for p in seq:
            p.coeff_strings(), p.pretty(), poly_latex(p.coeff_strings())
    assert reads == []
    # an indexable sequence that is no PolySequence gives the same results
    plain = UncheckedSequence(list(seq))
    assert extract_recurrence(plain, 2) == extract_recurrence(seq, 2)
    assert (verify_duality(verify_d_orthogonality(plain, v))
            == verify_duality(verify_d_orthogonality(seq, v)))
    assert verify_d_orthogonality(plain, v) == verify_d_orthogonality(seq, v)
    assert verify_lowering(plain, lop) == verify_lowering(seq, lop)


# ---------------------------------------------------------------- back-substitution

def recurrence_outcome(compute):
    """The table's rows, or the error's identifying fields."""
    try:
        return "rows", compute().rows
    except WindowViolationError as exc:
        return "window", exc.n, exc.index, exc.value
    except BackSubstitutionError as exc:
        return "remainder", exc.n, exc.remainder
    except RegularityViolationError as exc:
        return "regularity", exc.rows


def assert_back_substitution_matches_the_oracle(seq, d):
    got = recurrence_outcome(lambda: extract_recurrence(seq, d))
    assert got == recurrence_outcome(
        lambda: regular_fraction_table(d, fraction_recurrence_rows(seq, d)))
    return got


@settings(max_examples=80, deadline=None)
@given(regular_couples(), st.data())
def test_back_substitution_equals_the_oracle_on_perturbed_sequences(couple, data):
    top = data.draw(st.integers(couple.d + 2, 12))
    seq = expand_from_couple(couple, top)
    assert assert_back_substitution_matches_the_oracle(seq, couple.d)[0] == "rows"
    for _ in range(data.draw(st.integers(1, 3))):
        n = data.draw(st.integers(1, top))
        if data.draw(st.booleans()):
            # P_n times c keeps the window but makes the running remainder's
            # denominator grow by large factors
            c = data.draw(tall)
            seq = PolySequence(seq.polys[:n] + (seq[n] * c,) + seq.polys[n + 1:])
            continue
        j = data.draw(st.integers(0, n))
        delta = data.draw(nonzero)
        assume(j < n or seq[n].coeffs[n] + delta != 0)   # keep deg P_n = n
        seq = perturbed(seq, n, j, delta)
    # a perturbation below P_n's window usually raises WindowViolationError
    # with the first offending (n, index, value); both routes must agree
    assert_back_substitution_matches_the_oracle(seq, couple.d)


@settings(max_examples=80, deadline=None)
@given(regular_couples(), st.data())
def test_back_substitution_remainder_equals_the_oracle_off_exact_degree(couple, data):
    top = data.draw(st.integers(couple.d + 2, 12))
    polys = list(expand_from_couple(couple, top))
    changed = data.draw(st.lists(st.integers(1, top), min_size=1, max_size=2, unique=True))
    for n in changed:
        coeffs = list(polys[n].coeffs)
        if data.draw(st.booleans()):
            coeffs.pop()                                   # deg P_n < n
        else:
            coeffs += data.draw(st.lists(nonzero, min_size=1, max_size=2))  # deg P_n > n
        assume(any(coeffs))
        polys[n] = Poly(coeffs)
    # x P_(n-1) is the first product that P_n's degree leaves unexplained
    got = assert_back_substitution_matches_the_oracle(UncheckedSequence(polys), couple.d)
    assert got[:2] == ("remainder", min(changed) - 1)
