"""Recurrence extraction and the d-orthogonality verification reports."""

from fractions import Fraction

import pytest

from dsheffer import (
    BackSubstitutionError,
    FunctionalVector,
    Poly,
    PolySequence,
    RegularityViolationError,
    Series,
    WindowViolationError,
    expand_polynomials,
    extract_recurrence,
    pair_from_couple,
    verify,
    verify_d_orthogonality,
    verify_duality,
    verify_lowering,
)
from dsheffer import catalog, dorth
from dsheffer.sheffer import CoupleSpec
from reference import UncheckedSequence, l_table

F = Fraction

LAGUERRE = CoupleSpec(d=1, gamma=(F(-1), F(1)), sigma=(F(-1), F(2), F(-1)))
HERMITE = CoupleSpec(d=1, gamma=(F(0), F(-1)), sigma=(F(1),))


def build(couple, top, order=None):
    order = order if order is not None else 2 * top
    seq = expand_polynomials(pair_from_couple(couple, top))
    v = FunctionalVector(couple, order, d=couple.d)
    return seq, v, v.hstar


# ---------------------------------------------------------------- recurrence

def test_hermite_recurrence_rows():
    seq, _, _ = build(HERMITE, 8)
    table = extract_recurrence(seq, 1)
    for n, row in enumerate(table.rows):
        assert row == (F(n), F(0), F(1)), n


def test_laguerre_recurrence_matches_classical_three_term():
    # monic Laguerre: x L_n = L_{n+1} + (2n+1) L_n + n^2 L_{n-1}; our P_n is
    # (-1)^n times monic, so the outer coefficients flip sign
    seq, _, _ = build(LAGUERRE, 8)
    table = extract_recurrence(seq, 1)
    for n, row in enumerate(table.rows):
        assert row == (F(-n * n), F(2 * n + 1), F(-1)), n


def test_recurrence_row_accessor_and_jsonable():
    seq, _, _ = build(LAGUERRE, 5)
    table = extract_recurrence(seq, 1)
    assert table.rows[2] == (-4, 5, -1)
    doc = table.to_jsonable()
    assert doc["d"] == 1
    assert doc["rows"][2] == ["-4", "5", "-1"]
    assert repr(table) == ("RecurrenceTable(d=1, rows=[['0', '1', '-1'], ['-1', '3', '-1'], "
                           "['-4', '5', '-1'], ['-9', '7', '-1'], ['-16', '9', '-1']])")


def test_recurrence_window_width_for_d2():
    spec = catalog.default_spec(catalog.LAGUERRE_EQ9, 2)
    seq = expand_polynomials(catalog.family_generating(spec, 8))
    table = extract_recurrence(seq, 2)
    assert len(table.rows[0]) == 4          # alpha_0..alpha_3
    for n in range(2, 8):                   # regularity region
        assert table.rows[n][0] != 0
        assert table.rows[n][3] != 0


def test_window_violation_for_overclaimed_orthogonality():
    # a 2-orthogonal set cannot satisfy a three-term recurrence
    spec = catalog.FamilySpec(family=catalog.LAGUERRE_EQ11, d=2,
                              params={"alpha": F(1, 2)}, aux=None)
    seq = expand_polynomials(catalog.family_generating(spec, 8))
    with pytest.raises(WindowViolationError) as info:
        extract_recurrence(seq, 1)
    err = info.value
    assert (err.d, err.n, err.index) == (1, 2, 0)
    assert err.value == 3


def test_regularity_violation_when_conditions_fail():
    # n*alpha_top - beta_d = n - 3 vanishes at n = 3; the recurrence degrades
    # one row later, where alpha_0(4) is the coefficient on P_3
    couple = CoupleSpec(d=1, gamma=(F(1), F(3)), sigma=(F(1), F(0), F(1)))
    seq = expand_polynomials(pair_from_couple(couple, 6))
    with pytest.raises(RegularityViolationError) as info:
        extract_recurrence(seq, 1)
    assert 4 in info.value.rows


def test_recurrence_needs_enough_polynomials():
    seq, _, _ = build(LAGUERRE, 2, order=8)
    with pytest.raises(ValueError):
        extract_recurrence(seq, 1)


def test_back_substitution_remainder_raises_typed_error():
    # P_2 has degree 1, so x P_1 = x^2 cannot be written in P_0..P_2
    seq = UncheckedSequence([Poly.one(), Poly((0, 1)), Poly((1, 1)), Poly((0, 0, 0, 1))])
    with pytest.raises(BackSubstitutionError) as info:
        extract_recurrence(seq, 1)
    assert info.value.n == 1
    assert not isinstance(info.value, ValueError)


# ---------------------------------------------------------------- orthogonality

def test_laguerre_orthogonality_clean():
    seq, v, _ = build(LAGUERRE, 6)
    rep = verify_d_orthogonality(seq, v)
    assert rep.passed
    assert rep.failures == ()
    assert rep.unchecked == ()
    assert rep.to_jsonable()["checked"] == len(rep.cells)


def test_orthogonality_boundary_cells_are_nonzero():
    seq, v, _ = build(LAGUERRE, 6)
    rep = verify_d_orthogonality(seq, v)
    boundary = [(k, n, m, value) for k, n, m, value in rep.cells if m == n * 1 + k]
    assert [(k, n, m) for k, n, m, _ in boundary] == [(0, n, n) for n in range(7)]
    assert all(value for *_, value in boundary)


def test_a_passing_report_builds_no_orth_cell_until_its_cells_are_read(monkeypatch):
    # a cell is a tuple around one Fraction, so counting the Fractions that
    # dorth builds counts the cells
    built = []

    def counted(*args):
        built.append(args)
        return Fraction(*args)

    monkeypatch.setattr(dorth, "Fraction", counted)
    spec = catalog.default_spec(catalog.MEIXNER_EQ16, 2)
    seq = expand_polynomials(catalog.family_generating(spec, 12))
    couple = spec.couple
    v = FunctionalVector(couple, 18, d=2)
    rep = verify_d_orthogonality(seq, v)
    doc = rep.to_jsonable()
    assert rep.passed and doc["failures"] == [] and doc["checked"] == rep.checked > 0
    assert rep.failures == () and repr(rep)
    assert built == []
    # the cells are built when they are read, one per checked cell, each
    # valued sum_(j<=n) P_n[j] X_k[j][m] with X off the couple's L table,
    # and nonzero exactly at its boundary m = n d + k
    cells = rep.cells
    assert len(built) == len(cells) == rep.checked
    xs = [l_table(couple, k, 12 // 2 + 1, 12) for k in range(2)]
    assert all(bool(value) == (m == n * 2 + k)
               and value == sum(a * xs[k][j][m] for j, a in enumerate(seq[n].coeffs))
               for k, n, m, value in cells)


def test_orthogonality_costs_one_dot_product_per_cell(monkeypatch):
    # X_k[j][m] = <u_k, x^j P_m> is one dot product of P_m's m + 1 numerators
    # with a shifted moment row, for m = j d .. top in each of the
    # floor((top - k)/d) + 1 rows j of functional k; duality reads row j = 0
    # and makes no product (its own would add 182 here).  A Hankel row per
    # (k, n), or any other extra product, breaks the count
    products = []

    def counted(a, b):
        products.append(None)
        return a * b

    spec = catalog.default_spec(catalog.MEIXNER_EQ16, 2)
    top, d = 12, 2
    seq = expand_polynomials(catalog.family_generating(spec, top))
    couple = spec.couple
    v = FunctionalVector(couple, top + top // d, d=d)
    monkeypatch.setattr(dorth, "mul", counted)
    rep = verify_d_orthogonality(seq, v)
    assert rep.passed and not verify_duality(rep)
    bound = sum(m + 1 for k in range(d) for j in range((top - k) // d + 1)
                for m in range(j * d, top + 1))
    assert len(products) == bound == 855
    assert rep.checked == sum((m - k) // d + 1 for k in range(d) for m in range(k, top + 1))


def test_orthogonality_refuses_a_sequence_off_exact_degree():
    # the triangular basis argument needs deg P_n = n; PolySequence is the
    # one guard, so such a sequence never reaches verify_d_orthogonality
    seq, v, _ = build(LAGUERRE, 6)
    polys = list(seq)
    polys[4] = polys[4] + Poly((0,) * 5 + (1,))
    with pytest.raises(ValueError, match="P_4 must have degree exactly 4"):
        verify_d_orthogonality(PolySequence(tuple(polys)), v)


def test_orthogonality_d2_has_unchecked_boundaries():
    # for d = 2 the boundary m = 2n + k outruns the expanded range
    spec = catalog.default_spec(catalog.LAGUERRE_EQ9, 2)
    seq = expand_polynomials(catalog.family_generating(spec, 6))
    v = FunctionalVector(spec.couple, 12, d=2)
    rep = verify_d_orthogonality(seq, v)
    assert rep.passed
    assert rep.unchecked
    assert all(n * 2 + k > 6 for k, n, _ in rep.unchecked)


def test_orthogonality_fails_for_mismatched_functionals():
    seq, _, _ = build(LAGUERRE, 6)
    _, wrong_v, _ = build(HERMITE, 6)
    rep = verify_d_orthogonality(seq, wrong_v)
    assert not rep.passed
    assert rep.failures


def test_orthogonality_sees_the_first_cell_after_a_boundary():
    # P_4 + 2 P_3 moves X_0[3][4] = <u_0, x^3 P_4>, the cell right after
    # row 3's boundary, off zero and leaves every other cell of the pattern
    # alone (P_4 + P_3 would also zero row 4's boundary)
    seq, v, _ = build(LAGUERRE, 6)
    polys = list(seq)
    polys[4] = polys[4] + polys[3] * 2
    rep = verify_d_orthogonality(PolySequence(tuple(polys)), v)
    assert not rep.passed
    assert [(k, n, m) for k, n, m, _ in rep.failures] == [(0, 3, 4)]


def test_orthogonality_sees_the_last_row():
    # at d = 2 and top = 7, P_7 + P_6 moves X_0[3][7] = <u_0, x^3 P_7> off
    # zero: it sits in row j = 3, the last row of u_0
    couple = CoupleSpec(d=2, gamma=(1, F(-1, 2), 2), sigma=(F(-3, 2), 1, 0, F(-1, 3)))
    seq, v, _ = build(couple, 7)
    polys = list(seq)
    polys[7] = polys[7] + polys[6]
    rep = verify_d_orthogonality(PolySequence(tuple(polys)), v)
    assert len(rep.hankel[0]) == 4
    assert not rep.passed
    assert [(k, n, m) for k, n, m, _ in rep.failures] == [(0, 3, 7)]


def test_orthogonality_order_guard():
    seq, _, _ = build(LAGUERRE, 6)
    _, small_v, _ = build(LAGUERRE, 6, order=10)
    with pytest.raises(ValueError):
        verify_d_orthogonality(seq, small_v)


def test_orthogonality_needs_a_row_for_every_functional():
    # functional k's row j = 0 is <u_k, P_0..P_top>; at top < d - 1 the last
    # functionals would have none for duality to read
    spec = catalog.default_spec(catalog.MEIXNER_EQ16, 3)
    v = FunctionalVector(spec.couple, 6, d=3)
    with pytest.raises(ValueError, match=r"^need the sequence up to P_2 at least, got P_1$"):
        verify_d_orthogonality(PolySequence((Poly.one(), Poly((0, 1)))), v)


# ---------------------------------------------------------------- duality

def test_duality_clean():
    seq, v, _ = build(LAGUERRE, 6)
    assert not verify_duality(verify_d_orthogonality(seq, v))
    # verify's section on the same P_0..P_6 and functionals of order 12
    section = verify(LAGUERRE, 6, 1)["duality"]
    assert section["status"] == "pass"
    assert section["details"]["checked"] == 7
    assert section["details"]["failures"] == []


def test_duality_detects_shifted_polynomial():
    seq, v, _ = build(LAGUERRE, 6)
    polys = list(seq)
    polys[1] = polys[1] + Poly.one()
    failures = verify_duality(verify_d_orthogonality(PolySequence(tuple(polys)), v))
    assert failures
    assert any(i == 0 and k == 1 for i, k, _ in failures)


def test_duality_reads_the_entries_before_each_boundary():
    # <u_i, P_k> with k < i sits in row j = 0 before functional i's boundary,
    # where orthogonality checks nothing; a nonzero mu_1(0) must fail there
    spec = catalog.default_spec(catalog.MEIXNER_EQ16, 2)
    top = 6
    seq = expand_polynomials(catalog.family_generating(spec, top))
    v = FunctionalVector(spec.couple, top + top // 2, d=2)
    mu = v.rows[1]
    moved = Series.of((mu.nums[0] + mu.den,) + mu.nums[1:], mu.den)   # mu_1(0) += 1

    class StandIn:
        d, order, rows = v.d, v.order, (v.rows[0], moved)

    assert not verify_duality(verify_d_orthogonality(seq, v))
    failures = verify_duality(verify_d_orthogonality(seq, StandIn()))
    # <u_1, P_k> grows by P_k(0), so every k with P_k(0) != 0 fails, k = 0 first
    assert failures == tuple((1, k, int(k == 1) + seq[k].coeffs[0])
                             for k in range(top + 1) if seq[k].coeffs[0])
    assert failures[0][:2] == (1, 0)


# ---------------------------------------------------------------- lowering

def test_lowering_report_clean():
    seq, _, lop = build(LAGUERRE, 6)
    assert not verify_lowering(seq, lop)
    # verify's section on the same P_0..P_6 and H* of order 12
    section = verify(LAGUERRE, 6, 1)["lowering"]
    assert section["status"] == "pass"
    assert section["details"] == {"max_index": 6, "checked": 7, "failures": []}


def test_lowering_detects_rescaled_polynomial():
    seq, _, lop = build(LAGUERRE, 6)
    polys = list(seq)
    polys[1] = polys[1] * F(2)
    failures = verify_lowering(PolySequence(tuple(polys)), lop)
    assert failures


# ---------------------------------------------------------------- the battery

def failing(sections) -> set[str]:
    return {name for name, section in sections.items() if section["status"] == "fail"}


@pytest.mark.parametrize("top", [10, 14])
def test_verify_refuses_a_seq_that_is_not_p0_to_pN(top, monkeypatch):
    # verify reads seq as P_0..P_N: a shorter one would run two_path past its
    # end and a longer one past the functionals' order N + N // d, so either
    # is refused, naming both orders, before the first section runs
    def section(*args):
        raise AssertionError("a section ran")

    monkeypatch.setattr(dorth, "check_conditions", section)
    spec = catalog.default_spec(catalog.LAGUERRE_EQ9, 1)
    seq = expand_polynomials(catalog.family_generating(spec, top))
    with pytest.raises(ValueError, match=rf"^seq holds P_0\.\.P_{top}, not P_0\.\.P_12$"):
        dorth.verify(spec.couple, 12, 1, seq)


def test_verify_names_the_sections_that_one_changed_p7_fails_on_every_sample():
    # dorth.verify on each default sample's closed form at N = 12, with P_7
    # changed.  Doubled, P_7 keeps the staircase and <u_i, P_7> = 0, but it
    # leaves the couple's route, halves alpha_(d+1)(6) in x P_6 and breaks
    # sigma P_n = n P_(n-1) at n = 7 and 8.  Moved to P_7(x + 1), it breaks
    # the window and the staircase too, and duality unless P_7(x + 1) - P_7
    # lies in the span of P_j with j >= d: charlier-eq13 has omega = 1, so
    # sigma is the forward difference there and P_7(x + 1) = P_7 + 7 P_6.
    # conditions reads the couple alone and never fails.
    top = 12
    for spec in catalog.default_sample_specs():
        couple = spec.couple
        polys = list(expand_polynomials(catalog.family_generating(spec, top)))

        def with_p7(p7):
            seq = PolySequence(tuple(polys[:7] + [p7] + polys[8:]))
            return dorth.verify(couple, top, spec.d, seq)

        assert not failing(with_p7(polys[7])), spec
        doubled = with_p7(polys[7] * 2)
        assert failing(doubled) == {"two_path", "recurrence", "lowering"}, spec
        details = doubled["recurrence"]["details"]
        assert (details["error"], details["n"]) == ("couple-mismatch", 6), spec
        assert doubled["lowering"]["details"]["failures"] == [7, 8], spec
        moved = failing(with_p7(polys[7].shift(1)))
        assert moved - {"duality"} == {"two_path", "recurrence", "orthogonality", "lowering"}
        assert ("duality" in moved) == (spec.family != "charlier-eq13"), spec
