"""The t -> c t and x -> a x + b relations of the Sheffer group, on the library and through the CLI.

G(x, c t) = sum_n c^n P_n(x) t^n/n! has the couple (gamma(c t), sigma(c t)/c),
so the scaled couple gives Q_n = c^n P_n, the recurrence rows
c^(d-k) alpha_k(n), the moments c^(-k) mu_k(j) and every orthogonality cell
<u_k, Q_n Q_m> = c^(n+m-k) <u_k, P_n P_m>.  gamma_d / sigma_(d+1) and the
constant terms' being nonzero do not change, so neither does any verdict,
also at --check-d d +- 1, where both reports fail in the same cells.  Negative
and non-unit c flip signs and grow denominators: the integer store steps of
`Poly` and `Series` meet both.

G(a x + b, t) = A e^(b H) e^(x a H) has the couple ((gamma + b)/a, sigma/a),
so the shifted couple gives Q_n(x) = P_n(a x + b) along both expansions, the
recurrence rows alpha_k(n)/a except alpha_d(n), which becomes
(alpha_d(n) - b)/a, the moments
<u_k, ((x - b)/a)^j> = a^(-j) sum_i C(j, i) (-b)^(j-i) mu_k(i), and every
orthogonality cell <u_k, Q_n Q_m> = <u_k, P_n P_m> unchanged, at --check-d
d and d +- 1 alike.

The fixed couples above are checked at N = 12.  The relations need no
oracle, so a Hypothesis test also draws regular couples (d = 1..3),
rationals c, a != 0 and b, and N up to 40, and holds both expansions and
the six statuses of dorth.verify, at d and d +- 1, against the drawn couple's.
"""

import json
from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dsheffer import (
    CoupleSpec,
    FunctionalVector,
    Poly,
    cli,
    couple_from_json_dict,
    expand_from_couple,
    expand_polynomials,
    pair_from_couple,
    recurrence_from_couple,
    verify,
    verify_d_orthogonality,
)
from dsheffer import catalog
from sweep import load_workloads
from test_kernels import nonzero, regular_couples, small

F = Fraction
N = 12
SCALES = (F(2), F(-1, 3), F(5, 7))
AFFINE = ((F(2), F(1)), (F(-1, 3), F(5, 7)), (F(1), F(-2)))
COUPLES = {f"{s.family}-d{s.d}": catalog.family_couple(s) for s in catalog.default_sample_specs()}
COUPLES.update((f"seed{seed}-{i}", couple_from_json_dict(doc)) for seed in (1, 2, 3)
               for i, doc in enumerate(load_workloads().draw_couples(seed)))


def scaled(couple: CoupleSpec, c: Fraction) -> CoupleSpec:
    """The couple of G(x, c t): gamma(c t) and sigma(c t) / c."""
    return CoupleSpec(d=couple.d,
                      gamma=tuple(g * c ** i for i, g in enumerate(couple.gamma)),
                      sigma=tuple(s * c ** (i - 1) for i, s in enumerate(couple.sigma)))


def shifted(couple: CoupleSpec, a: Fraction, b: Fraction) -> CoupleSpec:
    """The couple of G(a x + b, t): (gamma + b)/a and sigma/a."""
    gamma = (couple.gamma[0] + b,) + couple.gamma[1:]
    return CoupleSpec(d=couple.d, gamma=tuple(g / a for g in gamma),
                      sigma=tuple(s / a for s in couple.sigma))


def check_ds(couple) -> list[int]:
    return [e for e in (couple.d - 1, couple.d, couple.d + 1) if e >= 1]


def moved(p: Poly, a: Fraction, b: Fraction) -> Poly:
    """P(a x + b): the variable scaled on the coefficients, then shifted by b/a."""
    return Poly([v * a ** i for i, v in enumerate(p.coeffs)]).shift(b / a)


def orthogonality(couple, seq, check_d):
    return verify_d_orthogonality(seq, FunctionalVector(couple, N + N // check_d, check_d))


@pytest.mark.parametrize("c", SCALES, ids=str)
@pytest.mark.parametrize("name", COUPLES)
def test_the_scaled_couple_scales_every_quantity(name, c):
    couple = COUPLES[name]
    other = scaled(couple, c)
    d = couple.d
    seq = expand_polynomials(pair_from_couple(couple, N), N)
    seq_c = expand_polynomials(pair_from_couple(other, N), N)
    assert all(seq_c[n] == seq[n] * c ** n for n in range(N + 1))

    rows = recurrence_from_couple(couple, N).rows
    rows_c = recurrence_from_couple(other, N).rows
    assert rows_c == tuple(tuple(a * c ** (d - k) for k, a in enumerate(row)) for row in rows)

    mu = tuple(r.coeffs for r in FunctionalVector(couple, 2 * N, d).rows)
    mu_c = tuple(r.coeffs for r in FunctionalVector(other, 2 * N, d).rows)
    assert mu_c == tuple(tuple(v * c ** -k for v in row) for k, row in enumerate(mu))

    for check_d in check_ds(couple):
        cells = orthogonality(couple, seq, check_d).cells
        cells_c = orthogonality(other, seq_c, check_d).cells
        assert len(cells_c) == len(cells) > 0
        for a, b in zip(cells, cells_c):
            assert (b.k, b.n, b.m, b.requirement, b.ok) == (a.k, a.n, a.m, a.requirement, a.ok)
            assert b.value == a.value * c ** (a.n + a.m - a.k), (check_d, a)


@pytest.mark.parametrize("a,b", AFFINE, ids=str)
@pytest.mark.parametrize("name", COUPLES)
def test_the_shifted_couple_shifts_every_quantity(name, a, b):
    couple = COUPLES[name]
    other = shifted(couple, a, b)
    d = couple.d
    seq = expand_polynomials(pair_from_couple(couple, N), N)
    images = [moved(p, a, b) for p in seq]
    seq_ab = expand_polynomials(pair_from_couple(other, N), N)
    assert list(seq_ab) == images
    assert list(expand_from_couple(other, N)) == images

    rows = recurrence_from_couple(couple, N).rows
    rows_ab = recurrence_from_couple(other, N).rows
    assert rows_ab == tuple(tuple((v - b if k == d else v) / a for k, v in enumerate(row))
                            for row in rows)

    mu = tuple(r.coeffs for r in FunctionalVector(couple, 2 * N, d).rows)
    mu_ab = tuple(r.coeffs for r in FunctionalVector(other, 2 * N, d).rows)
    assert mu_ab == tuple(
        tuple(sum(comb(j, i) * (-b) ** (j - i) * row[i] for i in range(j + 1)) / a ** j
              for j in range(len(row)))
        for row in mu)

    for check_d in check_ds(couple):
        cells = orthogonality(couple, seq, check_d).cells
        cells_ab = orthogonality(other, seq_ab, check_d).cells
        assert cells and cells_ab == cells, check_d


def verify_doc(tmp_path, capsys, couple, *extra) -> tuple[int, dict]:
    path = tmp_path / "couple.json"
    path.write_text(json.dumps(couple.to_jsonable()))
    code = cli.main(["verify", "--couple-file", str(path), "--order", str(N), *extra])
    return code, json.loads(capsys.readouterr().out)


def same_verdicts(doc, other, extra) -> list[dict]:
    """Check that both reports give the same six statuses; return doc's failing cells."""
    verdicts = [(key, section["status"]) for key, section in doc.items()
                if isinstance(section, dict) and "status" in section]
    assert len(verdicts) == 6
    assert verdicts == [(key, other[key]["status"]) for key, _ in verdicts]
    assert other["overall"] == doc["overall"] == ("fail" if extra else "pass")
    return doc["orthogonality"]["details"]["failures"]


@pytest.mark.parametrize("a,b", AFFINE, ids=str)
@pytest.mark.parametrize("name", COUPLES)
def test_the_shifted_couple_keeps_every_verdict(name, a, b, tmp_path, capsys):
    couple = COUPLES[name]
    for extra in [(), *(("--check-d", str(e)) for e in check_ds(couple) if e != couple.d)]:
        code, doc = verify_doc(tmp_path, capsys, couple, *extra)
        code_ab, doc_ab = verify_doc(tmp_path, capsys, shifted(couple, a, b), *extra)
        assert code_ab == code
        failures = same_verdicts(doc, doc_ab, extra)
        assert doc_ab["orthogonality"]["details"]["failures"] == failures


@pytest.mark.parametrize("c", SCALES, ids=str)
@pytest.mark.parametrize("name", COUPLES)
def test_the_scaled_couple_keeps_every_verdict(name, c, tmp_path, capsys):
    couple = COUPLES[name]
    for extra in [(), *(("--check-d", str(e)) for e in check_ds(couple) if e != couple.d)]:
        code, doc = verify_doc(tmp_path, capsys, couple, *extra)
        code_c, doc_c = verify_doc(tmp_path, capsys, scaled(couple, c), *extra)
        assert code_c == code
        failures = same_verdicts(doc, doc_c, extra)
        failures_c = doc_c["orthogonality"]["details"]["failures"]
        assert [(f["k"], f["n"], f["m"]) for f in failures_c] == \
            [(f["k"], f["n"], f["m"]) for f in failures]
        assert all(F(b["value"]) == F(a["value"]) * c ** (a["n"] + a["m"] - a["k"])
                   for a, b in zip(failures, failures_c))


def statuses(sections) -> list[tuple[str, str]]:
    return [(name, section["status"]) for name, section in sections.items()]


@settings(max_examples=20, deadline=None)
@given(regular_couples(), nonzero, nonzero, small, st.data())
def test_the_group_relations_hold_on_drawn_couples(couple, c, a, b, data):
    # no oracle: the images of a drawn couple under t -> c t and x -> a x + b
    # expand to c^n P_n and P_n(a x + b) at orders up to 40, and dorth.verify
    # gives the three couples the same six statuses at d and at d +- 1
    top = data.draw(st.integers(couple.d + 3, 40), label="N")
    images = (scaled(couple, c), shifted(couple, a, b))
    seq = expand_from_couple(couple, top)
    assert list(expand_from_couple(images[0], top)) == [p * c ** n for n, p in enumerate(seq)]
    assert list(expand_from_couple(images[1], top)) == [moved(p, a, b) for p in seq]
    for check_d in check_ds(couple):
        expected = statuses(verify(couple, top, check_d))
        assert len(expected) == 6
        for image in images:
            assert statuses(verify(image, top, check_d)) == expected, check_d
