"""End-to-end CLI behavior: exit codes, report shapes, determinism, formats."""

import argparse
import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import dsheffer
from dsheffer import catalog, cli, dorth, exactnum, render, sheffer
from dsheffer.cli import main
from dsheffer.dorth import BackSubstitutionError
from sweep import EDGE_COUPLES, load_workloads, unpinned

APP1 = '{"d": 1, "gamma": [-1, 1], "sigma": [-1, 2, -1]}'


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------- expand

def test_expand_hermite_contains_p3(capsys):
    code, out, _ = run(capsys, "expand", "--family", "hermite-eq12", "--d", "1",
                       "--aux", "0,0,-1/2", "--order", "4")
    assert code == 0
    doc = json.loads(out)
    rows = {row["n"]: row for row in doc["polynomials"]}
    assert rows[3]["text"] == "x^3 - 3*x"
    assert rows[3]["coeffs"] == ["0", "-3", "0", "1"]


def test_expand_couple_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(APP1)
    code, out, _ = run(capsys, "expand", "--couple-file", str(path), "--order", "3")
    assert code == 0
    doc = json.loads(out)
    assert doc["source"]["kind"] == "couple"
    assert doc["polynomials"][1]["text"] == "-x + 1"


def test_expand_csv_pads_columns(capsys):
    code, out, _ = run(capsys, "expand", "--family", "laguerre-eq9", "--d", "1",
                       "--param", "alpha=0", "--order", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,text,c0,c1,c2"
    assert lines[2] == "1,-x + 1,1,-1,0"


def test_expand_latex(capsys):
    code, out, _ = run(capsys, "expand", "--family", "laguerre-eq9", "--d", "1",
                       "--param", "alpha=0", "--order", "1", "--format", "latex")
    assert code == 0
    assert out.startswith("\\begin{tabular}")
    assert "$-x + 1$" in out


def test_expand_aux_starting_with_a_minus_sign(capsys):
    # argparse reads "--aux -1,1,1" as two options; "--aux=-1,1,1" is one
    code, out, _ = run(capsys, "expand", "--family", "hermite-eq12", "--d", "1",
                       "--aux=-1,1,1", "--order", "2")
    assert code == 0
    assert json.loads(out)["source"]["aux"] == ["-1", "1", "1"]


def test_expand_rejects_invalid_family_parameter(capsys):
    code, _, err = run(capsys, "expand", "--family", "laguerre-eq9",
                       "--param", "alpha=-1")
    assert code == 2
    assert "alpha" in err


def test_expand_unknown_family(capsys):
    code, _, err = run(capsys, "expand", "--family", "legendre-eq0")
    assert code == 2
    assert "known" in err


def test_source_must_be_exactly_one(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(APP1)
    code, _, _ = run(capsys, "expand", "--family", "laguerre-eq9",
                     "--param", "alpha=0", "--couple-file", str(path))
    assert code == 2
    code, _, _ = run(capsys, "expand")
    assert code == 2


def test_family_flags_rejected_for_couple_sources(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(APP1)
    code, _, err = run(capsys, "expand", "--couple-file", str(path), "--d", "2")
    assert code == 2
    assert "--family" in err


def test_param_parsing_errors(capsys):
    code, _, _ = run(capsys, "expand", "--family", "laguerre-eq9",
                     "--param", "alpha")
    assert code == 2
    code, _, err = run(capsys, "expand", "--family", "laguerre-eq9",
                       "--param", "alpha=0.5")
    assert code == 2
    assert "alpha" in err
    code, _, _ = run(capsys, "expand", "--family", "hermite-eq12", "--d", "1",
                     "--aux", "0,0.5,1")
    assert code == 2


# ---------------------------------------------------------------- file errors


@pytest.mark.parametrize("command", ["expand", "recurrence", "functionals", "verify"])
def test_repeated_param_exits_2(command, capsys):
    # the last value used to win silently (P_1 = 3 - x, i.e. alpha = 2)
    code, out, err = run(capsys, command, "--family", "laguerre-eq9", "--param", "alpha=1",
                         "--param", "alpha=2", "--order", "3")
    assert (code, out, err) == (2, "", "error: --param alpha: given more than once\n")


@pytest.mark.parametrize("command", ["expand", "recurrence", "functionals", "verify"])
def test_repeated_aux_exits_2(command, capsys):
    # argparse's last-wins rule would drop the first list silently
    code, out, err = run(capsys, command, "--family", "hermite-eq12", "--aux", "0,0,1",
                         "--aux", "0,0,2", "--order", "3")
    assert (code, out, err) == (2, "", "error: --aux: given more than once\n")


@pytest.mark.parametrize("doc, message", [
    # json.loads keeps the last value of a repeated key, here a regular couple
    ('{"d": 1, "gamma": [0, 0], "sigma": [1, 0, 1], "gamma": [0, 1]}',
     "couple file repeats the key 'gamma'"),
    ('{"d": 1, "gamma": [0, 1], "sigma": [1, 0, 1], "Sigma": [1], "name": "x"}',
     "couple document has unknown key 'Sigma'"),
])
@pytest.mark.parametrize("command", ["expand", "verify"])
def test_couple_file_with_a_repeated_or_unknown_key_exits_3(command, doc, message,
                                                            tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(doc)
    code, out, err = run(capsys, command, "--couple-file", str(path), "--order", "3")
    assert (code, out, err) == (3, "", f"error: {message}\n")


def test_missing_couple_file(capsys):
    code, _, _ = run(capsys, "expand", "--couple-file", "/nonexistent/c.json")
    assert code == 3


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text("{not json")
    code, _, _ = run(capsys, "expand", "--couple-file", str(path))
    assert code == 3


def test_couple_file_nested_past_the_recursion_limit_exits_3(tmp_path, capsys):
    # the JSON decoder recurses once per nested array; too deep is an input error
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, out, err = run(capsys, "expand", "--couple-file", str(path), "--order", "2")
    assert code == 3
    assert "couple file is not valid JSON" in err
    assert "Traceback" not in err and out == ""


def test_undecodable_couple_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_bytes(b"\xff\xfe{")
    code, _, err = run(capsys, "expand", "--couple-file", str(path))
    assert code == 3
    assert "couple file" in err


def test_non_ascii_digits_are_rejected(tmp_path, capsys):
    # "\u0661/\u0662" is 1/2 in Arabic-Indic digits; str.isdigit and int() accept them
    code, out, err = run(capsys, "expand", "--family", "laguerre-eq9",
                         "--param", "alpha=\u0661/\u0662", "--order", "3")
    assert (code, out) == (2, "")
    assert err.startswith("error: --param alpha: not an exact rational")
    path = tmp_path / "c.json"
    path.write_text('{"d": 1, "gamma": [-1, "\u0661"], "sigma": [-1, 2, -1]}', encoding="utf-8")
    code, out, err = run(capsys, "expand", "--couple-file", str(path), "--order", "3")
    assert (code, out) == (3, "")
    assert err.startswith("error: gamma: not an exact rational")


def test_decimal_coefficients_in_file(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"d": 1, "gamma": [-1.0, 1], "sigma": [-1, 2, -1]}')
    code, _, err = run(capsys, "expand", "--couple-file", str(path))
    assert code == 3
    assert "exact" in err


def test_short_gamma_exits_2_with_the_degree_message(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"d": 2, "gamma": [0, 1], "sigma": [1]}')
    code, _, err = run(capsys, "expand", "--couple-file", str(path), "--order", "4")
    assert code == 2
    assert "gamma must have degree exactly d=2 (leading coefficient is 0)" in err


@pytest.mark.parametrize("command", ["expand", "verify"])
def test_huge_d_exits_2_promptly(command, tmp_path):
    # Padding gamma to d + 1 entries would allocate gigabytes before anything
    # rejected the couple.  The child runs under a 1 GiB address-space cap,
    # so a regression ends in a MemoryError (exit 1) rather than in swap.
    path = tmp_path / "c.json"
    path.write_text('{"d": 1000000000, "gamma": [0, 1], "sigma": [1]}')
    cap = 1 << 30
    src = str(Path(dsheffer.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    proc = subprocess.run(
        [sys.executable, "-c", "import sys; from dsheffer.cli import main; "
         "sys.exit(main(sys.argv[1:]))", command, "--couple-file", str(path), "--order", "4"],
        capture_output=True, text=True, timeout=60, env=env,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)),
    )
    assert proc.returncode == 2, proc.stderr
    assert "gamma must have degree exactly d=1000000000" in proc.stderr
    assert proc.stdout == ""


# Python refuses int/str conversions past 4,300 digits by default; main lifts
# that limit while a command runs and gives the caller's value back after
ONES = "1" * 5000


@pytest.mark.parametrize("argv, expected", [
    (["expand", "--couple-file", "big.json", "--order", "2"], 0),
    # gamma_1 / sigma_2 = 11...1 is a positive integer: irregular at that n
    (["verify", "--couple-file", "big.json", "--order", "3"], 1),
    (["expand", "--family", "laguerre-eq9", "--param", "alpha=" + "9" * 5000, "--order", "2"], 0),
    (["expand", "--family", "laguerre-eq9", "--param", "alpha=" + "9" * 3000, "--order", "2"], 0),
], ids=["expand-couple-file", "verify-couple-file", "param-5000-digits", "output-3000-digits"])
def test_integers_past_the_digit_limit(argv, expected, tmp_path, monkeypatch, capsys):
    (tmp_path / "big.json").write_text(f'{{"d": 1, "gamma": [1, {ONES}], "sigma": [1, 0, 1]}}')
    monkeypatch.chdir(tmp_path)
    before = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4400)
    try:
        code, out, err = run(capsys, *argv)
        assert sys.get_int_max_str_digits() == 4400
        sys.set_int_max_str_digits(0)            # the verify report holds n = 11...1
        doc = json.loads(out)
    finally:
        sys.set_int_max_str_digits(before)
    assert (code, err) == (expected, "")
    if argv[0] == "verify":
        assert doc["conditions"]["status"] == "fail"
    else:
        assert len(doc["polynomials"][2]["text"]) > 3000


def test_an_interpreter_with_no_digit_limit_prints_the_same(monkeypatch, capsys):
    # before 3.10.7 sys has no int/str digit limit, and main lifts none
    argv = ["verify", "--family", "hermite-eq12", "--d", "1", "--order", "3"]
    expected = run(capsys, *argv)
    monkeypatch.delattr(sys, "get_int_max_str_digits", raising=False)
    monkeypatch.delattr(sys, "set_int_max_str_digits", raising=False)
    assert run(capsys, *argv) == expected


# ---------------------------------------------------------------- verify

def test_verify_meixner_eq16_passes(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--family", "meixner-eq16", "--d", "2",
                     "--param", "c=1/2", "--param", "beta=1", "--order", "12",
                     "--out", str(out_path))
    assert code == 0
    doc = json.loads(out_path.read_text())
    assert doc["overall"] == "pass"
    for section in ("conditions", "two_path", "recurrence", "duality",
                    "orthogonality", "lowering"):
        assert doc[section]["status"] == "pass", section


def test_verify_couple_skips_two_path(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(APP1)
    code, out, _ = run(capsys, "verify", "--couple-file", str(path), "--order", "8")
    assert code == 0
    doc = json.loads(out)
    assert doc["two_path"]["status"] == "skipped"
    assert doc["overall"] == "pass"


def test_verify_conditions_failure_exits_1_but_writes_report(tmp_path, capsys):
    # n*alpha_top - beta_d = n - 3 = 0 at n = 3
    path = tmp_path / "c.json"
    path.write_text('{"d": 1, "gamma": [1, 3], "sigma": [1, 0, 1]}')
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--couple-file", str(path), "--order", "8",
                     "--out", str(out_path))
    assert code == 1
    doc = json.loads(out_path.read_text())
    assert doc["overall"] == "fail"
    assert doc["conditions"]["status"] == "fail"
    assert {"n": 3, "value": "0"} in doc["conditions"]["details"]["failures"]


def test_verify_check_d_window_violation(tmp_path, capsys):
    out_path = tmp_path / "report.json"
    code, _, _ = run(capsys, "verify", "--family", "laguerre-eq11",
                     "--param", "alpha=1/2", "--order", "8", "--check-d", "1",
                     "--out", str(out_path))
    assert code == 1
    doc = json.loads(out_path.read_text())
    assert doc["check_d"] == 1
    assert doc["recurrence"]["status"] == "fail"
    assert doc["recurrence"]["details"]["error"] == "window-violation"


def perturbed_extraction(monkeypatch, n):
    """Make verify's extracted recurrence table hold alpha_0(n) + 1 in row n."""
    real = dorth.extract_recurrence

    def mutant(seq, d):
        table = real(seq, d)
        nums = [list(row) for row in table.nums]
        nums[n][0] += table.den
        return dorth.RecurrenceTable(d, nums, table.den)

    monkeypatch.setattr(dorth, "extract_recurrence", mutant)


def test_verify_fails_when_the_couples_recurrence_is_wrong(tmp_path, capsys, monkeypatch):
    # a mutant that adds 1 to alpha_0(5) in the extracted rows: the window and
    # regularity were checked before it, so only the comparison with the
    # couple's own rows, read off its coefficients, can see it
    perturbed_extraction(monkeypatch, 5)
    docs = [doc for seed in (1, 2, 3) for doc in load_workloads().draw_couples(seed)]
    assert len(docs) == 27
    for i, doc in enumerate(docs):
        path = tmp_path / f"c{i}.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "verify", "--couple-file", str(path), "--order", "12")
        assert code == 1, doc
        details = json.loads(out)["recurrence"]["details"]
        assert details["error"] == "couple-mismatch" and details["n"] == 5, doc


@pytest.mark.parametrize("n", [1, 12])
def test_verify_two_path_fails_where_the_couple_route_differs(n, capsys, monkeypatch):
    # a mutant that adds 1 to P_n of the couple's route: only two_path reads
    # that route, and it must name n, the last index N = 12 included
    real = dorth.expand_from_couple

    def mutant(couple, N):
        polys = list(real(couple, N).polys)
        polys[n] = polys[n] + dsheffer.Poly.one()
        return sheffer.PolySequence(tuple(polys))

    monkeypatch.setattr(dorth, "expand_from_couple", mutant)
    code, out, _ = run(capsys, "verify", "--family", "meixner-eq16", "--d", "2",
                       "--param", "c=1/2", "--param", "beta=1", "--order", "12")
    assert code == 1
    doc = json.loads(out)
    assert doc["two_path"]["status"] == "fail"
    assert [m["n"] for m in doc["two_path"]["details"]["mismatches"]] == [n]
    assert all(doc[s]["status"] == "pass"
               for s in ("conditions", "recurrence", "duality", "orthogonality", "lowering"))


def test_verify_compares_the_couples_last_recurrence_row(tmp_path, capsys, monkeypatch):
    # a mutant that adds 1 to alpha_0(N - 1), the last row the comparison reads
    perturbed_extraction(monkeypatch, 11)
    path = tmp_path / "c.json"
    path.write_text(APP1)
    code, out, _ = run(capsys, "verify", "--couple-file", str(path), "--order", "12")
    assert code == 1
    details = json.loads(out)["recurrence"]["details"]
    assert details["error"] == "couple-mismatch" and details["n"] == 11


def test_verify_passes_the_rational_couple(tmp_path, capsys):
    # the couple's rows are read off each coefficient's own p/q, and its
    # sequence off the pair, whose integers sit over one common denominator
    # (exactnum.scaled): a wrong common denominator fails the comparison
    path = tmp_path / "c.json"
    path.write_text(json.dumps(EDGE_COUPLES["rational-d2"]))
    code, out, _ = run(capsys, "verify", "--couple-file", str(path), "--order", "12")
    assert (code, json.loads(out)["overall"]) == (0, "pass")


def test_verify_reports_the_sections_of_the_library_call(tmp_path, capsys):
    # the command renders dorth.verify: on the couple's own pair for a couple
    # file, on the family's closed-form expansion for a family
    path = tmp_path / "c.json"
    path.write_text(APP1)
    spec = catalog.FamilySpec(family="meixner-eq16", d=2, aux=None,
                              params={"c": Fraction(1, 2), "beta": Fraction(1)})
    closed_form = sheffer.expand_polynomials(catalog.family_generating(spec, 12))
    for argv, couple, seq in [
        (["--couple-file", str(path), "--check-d", "2"],
         sheffer.couple_from_json_dict(json.loads(APP1)), None),
        (["--family", "meixner-eq16", "--d", "2", "--param", "c=1/2", "--param", "beta=1"],
         spec.couple, closed_form),
    ]:
        code, out, _ = run(capsys, "verify", "--order", "12", *argv)
        doc = json.loads(out)
        sections = dorth.verify(couple, 12, doc["check_d"], seq)
        assert list(sections) == ["conditions", "two_path", "recurrence", "duality",
                                  "orthogonality", "lowering"]
        assert {name: doc[name] for name in sections} == json.loads(render.dump_json(sections))
        assert (code, doc["overall"]) in ((0, "pass"), (1, "fail"))


def test_verify_and_functionals_read_no_stirling_row(tmp_path, capsys, monkeypatch):
    # every source gets H*(D), whose moments are w_j j!/i!, so the
    # difference families need no Stirling numbers
    def refuse(*args):
        raise AssertionError("a Stirling row was read")

    for module in (exactnum, catalog):                 # every binding of the name
        monkeypatch.setattr(module, "stirling2_rows", refuse)
    with pytest.raises(AssertionError):                # the guard does bite
        catalog.meixner_moments(1, Fraction(1, 2), 1, 0, 1)
    path = tmp_path / "c.json"
    path.write_text(APP1)
    # (argv, run functionals too): the classical Meixner cross-check that
    # functionals adds for meixner-eq14 at d = 1 is itself a sum of Stirling
    # numbers (catalog.meixner_moments at d = 1), an independent route
    sources = [(["--couple-file", str(path)], True)]
    for spec in catalog.default_sample_specs():
        if spec.family in (catalog.CHARLIER_EQ13, catalog.MEIXNER_EQ14):
            argv = (["--family", spec.family, "--d", str(spec.d),
                     "--aux", ",".join(str(a) for a in spec.aux)]
                    + [f"--param={k}={v}" for k, v in spec.params.items()])
            sources.append((argv, (spec.family, spec.d) != (catalog.MEIXNER_EQ14, 1)))
    assert len(sources) == 7
    for argv, functionals in sources:
        code, out, _ = run(capsys, "verify", *argv, "--order", "12")
        assert (code, json.loads(out)["overall"]) == (0, "pass"), argv
        if functionals:
            code, out, _ = run(capsys, "functionals", *argv, "--order", "8")
            assert code == 0 and json.loads(out)["rows"], argv


def test_node_series_reads_one_stirling_table_per_evaluation(capsys, monkeypatch):
    spec = catalog.default_spec(catalog.MEIXNER_EQ16, 2)
    argv = (["functionals", "--family", spec.family, "--d", "2", "--order", "8"]
            + [f"--param={k}={v}" for k, v in spec.params.items()])
    plain = run(capsys, *argv)
    reads, evaluations = [], []

    def counted(name, record):
        inner = getattr(catalog, name)

        def wrapper(*args):
            record.append(args)
            return inner(*args)
        monkeypatch.setattr(catalog, name, wrapper)

    counted("stirling2_rows", reads)
    counted("meixner_moments", evaluations)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == plain and code == 0
    rows = json.loads(out)["rows"]
    assert {row["cross_check"]["evaluator"] for row in rows} == {"meixner-node-series"}
    # one moment row per functional index, each reading the rows S(0..8, .) once
    assert len(rows) == 2 * 9
    assert [(r, order) for *_, r, order in evaluations] == [(0, 8), (1, 8)]
    assert reads == [(8,), (8,)]


def test_verify_reports_are_byte_identical(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for path in paths:
        code, _, _ = run(capsys, "verify", "--family", "laguerre-eq9", "--d", "2",
                         "--param", "alpha=1/2", "--order", "8", "--out", str(path))
        assert code == 0
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_has_no_format_flag(capsys):
    code, _, _ = run(capsys, "verify", "--family", "laguerre-eq9", "--d", "1",
                     "--param", "alpha=0", "--format", "csv")
    assert code == 2


# ---------------------------------------------------------------- recurrence

def test_recurrence_json(capsys):
    code, out, _ = run(capsys, "recurrence", "--family", "hermite-eq12", "--d", "1",
                       "--aux", "0,0,-1/2", "--order", "5")
    assert code == 0
    doc = json.loads(out)
    assert doc["table"]["rows"][3] == ["3", "0", "1"]


def test_recurrence_violation_exits_1(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text('{"d": 1, "gamma": [1, 3], "sigma": [1, 0, 1]}')
    code, _, err = run(capsys, "recurrence", "--couple-file", str(path),
                       "--order", "6")
    assert code == 1
    assert "regularity" in err


def test_a_window_violation_is_not_a_verification_failure_of_main(monkeypatch, capsys):
    # only extract_recurrence raises WindowViolationError, and verify's
    # recurrence section reports it, so main does not catch one: an error
    # that cannot reach it would only hide a fault as a verdict
    def raising(couple, top):
        raise dorth.WindowViolationError(d=1, n=3, index=0, value=Fraction(1))

    monkeypatch.setattr(cli, "recurrence_from_couple", raising)
    with pytest.raises(dorth.WindowViolationError):
        main(["recurrence", "--order", "5", *LAGUERRE_D1])
    capsys.readouterr()


@pytest.mark.parametrize("command", ["expand", "recurrence"])
@pytest.mark.parametrize("doc, message", [
    ('{"d": 1, "gamma": [1, 1], "sigma": [0, 1, 1]}',
     "sigma must have a nonzero constant term"),
    # gamma at full length, so that only the couple's own check can catch it
    ('{"d": 2, "gamma": [1, 2, 0], "sigma": [3, 0, 0, 1]}',
     "gamma must have degree exactly d=2 (leading coefficient is 0)"),
])
def test_couples_without_the_recurrence_exit_2(command, doc, message, tmp_path, capsys):
    # sigma_0 divides every step of the recurrence and beta_d = 0 breaks
    # regularity, so both are refused before any row is built
    path = tmp_path / "c.json"
    path.write_text(doc)
    code, out, err = run(capsys, command, "--couple-file", str(path), "--order", "8")
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_recurrence_latex_header(capsys):
    code, out, _ = run(capsys, "recurrence", "--family", "laguerre-eq9", "--d", "2",
                       "--param", "alpha=0", "--order", "4", "--format", "latex")
    assert code == 0
    assert "$\\alpha_{3,2}(n)$" in out


# ---------------------------------------------------------------- functionals

def test_functionals_classical_meixner_row(capsys):
    code, out, _ = run(capsys, "functionals", "--family", "meixner-eq14", "--d", "1",
                       "--param", "beta=1", "--param", "c=1/2", "--order", "4")
    assert code == 0
    doc = json.loads(out)
    values = {(r["i"], r["m"]): r for r in doc["rows"]}
    assert values[(0, 2)]["value"] == "3"
    assert values[(0, 2)]["cross_check"]["evaluator"] == "meixner-classical"
    assert values[(0, 2)]["cross_check"]["match"] is True


def test_functionals_meixner_eq14_cross_checks_at_negative_c(capsys):
    # at d = 1 eq14 and eq16 are one couple with one node series, which
    # converges for |c| < 1: both cross-check every row, with equal values
    rows = {}
    for family in ("meixner-eq14", "meixner-eq16"):
        code, out, _ = run(capsys, "functionals", "--family", family, "--d", "1",
                           "--param", "beta=1", "--param", "c=-1/2", "--order", "6")
        assert code == 0
        rows[family] = json.loads(out)["rows"]
    eq14, eq16 = rows["meixner-eq14"], rows["meixner-eq16"]
    assert len(eq14) == 7
    assert all(r["cross_check"] == {"evaluator": "meixner-classical", "match": True,
                                    "value": r["value"]} for r in eq14)
    assert [(r["i"], r["m"], r["value"]) for r in eq14] \
        == [(r["i"], r["m"], r["value"]) for r in eq16]
    assert {r["cross_check"]["evaluator"] for r in eq16} == {"meixner-node-series"}


def test_functionals_laguerre_eq11_value(capsys):
    code, out, _ = run(capsys, "functionals", "--family", "laguerre-eq11",
                       "--param", "alpha=1/2", "--order", "2", "--index", "0")
    assert code == 0
    doc = json.loads(out)
    values = {(r["i"], r["m"]): r["value"] for r in doc["rows"]}
    assert values[(0, 1)] == "3/2"
    assert all(r["i"] == 0 for r in doc["rows"])


def test_functionals_index_out_of_range(capsys):
    code, _, err = run(capsys, "functionals", "--family", "laguerre-eq11",
                       "--param", "alpha=1/2", "--index", "2")
    assert code == 2
    assert "--index" in err


def test_functionals_csv_annotations(capsys):
    code, out, _ = run(capsys, "functionals", "--family", "laguerre-eq9", "--d", "1",
                       "--param", "alpha=0", "--order", "2", "--format", "csv")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "i,m,value,evaluator,cross_evaluator,cross_value,match"
    # no explicit evaluator exists for this family: annotation columns stay empty
    assert lines[1].startswith("0,0,1,operator-series,,,")



@pytest.mark.parametrize("fmt, marker", [
    ("json", '"match": false'), ("csv", ",wrong,0,false"), ("latex", "wrong: MISMATCH"),
])
def test_functionals_cross_check_mismatch_exits_1(fmt, marker, monkeypatch, capsys):
    # an evaluator that disagrees from m = 1 on: every format prints the
    # disagreement, and the exit code reports it
    def row(i, order):                                  # the row 1, 0, ..., 0
        return (Fraction(1),) + (Fraction(0),) * order

    monkeypatch.setattr(catalog, "explicit_functional", lambda spec: ("wrong", row))
    code, out, _ = run(capsys, "functionals", "--family", "laguerre-eq9", "--d", "1",
                       "--param", "alpha=0", "--order", "2", "--format", fmt)
    assert code == 1
    assert marker in out
    assert out.count(marker) == 2                       # m = 1 and m = 2

def test_functionals_couple_source(tmp_path, capsys):
    path = tmp_path / "c.json"
    path.write_text(APP1)
    code, out, _ = run(capsys, "functionals", "--couple-file", str(path),
                       "--order", "4")
    assert code == 0
    doc = json.loads(out)
    values = {(r["i"], r["m"]): r["value"] for r in doc["rows"]}
    assert values[(0, 2)] == "2"                        # e^{-x} moment: 2!


# ---------------------------------------------------------------- catalog-list

def test_catalog_list(capsys):
    code, out, _ = run(capsys, "catalog-list")
    assert code == 0
    doc = json.loads(out)
    families = [f["family"] for f in doc["families"]]
    assert len(families) == 8
    assert "meixner-eq21" in families
    by_id = {f["family"]: f for f in doc["families"]}
    assert by_id["laguerre-eq11"]["d_fixed"] == 2
    assert by_id["charlier-eq13"]["operator_kind"] == "difference"


def test_catalog_list_bytes_are_pinned(capsys):
    # the listing reads fields of catalog.FAMILIES: a field added there must not leak
    code, _, _ = run(capsys, "catalog-list")
    assert code == 0
    assert unpinned([("catalog-list",)]) == []


# ---------------------------------------------------------------- misc plumbing

def test_out_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "t.csv"
    code, out, _ = run(capsys, "expand", "--family", "laguerre-eq9", "--d", "1",
                       "--param", "alpha=0", "--order", "2", "--format", "csv",
                       "--out", str(target))
    assert code == 0
    assert out == ""
    assert target.read_text().startswith("n,text,c0")


def test_unwritable_output_path(capsys):
    code, _, _ = run(capsys, "expand", "--family", "laguerre-eq9", "--d", "1",
                     "--param", "alpha=0", "--out", "/nonexistent/dir/out.json")
    assert code == 3


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0


def test_missing_subcommand_exits_2(capsys):
    assert main([]) == 2


# ---------------------------------------------------------------- --order bounds and exit 2

LAGUERRE_D1 = ("--family", "laguerre-eq9", "--d", "1", "--param", "alpha=0")


@pytest.mark.parametrize("argv", [
    ("expand", "--order", "0") + LAGUERRE_D1,
    ("expand", "--order", "-3") + LAGUERRE_D1,
    ("verify", "--order", "2") + LAGUERRE_D1,                      # needs d + 2 = 3
    ("verify", "--order", "3", "--check-d", "2") + LAGUERRE_D1,    # needs 4
    ("recurrence", "--order", "0") + LAGUERRE_D1,
    ("recurrence", "--order", "3", "--family", "laguerre-eq9", "--d", "2",
     "--param", "alpha=0"),                                        # needs 4
    ("functionals", "--order", "0") + LAGUERRE_D1,
    ("functionals", "--order", "1", "--family", "meixner-eq16", "--d", "3",
     "--param", "c=1/2", "--param", "beta=1"),                     # needs d - 1 = 2
])
def test_order_below_its_bound_exits_2(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert "--order" in err


def test_order_at_its_bound_runs(capsys):
    assert run(capsys, "verify", "--order", "3", *LAGUERRE_D1)[0] == 0
    assert run(capsys, "recurrence", "--order", "3", *LAGUERRE_D1)[0] == 0
    assert run(capsys, "functionals", "--order", "2", "--family", "meixner-eq16", "--d", "3",
               "--param", "c=1/2", "--param", "beta=1")[0] == 0


def test_internal_errors_are_not_read_as_bad_input(monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("a bug, not a bad parameter")

    monkeypatch.setattr(cli, "expand_from_couple", broken)
    with pytest.raises(ValueError, match="a bug"):
        main(["expand", "--order", "3", *LAGUERRE_D1])

    def remainder(*args, **kwargs):
        raise BackSubstitutionError(n=1, remainder=dsheffer.Poly((0, 1)))

    monkeypatch.undo()
    # only verify back-substitutes; recurrence reads its rows off the couple
    monkeypatch.setattr(dorth, "extract_recurrence", remainder)
    with pytest.raises(BackSubstitutionError):
        main(["verify", "--order", "3", *LAGUERRE_D1])


# ---------------------------------------------------------------- repeated calls in one process

LAGUERRE_EQ9_HALF = ("--family", "laguerre-eq9", "--param", "alpha=1/2")


def test_main_builds_one_parser_per_process(monkeypatch, capsys):
    main(["catalog-list"])
    built = []
    original = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        original(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    misses = cli.build_parser.cache_info().misses
    for argv in (["catalog-list"], ["expand", "--order", "3", *LAGUERRE_D1],
                 ["verify", "--order", "3", *LAGUERRE_D1], ["expand", "--order", "x"],
                 ["recurrence", "--help"], ["--help"], []):
        main(argv)
    assert built == []
    assert cli.build_parser.cache_info().misses == misses
    assert cli.build_parser() is cli.build_parser()


def test_param_lists_do_not_leak_between_calls(capsys):
    first = run(capsys, "expand", "--order", "3", *LAGUERRE_EQ9_HALF)
    assert first[0] == 0
    code, out, err = run(capsys, "expand", "--order", "3", "--family", "laguerre-eq9")
    assert (code, out, err) == (2, "", "error: missing parameter(s): alpha\n")
    assert run(capsys, "expand", "--order", "3", *LAGUERRE_EQ9_HALF) == first


def test_parser_errors_and_help_leave_the_next_call_unchanged(capsys):
    argv = ["recurrence", "--order", "5", "--format", "csv", *LAGUERRE_EQ9_HALF]
    first = run(capsys, *argv)
    assert first[0] == 0
    code, out, err = run(capsys, "expand", "--order", "x", *LAGUERRE_EQ9_HALF)
    assert (code, out) == (2, "")
    assert err.startswith("usage: dsheffer expand") and "invalid int value: 'x'" in err
    code, out, err = run(capsys, "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: dsheffer")
    assert run(capsys, "expand", "--help")[0] == 0
    assert run(capsys, *argv) == first


def test_redirected_streams_still_capture_parser_output(capsys):
    # argparse looks up sys.stdout and sys.stderr when it prints, not when it is built
    main(["catalog-list"])
    capsys.readouterr()
    for argv, code, stream in ((["--help"], 0, "out"), (["expand", "--order", "x"], 2, "err"),
                               (["expand", "--family", "laguerre-eq9"], 2, "err")):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            assert main(argv) == code
        assert capsys.readouterr() == ("", "")
        written = {"out": out.getvalue(), "err": err.getvalue()}
        assert written[stream] and not written["err" if stream == "out" else "out"]


MEIXNER_EQ14_D1 = ("--family", "meixner-eq14", "--d", "1",
                   "--param", "beta=1", "--param", "c=1/2")


def count_couples(monkeypatch) -> list[str]:
    """The families of the couples catalog builds from here on, in order."""
    built = []
    original = catalog._couple_of
    monkeypatch.setattr(catalog, "_couple_of",
                        lambda spec: built.append(spec.family) or original(spec))
    return built


@pytest.mark.parametrize("command, couples", [
    # the spec builds its couple once, when it is screened, and every reader
    # takes the couple kept on it
    ("expand", 1), ("recurrence", 1), ("functionals", 1), ("verify", 1),
])
def test_one_couple_per_family_command(command, couples, monkeypatch, capsys):
    built = count_couples(monkeypatch)
    assert run(capsys, command, "--order", "6", *MEIXNER_EQ14_D1)[0] == 0
    assert built == ["meixner-eq14"] * couples


@pytest.mark.parametrize("spec, couples, message", [
    (("--family", "laguerre-eq9", "--d", "1"), 0, "missing parameter(s): alpha"),
    (("--family", "laguerre-eq9", "--d", "1", "--param", "alpha=0", "--aux", "1"), 0,
     "laguerre-eq9 takes no auxiliary polynomial"),
    (("--family", "laguerre-eq11", "--d", "1", "--param", "alpha=1/2"), 0,
     "laguerre-eq11 requires d = 2, got d = 1"),
    (("--family", "hermite-eq12", "--d", "1", "--aux", "0,0"), 0,
     "auxiliary polynomial needs 3 coefficient(s) (a_0..a_(d+1), degree d+1), got 2"),
    (("--family", "charlier-eq13", "--d", "1", "--param", "omega=0", "--aux", "0,1"), 0,
     "omega must be nonzero"),
    (("--family", "meixner-eq14", "--d", "1", "--param", "beta=1", "--param", "c=1"), 0,
     "c = 1 must avoid 0 and 1"),
    (("--family", "laguerre-eq9", "--d", "2", "--param", "alpha=-3/2"), 1,
     "laguerre-eq9 at d = 2, alpha = -3/2 violates 'n/d + alpha + 1 != 0 for all n >= 0': "
     "its couple has n*alpha_(d+1) = beta_d at n = 1"),
    (("--family", "meixner-eq16", "--d", "2", "--param", "beta=1", "--param", "c=-1"), 1,
     "meixner-eq16 at d = 2, beta = 1, c = -1 violates "
     "'c not in {0, 1/(1-d), 1}; beta != -n/d for all n >= 0': its couple has beta_d = 0"),
    (("--family", "hermite-eq12", "--d", "1"), 1,
     "hermite-eq12 at d = 1 violates 'a_(d+1) != 0': its couple has beta_d = 0"),
])
@pytest.mark.parametrize("command", ["expand", "verify"])
def test_rejected_specs_keep_their_messages(command, spec, couples, message,
                                            monkeypatch, capsys):
    # the couple is built only once the structural and value rules pass
    built = count_couples(monkeypatch)
    assert run(capsys, command, *spec) == (2, "", f"error: {message}\n")
    assert len(built) == couples
