"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

import json
from fractions import Fraction

import pytest

import run
import workloads
from tracing import Tracer

cli = workloads.import_program()

from dsheffer import catalog  # noqa: E402  (importable once the program is on the path)
from dsheffer.sheffer import CoupleSpec, check_conditions  # noqa: E402


def small_ops(tmp_path, order=6):
    """A few cheap operations covering both verify sources and both expand commands."""
    ops = []
    for spec in catalog.default_sample_specs()[::7]:
        argv = workloads._family_argv(spec)
        for command in ("verify", "expand", "recurrence"):
            ops.append(workloads.Op(spec.family, command, (command, *argv, "--order", str(order)),
                                    expect_exit=0, expect_overall="pass"))
    path = tmp_path / "couple.json"
    path.write_text(json.dumps(workloads.draw_couples(3)[0]))
    ops.append(workloads.Op("couple", "verify",
                            ("verify", "--couple-file", str(path), "--order", str(order))))
    return ops


def test_traced_and_untraced_reports_are_byte_identical(tmp_path):
    ops = small_ops(tmp_path)
    plain, _ = run.run_pass(cli, ops)
    tracer = Tracer()
    with tracer.installed():
        traced, _ = run.run_pass(cli, ops, tracer)
    assert [(r.exit_code, r.out) for r in traced] == [(r.exit_code, r.out) for r in plain]
    assert all(r.crash is None for r in plain)
    assert {name for _, _, _, name, _, _ in tracer.spans} >= {
        "cli.main", "catalog.family_generating", "series.Series.reversion",
        "dorth.verify_d_orthogonality", "sheffer.pair_from_couple", "render.dump_json"}
    assert {trace for trace, *_ in tracer.spans} == set(range(len(ops)))


def test_wrappers_are_removed_after_the_traced_pass(tmp_path):
    from dsheffer import dorth, operators, series

    before = (cli.main, cli.verify_duality, operators.FunctionalVector.__init__,
              series.Poly.shift, dorth.functional_eval)
    with Tracer().installed():
        assert cli.verify_duality is not before[1]
        assert series.Poly.shift is not before[3]
    assert (cli.main, cli.verify_duality, operators.FunctionalVector.__init__,
            series.Poly.shift, dorth.functional_eval) == before


def test_self_time_excludes_children():
    tracer = Tracer()
    tracer.spans = [(0, 0, None, "outer", 0.0, 10.0), (0, 1, 0, "inner", 2.0, 5.0),
                    (0, 2, 0, "inner", 6.0, 7.0), (0, 3, 1, "leaf", 3.0, 4.0)]
    totals = tracer.layer_totals()
    assert totals["outer"]["self_s"] == pytest.approx(6.0)
    assert totals["inner"]["self_s"] == pytest.approx(3.0)
    assert totals["inner"]["calls"] == 2
    assert totals["leaf"]["self_s"] == pytest.approx(1.0)


@pytest.mark.parametrize("seed", [0, 1, 7, 12345])
def test_couple_generator_is_deterministic_per_seed(seed, tmp_path):
    assert workloads.draw_couples(seed) == workloads.draw_couples(seed)
    a = workloads.build_ops(workloads.VERIFY_COUPLES, seed, tmp_path / "a")
    b = workloads.build_ops(workloads.VERIFY_COUPLES, seed, tmp_path / "b")
    assert [op.key for op in a] == [op.key for op in b]
    assert sorted(c["d"] for c in workloads.draw_couples(seed)) == sorted(workloads.COUPLE_DS)
    assert all(workloads.expected_verdict(c) == "pass" for c in workloads.draw_couples(seed))


def test_couple_generator_varies_with_seed():
    assert workloads.draw_couples(1) != workloads.draw_couples(2)


def oracle_cases():
    cases = [c for seed in range(40) for c in workloads.draw_couples(seed)]
    cases += [
        {"d": 1, "gamma": [0, 2], "sigma": [1, 0, 1]},           # ratio 2
        {"d": 2, "gamma": [1, 0, 6], "sigma": [1, 0, 0, 3]},     # ratio 2
        {"d": 1, "gamma": [0, 20], "sigma": [1, 0, 1]},          # ratio 20 = N
        {"d": 1, "gamma": [0, -2], "sigma": [1, 0, 1]},          # negative ratio
        {"d": 1, "gamma": [0, "5/2"], "sigma": [1, 0, 1]},       # ratio not an integer
        {"d": 2, "gamma": [1, 1, 1], "sigma": [1, 1, 1, 0]},     # alpha_{d+1} = 0
        {"d": 1, "gamma": [1, 0], "sigma": [1, 0, 1]},           # beta_d = 0
        {"d": 3, "gamma": [1, 1, 1, 1], "sigma": [0, 1, 1, 1, 1]},  # alpha_0 = 0
    ]
    return cases


def test_oracle_agrees_with_check_conditions_up_to_n():
    N = 20
    compared = 0
    for couple in oracle_cases():
        spec = CoupleSpec(d=couple["d"], gamma=tuple(Fraction(c) for c in couple["gamma"]),
                          sigma=tuple(Fraction(c) for c in couple["sigma"]))
        top = spec.alpha_top
        ratio = spec.beta_d / top if top else None
        if ratio is not None and ratio > N and ratio.denominator == 1:
            continue  # decided only beyond the checked orders
        compared += 1
        program = "pass" if check_conditions(spec, N).passed else "fail"
        assert workloads.expected_verdict(couple) == program, couple
    assert compared > 200


def test_over_n_couple_is_the_known_disagreement():
    couple = workloads.OVER_N_COUPLE
    spec = CoupleSpec(d=1, gamma=(0, 40), sigma=(1, 0, 1))
    assert workloads.expected_verdict(couple) == "fail"
    assert check_conditions(spec, 20).passed
    assert not check_conditions(spec, 40).passed


@pytest.mark.xfail(strict=True, reason="known defect: regularity is checked only for n <= N, "
                   "so verify --order 20 passes a couple that n = 40 breaks (ROADMAP item 4)")
def test_verify_rejects_the_over_n_couple(tmp_path):
    couple = workloads.OVER_N_COUPLE
    path = tmp_path / "couple.json"
    path.write_text(json.dumps(couple))
    op = workloads.Op("over-n", "verify", ("verify", "--couple-file", str(path), "--order", "20"),
                      expect_exit=workloads.expected_exit(couple),
                      expect_overall=workloads.expected_verdict(couple))
    assert workloads.check_verify(op, run.run_op(cli, op)) is None


def test_expected_exit_codes():
    assert workloads.expected_exit({"d": 1, "gamma": [0, "1/2"], "sigma": [1, 0, 1]}) == 0
    assert workloads.expected_exit({"d": 1, "gamma": [0, 3], "sigma": [1, 0, 1]}) == 1
    assert workloads.expected_exit({"d": 1, "gamma": [1, 0], "sigma": [1, 0, 1]}) == 2


def test_expansion_check_accepts_real_output_and_rejects_a_changed_row(tmp_path):
    spec = catalog.default_sample_specs()[2]
    argv = workloads._family_argv(spec)
    expand = run.run_op(cli, workloads.Op("k", "expand", ("expand", *argv, "--order", "8")))
    rec = run.run_op(cli, workloads.Op("k", "recurrence", ("recurrence", *argv, "--order", "8")))
    assert workloads.check_expansion(expand.out, rec.out) is None

    doc = json.loads(rec.out)
    row = doc["table"]["rows"][5]
    row[-1] = str(Fraction(row[-1]) + 1)
    assert "row 5" in workloads.check_expansion(expand.out, json.dumps(doc))


def test_verify_check_reports_a_verdict_that_differs_from_the_oracle():
    op = workloads.Op("k", "verify", (), expect_exit=1, expect_overall="fail")
    passing = workloads.Result(0, json.dumps({"overall": "pass"}), "", 0.0)
    failing = workloads.Result(1, json.dumps({"overall": "fail"}), "", 0.0)
    assert workloads.check_verify(op, passing) == "exit 0, expected 1"
    assert workloads.check_verify(op, failing) is None
