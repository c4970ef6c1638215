"""Inputs, oracles and output checks for the dsheffer benchmark.

Every input is made from the workload seed and is run through the public CLI
entry point ``dsheffer.cli.main(argv)``.  The checks here never call into the
package's own verification code: the couple oracle reads the regularity
conditions straight off the coefficients, and the recurrence check redoes
``x P_n = sum_j alpha_j(n) P_{n-d+j}`` with plain lists of ``Fraction``.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKDIR = ROOT / "perfbench" / ".work"

VERIFY_CATALOG = "verify-catalog-n12"
VERIFY_COUPLES = "verify-couples-n20"
EXPAND_RECURRENCE = "expand-recurrence-n40"
WORKLOADS = (VERIFY_CATALOG, VERIFY_COUPLES, EXPAND_RECURRENCE)

ORDERS = {VERIFY_CATALOG: 12, VERIFY_COUPLES: 20, EXPAND_RECURRENCE: 40}

# d of the drawn couples, one couple per entry; fixed so that every seed
# draws the same mix of sizes and only the coefficients move.
COUPLE_DS = (1, 1, 1, 2, 2, 2, 3, 3, 3)

# |gamma_k| and |sigma_k| are fixed and the seed draws every sign.  The cost
# of the exact arithmetic follows the heights of the coefficients, and drawn
# heights made the time of a couple vary by about 10% between seeds; with
# fixed heights a run of nine couples is steady.  No ratio
# |gamma_d / sigma_{d+1}| is an integer, so every drawn couple is regular.
GAMMA_MAGNITUDES = (Fraction(1, 2), Fraction(5, 3), Fraction(7, 5), Fraction(3, 4))
SIGMA_MAGNITUDES = (Fraction(5, 6), Fraction(2, 3), Fraction(3, 5), Fraction(7, 4), Fraction(4, 3))

# beta_d / alpha_{d+1} = 40 is a positive integer above N = 20, so the couple
# is not regular (n = 40 breaks it) while the order-20 checks cannot see it:
# `verify --order 20` wrongly reports pass.  It is not an input of the couples
# workload, whose operations must all pass; test_perfbench.py keeps it as a
# strict expected failure until regularity is decided for all n.
OVER_N_COUPLE = {"d": 1, "gamma": [0, 40], "sigma": [1, 0, 1]}


def import_program():
    """Import the CLI from the checkout's ``src``; exits if it is not there."""
    src = ROOT / "src"
    if not (src / "dsheffer" / "cli.py").is_file():
        sys.exit(f"dsheffer sources not found under {src}")
    sys.path.insert(0, str(src))
    from dsheffer import cli

    return cli


@dataclass(frozen=True)
class Op:
    """One CLI invocation and what its result must be."""

    key: str
    command: str
    argv: tuple[str, ...]
    expect_exit: int | None = None
    expect_overall: str | None = None


def _family_argv(spec) -> list[str]:
    argv = ["--family", spec.family, "--d", str(spec.d)]
    for name, value in sorted(spec.params.items()):
        argv += ["--param", f"{name}={value}"]
    if spec.aux is not None:
        argv += ["--aux", ",".join(str(a) for a in spec.aux)]
    return argv


def _signed(rng: random.Random, magnitudes) -> list[Fraction]:
    return [rng.choice((-1, 1)) * m for m in magnitudes]


def draw_couples(seed: int) -> list[dict]:
    """Couples of the couples workload, one per entry of COUPLE_DS, in seed order.

    The coefficients are GAMMA_MAGNITUDES and SIGMA_MAGNITUDES with drawn signs.
    """
    rng = random.Random(f"couples:{seed}")
    ds = list(COUPLE_DS)
    rng.shuffle(ds)
    couples = []
    for d in ds:
        gamma = _signed(rng, GAMMA_MAGNITUDES[:d + 1])
        sigma = _signed(rng, SIGMA_MAGNITUDES[:d + 2])
        couples.append({"d": d, "gamma": [str(c) for c in gamma],
                        "sigma": [str(c) for c in sigma]})
    return couples


def _regularity_terms(couple: dict) -> tuple[Fraction, Fraction, Fraction]:
    """alpha_0, beta_d and alpha_{d+1} of a couple document."""
    d = couple["d"]
    gamma = [Fraction(c) for c in couple["gamma"]] + [Fraction(0)] * (d + 1)
    sigma = [Fraction(c) for c in couple["sigma"]] + [Fraction(0)] * (d + 2)
    return sigma[0], gamma[d], sigma[d + 1]


def expected_verdict(couple: dict) -> str:
    """The true verdict of a couple, decided for all n >= 1 at once.

    Fails exactly when alpha_0 = 0, beta_d = 0, or beta_d / alpha_{d+1} is a
    positive integer n (then n * alpha_{d+1} - beta_d = 0).
    """
    alpha_0, beta_d, alpha_top = _regularity_terms(couple)
    if alpha_0 == 0 or beta_d == 0:
        return "fail"
    if alpha_top != 0:
        ratio = beta_d / alpha_top
        if ratio > 0 and ratio.denominator == 1:
            return "fail"
    return "pass"


def expected_exit(couple: dict) -> int:
    """Exit code of a correct ``verify``: 0 pass, 1 fail, 2 rejected input."""
    if expected_verdict(couple) == "pass":
        return 0
    alpha_0, beta_d, _ = _regularity_terms(couple)
    # alpha_0 = 0 or beta_d = 0 is rejected as invalid input before any check
    return 2 if alpha_0 == 0 or beta_d == 0 else 1


def build_ops(workload: str, seed: int, workdir: Path) -> list[Op]:
    """The operations of one run, each input once, in seed order.

    Writes the couple files of the couples workload into ``workdir``.
    """
    from dsheffer import catalog

    rng = random.Random(f"order:{workload}:{seed}")
    N = str(ORDERS[workload])
    ops: list[Op] = []
    if workload == VERIFY_CATALOG:
        for spec in catalog.default_sample_specs():
            key = f"{spec.family}/d={spec.d}"
            ops.append(Op(key, "verify", ("verify", *_family_argv(spec), "--order", N),
                          expect_exit=0, expect_overall="pass"))
    elif workload == VERIFY_COUPLES:
        workdir.mkdir(parents=True, exist_ok=True)
        for i, couple in enumerate(draw_couples(seed)):
            path = workdir / f"couple-{i}.json"
            path.write_text(json.dumps(couple, sort_keys=True))
            ops.append(Op(json.dumps(couple, sort_keys=True), "verify",
                          ("verify", "--couple-file", str(path), "--order", N),
                          expect_exit=expected_exit(couple),
                          expect_overall=expected_verdict(couple)))
    elif workload == EXPAND_RECURRENCE:
        for spec in catalog.default_sample_specs():
            key = f"{spec.family}/d={spec.d}"
            for command in ("expand", "recurrence"):
                ops.append(Op(key, command, (command, *_family_argv(spec), "--order", N),
                              expect_exit=0))
    else:
        raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")
    rng.shuffle(ops)
    return ops


@dataclass
class Result:
    exit_code: int | None
    out: str
    err: str
    seconds: float
    crash: str | None = None


def check_verify(op: Op, res: Result) -> str | None:
    """None if the verify report matches the oracle, else the reason."""
    if res.exit_code != op.expect_exit:
        return f"exit {res.exit_code}, expected {op.expect_exit}"
    if res.exit_code == 2:
        return None
    try:
        report = json.loads(res.out)
    except json.JSONDecodeError as exc:
        return f"report is not JSON: {exc}"
    if report.get("overall") != op.expect_overall:
        return f"overall {report.get('overall')!r}, oracle says {op.expect_overall!r}"
    return None


def _poly_coeffs(doc: dict) -> list[list[Fraction]]:
    return [[Fraction(c) for c in row["coeffs"]] for row in doc["polynomials"]]


def check_expansion(expand_out: str, recurrence_out: str) -> str | None:
    """None if the recurrence rows reproduce the expansion exactly.

    Checks deg P_n = n, P_0 = 1, and x P_n = sum_{k=0}^{d+1} alpha_k(n)
    P_{n-d+k} for every row n, with rows below index 0 required to be 0.
    """
    try:
        polys = _poly_coeffs(json.loads(expand_out))
        table = json.loads(recurrence_out)["table"]
        d = table["d"]
        rows = [[Fraction(c) for c in row] for row in table["rows"]]
    except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
        return f"unreadable output: {exc!r}"
    if polys[0] != [1]:
        return "P_0 is not 1"
    for n, p in enumerate(polys):
        if len(p) != n + 1 or p[-1] == 0:
            return f"P_{n} does not have degree {n}"
    if len(rows) != len(polys) - 1:
        return f"{len(rows)} recurrence rows for P_0..P_{len(polys) - 1}"
    for n, row in enumerate(rows):
        if len(row) != d + 2:
            return f"row {n} has {len(row)} entries, expected {d + 2}"
        lhs = [Fraction(0)] + polys[n]
        rhs = [Fraction(0)] * (n + 2)
        for k, alpha in enumerate(row):
            j = n - d + k
            if j < 0:
                if alpha != 0:
                    return f"row {n}: alpha_{k} on P_{j} is {alpha}, expected 0"
                continue
            for i, c in enumerate(polys[j]):
                rhs[i] += alpha * c
        if lhs != rhs:
            return f"row {n}: x P_{n} != sum_k alpha_k({n}) P_{{{n}-{d}+k}}"
    return None
