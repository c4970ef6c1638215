"""Benchmark of the dsheffer CLI: wall time to checked verdicts.

Run from the root of a checkout:

    python3 perfbench/run.py --workload verify-catalog-n12 --seed 1 --seconds 40 --trace 0

Each run makes its inputs from ``--seed``, runs every input once through
``dsheffer.cli.main(argv)`` in one process, checks every output against the
benchmark's own oracles, re-runs one input per command to compare bytes, and
prints one JSON object as the last line of standard output.  With
``--trace 0`` it reports the end-to-end metrics; with ``--trace 1`` it runs
the same pass again with spans around the package's public functions and
reports per-layer metrics.  ``--seconds`` is the measuring budget each
workload's pass is sized to; a pass is never cut short or repeated, so that
every input is checked and runs once.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import gc
import io
import json
import random
import resource
import statistics
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import speed
import workloads
from speed import SpeedMeter
from tracing import Tracer
from workloads import EXPAND_RECURRENCE, WORKDIR, Op, Result

SETUP_SAMPLES = 11

# Per-layer metrics: span name -> which of calls, self_s (span time minus its
# child spans) and total_s (span time) are reported.
ALL = ("calls", "self_s", "total_s")
LAYERS = {
    "catalog.family_generating": ALL,
    "catalog.family_lowering": ALL,
    "series.Series.reversion": ALL,
    "series.Series.compose": ALL,
    "operators.lowering_from_H": ALL,
    "operators.FunctionalVector": ALL,
    "operators.functional_eval": ALL,
    "series.Poly.shift": ("calls",),
    "dorth.verify_d_orthogonality": ALL,
    "dorth.verify_duality": ALL,
    "sheffer.expand_polynomials": ALL,
    "dorth.extract_recurrence": ALL,
    "sheffer.pair_from_couple": ALL,
    "render.dump_json": ("self_s",),
    "dorth.verify_lowering": ALL,
    "operators.apply_lowering": ALL,
    "sheffer.check_conditions": ALL,
    "cli.main": ("self_s",),
}
OBSERVED = {
    "dorth.verify_d_orthogonality.cells": "count",
    "sheffer.seq.max_bits": "bits",
    "operators.hstar.max_bits": "bits",
    "sheffer.pair.max_bits": "bits",
}
REALIZING = ("catalog.family_generating", "catalog.family_lowering")


def run_op(cli, op: Op, clock=time.perf_counter) -> Result:
    out, err = io.StringIO(), io.StringIO()
    start = clock()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            code = cli.main(list(op.argv))
    except Exception as exc:  # a crash fails this operation, not the run
        return Result(None, out.getvalue(), err.getvalue(), clock() - start, crash=repr(exc))
    return Result(code, out.getvalue(), err.getvalue(), clock() - start)


def run_pass(cli, ops: list[Op], tracer: Tracer | None = None) -> tuple[list[Result], list[float]]:
    """Every operation once, in order, with the speed meter running.

    Returns the results and each operation's time in nominal seconds, scaled
    by the reference times sampled during it and just before it.
    """
    gc.collect()
    meter = SpeedMeter()
    if tracer is not None:
        tracer.clock = meter.clock
    results, nominal = [], []
    with meter.running():
        meter.sample()
        for i, op in enumerate(ops):
            first = len(meter.samples) - 1
            if tracer is None:
                results.append(run_op(cli, op, meter.clock))
            else:
                end_trace = tracer.operation(i)
                results.append(run_op(cli, op, meter.clock))
                end_trace()
            nominal.append(speed.to_nominal(results[-1].seconds, meter.samples[first:]))
    return results, nominal


def check_pass(workload: str, ops: list[Op], results: list[Result]) -> dict[int, str]:
    """Failure reason per operation index, for every operation that failed."""
    failures = {}
    for i, (op, res) in enumerate(zip(ops, results)):
        if res.crash is not None:
            failures[i] = f"crash: {res.crash}"
        elif op.command == "verify":
            reason = workloads.check_verify(op, res)
            if reason:
                failures[i] = reason
        elif res.exit_code != op.expect_exit:
            failures[i] = f"exit {res.exit_code}, expected {op.expect_exit}: {res.err.strip()}"
    if workload == EXPAND_RECURRENCE:
        by_key: dict[str, dict[str, int]] = {}
        for i, op in enumerate(ops):
            by_key.setdefault(op.key, {})[op.command] = i
        for pair in by_key.values():
            e, r = pair["expand"], pair["recurrence"]
            if e in failures or r in failures:
                continue
            reason = workloads.check_expansion(results[e].out, results[r].out)
            if reason:
                failures[r] = reason
    return failures


def same_output(a: Result, b: Result) -> bool:
    return (a.exit_code, a.out, a.crash) == (b.exit_code, b.out, b.crash)


def measure_setup(workload: str, seed: int) -> float:
    """Median time, in nominal seconds, of fresh processes that import the CLI
    and build the inputs; each is scaled by reference times taken around it."""
    probe = Path(__file__).with_name("setup_once.py")
    samples = []
    for _ in range(SETUP_SAMPLES):
        before = speed.reference_times(10)
        start = time.perf_counter()
        subprocess.run([sys.executable, str(probe), workload, str(seed)], check=True)
        elapsed = time.perf_counter() - start
        samples.append(speed.to_nominal(elapsed, before + speed.reference_times(10)))
    return statistics.median(samples)


def layer_metrics(tracer: Tracer, ops: list[Op], traced: list[Result],
                  overhead_ratio: float) -> dict[str, dict]:
    totals = tracer.layer_totals()
    metrics = {}
    for name, fields in LAYERS.items():
        entry = totals.get(name, {"calls": 0, "self_s": 0.0, "total_s": 0.0})
        for field in fields:
            unit = "count" if field == "calls" else "s"
            metrics[f"{name}.{field}"] = {"value": entry[field], "unit": unit}
    for name, unit in OBSERVED.items():
        metrics[name] = {"value": tracer.observed.get(name, 0), "unit": unit}
    family_verifies = {i for i, op in enumerate(ops)
                       if op.command == "verify" and "--family" in op.argv}
    realized = sum(1 for trace, _, _, name, _, _ in tracer.spans
                   if name in REALIZING and trace in family_verifies)
    metrics["catalog.realize_per_verify"] = {
        "value": realized / len(family_verifies) if family_verifies else 0.0,
        "unit": "ratio"}
    metrics["trace.overhead_ratio"] = {"value": overhead_ratio, "unit": "ratio"}
    # Share of the traced operations' wall time that the spans' self times cover.
    self_total = sum(entry["self_s"] for entry in totals.values())
    metrics["trace.self_coverage"] = {
        "value": self_total / sum(r.seconds for r in traced), "unit": "ratio"}
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True,
                        help="measuring budget the workload's pass is sized to")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = workloads.import_program()
    setup_s = None if args.trace else measure_setup(args.workload, args.seed)
    ops = workloads.build_ops(args.workload, args.seed, WORKDIR)

    results, nominal = run_pass(cli, ops)
    failures = check_pass(args.workload, ops, results)

    # Re-run one input of each command, untimed, and compare the bytes.
    rng = random.Random(f"rerun:{args.workload}:{args.seed}")
    for command in sorted({op.command for op in ops}):
        i = rng.choice([i for i, op in enumerate(ops) if op.command == command])
        if not same_output(run_op(cli, ops[i]), results[i]):
            failures.setdefault(i, "output differs when re-run")

    if args.trace:
        tracer = Tracer()
        with tracer.installed():
            traced, traced_nominal = run_pass(cli, ops, tracer)
        for i, (a, b) in enumerate(zip(results, traced)):
            if not same_output(a, b):
                failures.setdefault(i, "traced output differs from untraced output")
        tracer.write(WORKDIR / f"spans-{args.workload}.jsonl")
        metrics = layer_metrics(tracer, ops, traced, sum(traced_nominal) / sum(nominal))
    else:
        metrics = {
            "wall_s": {"value": sum(nominal), "unit": "s"},
            "op_s.p50": {"value": statistics.median(nominal), "unit": "s"},
            "setup_s": {"value": setup_s, "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }

    for i in sorted(failures):
        print(f"FAILED {ops[i].command} {ops[i].key}: {failures[i]}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {len(ops)} ops, {len(failures)} failed, "
          f"pass {sum(r.seconds for r in results):.3f} s measured, {sum(nominal):.3f} s nominal "
          f"(budget {args.seconds} s)", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": len(ops),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
