"""Byte-identity sweep: one corpus of CLI runs, one sha256 per argv.

Each run of the corpus is recorded as the sha256 of its exit code, stdout
and stderr.  A change that must keep every output the same is checked by
sweeping the tree before it and the tree after it over the same corpus:

    python tests/sweep.py                 # this tree: the count and one digest of all runs
    python tests/sweep.py --against DIR   # also DIR's src/, in a subprocess; lists every
                                          # argv whose digest differs, exits 1 if any does
    python tests/sweep.py --expect FILE   # exits 1 unless the digest of all runs is FILE's

tests/sweep.sha256 pins the digest of all runs, and it is the package's one
byte pin of its outputs: tier-1 (tests/test_sweep.py) sweeps the whole
corpus in process and compares the digest with it, and tests of particular
reports ask `unpinned` which of their argv print other bytes.  When the
digest differs, --against the tree before the change lists the argv whose
output differs.
A change that alters an output on purpose updates the pin, and lists those
argv.

The corpus covers every subcommand, format and source kind: the 21 default
samples, the benchmark's couples of seeds 1-3, the over-N, irregular and
edge couples, invalid, malformed and unreadable couple files, edge --family
sources (non-ASCII digits, values past Python's int/str digit limit),
`functionals --order 40` on family specs off the defaults whose closed-form
rows cross-check it (negative c among them) or that have none (c = -9),
`verify` at N = 3 .. 48 without --check-d and at d - 1, d and d + 1, and
at N = 24 on one sample per family and one rational couple per d = 1, 2, 3,
`catalog-list`, help, bare and invalid argv, and the README's command lines.
The files the corpus reads are written to one working directory, and every
run starts there, so the argv and the digests name no absolute path.
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import importlib.util
import io
import json
import os
import re
import shlex
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PIN = ROOT / "tests" / "sweep.sha256"
ORDERS = (1, 3, 8, 12, 20, 40)
VERIFY_ORDERS = (3, 8, 12, 20, 48)
FORMATS = ("json", "csv", "latex")
COMMANDS = ("expand", "recurrence", "functionals")

# couples that break a condition, or sit at an edge of the input rules
EDGE_COUPLES = {
    "over-n": {"d": 1, "gamma": [0, 40], "sigma": [1, 0, 1]},
    "irregular-root": {"d": 1, "gamma": [1, 3], "sigma": [1, 0, 1]},
    "alpha0-zero": {"d": 1, "gamma": [1, 1], "sigma": [0, 1, 1]},
    "betad-zero": {"d": 1, "gamma": [1, 0], "sigma": [1, 0, 1]},
    "both-zero": {"d": 2, "gamma": [1, 1, 0], "sigma": [1, 0, 1, 0]},
    "rational-d2": {"d": 2, "gamma": ["1", "-1/2", "2"], "sigma": ["-3/2", "1", "0", "-1/3"]},
    "short-sigma": {"d": 1, "gamma": [0, -1], "sigma": [1]},
    # with rational-d2, one couple per d whose negative and fractional
    # coefficients reach every sign and fraction case of the printed text
    "rational-d1": {"d": 1, "gamma": ["1/2", "-3"], "sigma": ["2", "-1/3", "1"]},
    "rational-d3": {"d": 3, "gamma": ["0", "1", "-2/3", "5/4"], "sigma": ["1", "1/2", "-1", "0", "2"]},
    # n alpha_(d+1) = beta_d at n = 5, 7 and 12, so verify --order 20 prints
    # the failing cells and duality values of a vanishing boundary
    "irregular-n5": {"d": 1, "gamma": ["1/2", "15/2"], "sigma": ["2", "-1/3", "3/2"]},
    "irregular-n7": {"d": 2, "gamma": ["1", "-1/2", "-7/3"], "sigma": ["-3/2", "1", "0", "-1/3"]},
    "irregular-n12": {"d": 3, "gamma": ["0", "1", "-2/3", "6"], "sigma": ["1", "1/2", "-1", "0", "1/2"]},
}
# verify --order 24 on one sample per family, both operator kinds, and on
# the rational couple of each d
VERIFY_24_SAMPLES = (("laguerre-eq9", 3), ("laguerre-eq10", 2), ("laguerre-eq11", 2),
                     ("hermite-eq12", 1), ("charlier-eq13", 3), ("meixner-eq14", 1),
                     ("meixner-eq16", 2), ("meixner-eq21", 3))
VERIFY_24_COUPLES = ("rational-d1", "rational-d2", "rational-d3")
# family sources for functionals --order 40 beside the default samples
CROSS_CHECK_SPECS = (
    ("meixner-eq16", 2, {"c": "-1/5", "beta": "1/2"}),
    ("meixner-eq16", 3, {"c": "-1/8", "beta": "-5/4"}),
    ("meixner-eq16", 1, {"c": "-1/3", "beta": "2"}),
    ("meixner-eq16", 2, {"c": "-9", "beta": "1"}),
    ("laguerre-eq11", 2, {"alpha": "-3/2"}),
    ("meixner-eq14", 1, {"c": "1/3", "beta": "5/2"}),
)
# couple files that must be refused, and the text they hold
BAD_FILES = {
    "missing-key": '{"d": 1, "gamma": [0, 1]}',
    "d-zero": '{"d": 0, "gamma": [1], "sigma": [1, 1]}',
    "float": '{"d": 1, "gamma": [0.5, 1], "sigma": [1, 0, 1]}',
    "decimal-string": '{"d": 1, "gamma": ["0.5", 1], "sigma": [1, 0, 1]}',
    "too-long": '{"d": 1, "gamma": [1, 2, 3], "sigma": [1, 0, 1]}',
    "not-an-object": "[1, 2]",
    "malformed": "{not json",
    "empty": "",
    "huge-literal": '{"d": 1, "gamma": [1, ' + "1" * 5000 + '], "sigma": [1, 0, 1]}',
    "repeated-key": '{"d": 1, "gamma": [0, 0], "sigma": [1, 0, 1], "gamma": [0, 1]}',
    "unknown-key": '{"d": 1, "gamma": [0, 1], "sigma": [1, 0, 1], "name": "x"}',
}


@functools.cache
def load_workloads():
    """perfbench/workloads.py: the benchmark's couples and its family argv."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module           # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


def _source_runs(source: list[str], d: int) -> list[list[str]]:
    """The full grid of one readable source of dimension d."""
    runs = [[command, *source, "--order", str(n), "--format", fmt]
            for command in COMMANDS for fmt in FORMATS for n in ORDERS]
    runs += [["functionals", *source, "--order", "8", "--index", str(i)] for i in range(-1, d + 1)]
    runs += [["verify", *source, "--order", str(n), *check]
             for n in VERIFY_ORDERS
             for check in ([], *(["--check-d", str(e)] for e in (d - 1, d, d + 1)))]
    return runs


def _small_runs(source: list[str]) -> list[list[str]]:
    """Each command once at a low order, for sources that fail or are expensive."""
    return [[command, *source, "--order", "3"] for command in (*COMMANDS, "verify")]


def corpus(workdir: Path) -> list[tuple[str, ...]]:
    """Write the corpus's files under workdir and return its argvs, in order."""
    from dsheffer import catalog

    def write(name: str, text: str | bytes) -> str:
        path = workdir / name
        path.write_bytes(text if isinstance(text, bytes) else text.encode())
        return name

    runs = [["catalog-list"], [], ["--help"], ["-h"], ["bogus"],
            *([command, "--help"] for command in (*COMMANDS, "verify", "catalog-list"))]
    workloads = load_workloads()
    for spec in catalog.default_sample_specs():
        runs += _source_runs(workloads._family_argv(spec), spec.d)
    # the closed-form moment rows away from the defaults: negative c with
    # |w| < 1, a divergent c that has no cross-check, and other alpha, beta
    for family, d, params in CROSS_CHECK_SPECS:
        argv = workloads._family_argv(catalog.FamilySpec(family=family, d=d, params=params))
        runs += [["functionals", *argv, "--order", "40", "--format", fmt] for fmt in FORMATS]
    for seed in (1, 2, 3):
        for i, doc in enumerate(workloads.draw_couples(seed)):
            name = write(f"seed{seed}-{i}.json", json.dumps(doc))
            runs += _source_runs(["--couple-file", name], doc["d"])
    for key, doc in EDGE_COUPLES.items():
        runs += _source_runs(["--couple-file", write(f"{key}.json", json.dumps(doc))], doc["d"])
    runs += [["verify", *workloads._family_argv(spec), "--order", "24"]
             for spec in catalog.default_sample_specs() if (spec.family, spec.d) in VERIFY_24_SAMPLES]
    runs += [["verify", "--couple-file", f"{key}.json", "--order", "24"] for key in VERIFY_24_COUPLES]
    for key, text in BAD_FILES.items():
        runs += _small_runs(["--couple-file", write(f"bad-{key}.json", text)])
    runs += _small_runs(["--couple-file", write("not-utf8.json", b'{"d": 1, "\xff": 1}')])
    runs += _small_runs(["--couple-file", "missing.json"])
    runs += _small_runs(["--couple-file", "."])

    laguerre = ["--family", "laguerre-eq9", "--d", "1"]
    for source in (
        [*laguerre, "--param", "alpha=\u0661/2"],     # an Arabic-Indic digit
        [*laguerre, "--param", "alpha=" + "9" * 3000],     # past the digit limit
        [*laguerre, "--param", "alpha=0.5"],
        [*laguerre, "--param", "alpha=1/0"],
        [*laguerre, "--param", "alpha"],
        [*laguerre, "--param", "alpha=1", "--param", "alpha=2"],
        [*laguerre, "--param", "beta=1"],
        ["--family", "laguerre-eq9", "--d", "0"],
        ["--family", "laguerre-eq11", "--d", "3"],
        ["--family", "hermite-eq12", "--d", "1", "--aux", "1,x"],
        ["--family", "hermite-eq12", "--d", "1", "--aux", "0,0,1", "--aux", "0,0,2"],
        ["--family", "nope"],
        ["--family", "laguerre-eq9", "--couple-file", "seed1-0.json"],
        ["--couple-file", "seed1-0.json", "--d", "2"],
        [],
    ):
        runs += _small_runs(source)
    runs += [["expand", *laguerre, "--order", "abc"], ["expand", *laguerre, "--format", "xml"],
             ["expand", *laguerre, "--order", "0"], ["verify", *laguerre, "--check-d", "0"],
             ["verify", *laguerre, "--format", "csv"], ["expand", *laguerre, "--bogus"]]

    # the README's command lines, with its couple file
    readme = (ROOT / "README.md").read_text().split("## Command line\n", 1)[1]
    write("couple.json", re.search(r"^```json\n(.*?)^```$", readme, re.M | re.S).group(1))
    lines = re.search(r"^```sh\n(.*?)^```$", readme, re.M | re.S).group(1).splitlines()
    runs += [shlex.split(line)[1:] for line in lines]
    return [tuple(argv) for argv in runs]


def digests(argvs, workdir: Path) -> list[str]:
    """sha256 of (exit code, stdout, stderr) of cli.main on each argv, run in workdir."""
    from dsheffer import cli

    here, columns = os.getcwd(), os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"          # argparse wraps its help to the terminal
    os.chdir(workdir)
    try:
        out = []
        for argv in argvs:
            stdout, stderr = io.StringIO(), io.StringIO()
            with redirect_stdout(stdout), redirect_stderr(stderr):
                code = cli.main(list(argv))
            record = json.dumps([code, stdout.getvalue(), stderr.getvalue()])
            out.append(hashlib.sha256(record.encode()).hexdigest())
        return out
    finally:
        os.chdir(here)
        if columns is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = columns


def combined(digests: list[str]) -> str:
    """The digest of all runs, which tests/sweep.sha256 pins."""
    return hashlib.sha256("".join(digests).encode()).hexdigest()


@functools.cache
def swept() -> tuple[str, dict[tuple[str, ...], str]]:
    """The digest of all runs of this tree, and each argv's digest; swept once a process."""
    with tempfile.TemporaryDirectory() as tmp:
        argvs = corpus(Path(tmp))
        ours = digests(argvs, Path(tmp))
    return combined(ours), dict(zip(argvs, ours))


def unpinned(argvs) -> list[tuple[str, ...]]:
    """The argvs whose output here is not the bytes tests/sweep.sha256 pins.

    An argv outside the corpus is never pinned, and while the digest of all
    runs differs from the pin, no argv is.
    """
    total, pinned = swept()
    if total != PIN.read_text().strip():
        return list(argvs)
    with tempfile.TemporaryDirectory() as tmp:
        corpus(Path(tmp))                         # the files the argvs read
        ours = digests(argvs, Path(tmp))
    return [argv for argv, digest in zip(argvs, ours) if pinned.get(argv) != digest]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--against", type=Path, help="a checkout whose src/ is swept too")
    parser.add_argument("--expect", type=Path, help="a file holding the expected digest of all runs")
    parser.add_argument("--src", type=Path, help=argparse.SUPPRESS)   # a subprocess's tree
    args = parser.parse_args(argv)

    if args.src is not None:
        # subprocess mode: the argvs on stdin, their digests on stdout, cwd is the workdir
        sys.path.insert(0, str(args.src))
        print(json.dumps(digests([tuple(a) for a in json.load(sys.stdin)], Path.cwd())))
        return 0

    sys.path.insert(0, str(ROOT / "src"))
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        argvs = corpus(workdir)
        ours = digests(argvs, workdir)
        total = combined(ours)
        print(f"{len(argvs)} runs, sha256 of all digests {total}")
        mismatch = args.expect is not None and total != (expected := args.expect.read_text().strip())
        if mismatch:
            print(f"expected {expected} ({args.expect})")
        if args.against is None:
            return int(mismatch)
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--src", str(args.against.resolve() / "src")],
            input=json.dumps(argvs), capture_output=True, text=True, cwd=workdir, check=True)
        theirs = json.loads(done.stdout)
    differ = [argv for argv, a, b in zip(argvs, ours, theirs) if a != b]
    for argv in differ:
        print("differs:", shlex.join(argv))
    print(f"{len(argvs) - len(differ)} of {len(argvs)} runs byte-identical to {args.against}")
    return 1 if differ or mismatch else 0


if __name__ == "__main__":
    sys.exit(main())
