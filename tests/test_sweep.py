"""The byte-identity sweep's corpus and digests (the full sweep is `python tests/sweep.py`)."""

import argparse
import json
import re
import sys

import sweep
from dsheffer import catalog, cli, render


def subcommands() -> list[str]:
    parser = cli.build_parser()
    action = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return list(action.choices)


def test_the_corpus_covers_every_subcommand_format_and_source_kind(tmp_path):
    argvs = set(sweep.corpus(tmp_path))
    assert {argv[0] for argv in argvs if argv} >= set(subcommands())
    for command in ("expand", "recurrence", "functionals"):
        for kind in ("--family", "--couple-file"):
            for fmt in render.FORMATS:
                assert any(argv[0] == command and argv[1] == kind and argv[-1] == fmt
                           for argv in argvs if argv), (command, kind, fmt)
    # verify at d - 1 and d + 1 up to N = 48, on every sample and benchmark couple
    sources = [(sweep.load_workloads()._family_argv(spec), spec.d)
               for spec in catalog.default_sample_specs()]
    couple_files = sorted(tmp_path.glob("seed*.json"))
    assert len(couple_files) == 27
    sources += [(["--couple-file", path.name], json.loads(path.read_text())["d"])
                for path in couple_files]
    for source, d in sources:
        for e in (d - 1, d + 1):
            assert ("verify", *source, "--order", "48", "--check-d", str(e)) in argvs
    # functionals at order 40 on every sample and on the specs off the
    # defaults, among them a negative c with closed-form rows and c = -9 without
    specs = [*catalog.default_sample_specs(),
             *(catalog.FamilySpec(family=f, d=d, params=p) for f, d, p in sweep.CROSS_CHECK_SPECS)]
    assert any(catalog.explicit_functional(s) is None and s.params["c"] == -9
               for s in specs if s.family == catalog.MEIXNER_EQ16)
    assert any(catalog.explicit_functional(s) and s.params["c"] < 0
               for s in specs if s.family == catalog.MEIXNER_EQ16)
    for spec in specs:
        for fmt in render.FORMATS:
            assert ("functionals", *sweep.load_workloads()._family_argv(spec),
                    "--order", "40", "--format", fmt) in argvs, (spec, fmt)
    # the irregular and edge couples, and the refused files
    for name in [*sweep.EDGE_COUPLES, *(f"bad-{key}" for key in sweep.BAD_FILES)]:
        assert ("verify", "--couple-file", f"{name}.json", "--order", "3") in argvs, name


def test_a_slice_of_the_corpus_gives_the_same_digests_twice(tmp_path):
    argvs = sweep.corpus(tmp_path)[::25]
    first = sweep.digests(argvs, tmp_path)
    assert len(first) == len(argvs) > 100
    assert len(set(first)) > len(first) // 2          # the digests read the output
    assert sweep.digests(argvs, tmp_path) == first


def test_expect_exits_1_when_the_digest_of_all_runs_differs(tmp_path, monkeypatch, capsys):
    full = sweep.corpus
    monkeypatch.setattr(sweep, "corpus", lambda workdir: full(workdir)[::200])
    monkeypatch.setattr(sys, "path", list(sys.path))     # main() puts src/ on the path
    pin = tmp_path / "sweep.sha256"
    pin.write_text("0" * 64 + "\n")
    assert sweep.main(["--expect", str(pin)]) == 1
    out = capsys.readouterr().out
    assert f"expected {'0' * 64}" in out
    pin.write_text(re.search(r"sha256 of all digests ([0-9a-f]{64})\n", out).group(1) + "\n")
    assert sweep.main(["--expect", str(pin)]) == 0
    assert "expected" not in capsys.readouterr().out
