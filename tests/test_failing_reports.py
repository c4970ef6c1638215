"""Verify reports that fail, and so print cell values.

A passing report prints only counts, so the passing reports never read a
failing orthogonality cell or duality value.  These reports do:
`verify --order 12 --check-d d-1` (where d - 1 >= 1) and `--check-d d+1` on
every default sample, and `verify --order 20` on three irregular couples
(n alpha_(d+1) = beta_d at n = 5, 7 and 12), whose boundary cells vanish.
Each must exit 1, and print the bytes tests/sweep.sha256 pins, which were
computed while every orthogonality cell was still built, as a Fraction in a
record with its requirement and verdict, as it was checked; a failing cell
is now a plain (k, n, m, value) tuple, and the report reads its requirement
off m = n d + k when it prints it.
"""

import json

from sweep import EDGE_COUPLES, load_workloads, unpinned

from dsheffer import catalog
from dsheffer.cli import main

IRREGULAR_COUPLES = ("irregular-n5", "irregular-n7", "irregular-n12")


def test_check_d_reports_of_every_sample_match_their_digests(capsys):
    argvs = [("verify", *load_workloads()._family_argv(spec), "--order", "12",
              "--check-d", str(check_d))
             for spec in catalog.default_sample_specs()
             for check_d in (spec.d - 1, spec.d + 1) if check_d >= 1]
    assert len(argvs) == 36
    for argv in argvs:
        assert main(list(argv)) == 1, argv
    capsys.readouterr()
    assert unpinned(argvs) == []


def test_irregular_couple_reports_match_their_digests(tmp_path, capsys):
    for name in IRREGULAR_COUPLES:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(EDGE_COUPLES[name]))
        code = main(["verify", "--couple-file", str(path), "--order", "20"])
        report = json.loads(capsys.readouterr().out)
        assert code == 1 and report["orthogonality"]["details"]["failures"], name
    assert unpinned([("verify", "--couple-file", f"{name}.json", "--order", "20")
                     for name in IRREGULAR_COUPLES]) == []
