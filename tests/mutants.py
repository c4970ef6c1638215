"""Check-weakening mutants: every check of `verify` must be seen to fail.

Each entry is a one-line edit that weakens one check of the package (a
loop that stops one short, a comparison that never fires) and the id of a
test that must fail under it.  For each entry the script copies `src/` to
a temporary directory, applies the edit there, and runs the killing test
against that copy in a subprocess:

    python tests/mutants.py        # exits 1 if any killing test passes under its edit

A check that no test can see fail may have stopped checking, and the sweep
cannot tell, because passing reports keep their bytes.  The edits' old text
must occur exactly once in `src/` (tests/test_mutants.py checks that in
tier-1), so a refactor that moves a check updates this list and cannot
retire a mutant silently.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    file: str           # under src/dsheffer
    old: str
    new: str
    killed_by: str      # a test id, relative to the repository root


MUTANTS = (
    # the lowering check skips its last row l
    Mutant("dorth.py",
           "!= prev[l] * scale for l in range(n)):",
           "!= prev[l] * scale for l in range(n - 1)):",
           "tests/test_operators.py::test_verify_lowering_rejects_a_nonzero_constant_term"),
    # the lowering check skips n = N
    Mutant("dorth.py",
           "    for n in range(top + 1):\n        ints, dn = seq[n].nums, seq[n].den",
           "    for n in range(top):\n        ints, dn = seq[n].nums, seq[n].den",
           "tests/test_operators.py::test_verify_lowering_rejects_a_nonzero_constant_term"),
    # the staircase skips the first entry after the boundary
    Mutant("dorth.py",
           "all(row[k] and not any(row[k + 1:])",
           "all(row[k] and not any(row[k + 2:])",
           "tests/test_dorth.py::test_orthogonality_sees_the_first_cell_after_a_boundary"),
    # the staircase skips its last row j
    Mutant("dorth.py",
           "any(row[k + 1:])\n                   for k, rows in enumerate(self.hankel) for row in rows)",
           "any(row[k + 1:])\n                   for k, rows in enumerate(self.hankel) for row in rows[:-1])",
           "tests/test_dorth.py::test_orthogonality_sees_the_last_row"),
    # the window skips index n - d - 1
    Mutant("dorth.py",
           "for j in range(0, n - d):",
           "for j in range(0, n - d - 1):",
           "tests/test_dorth.py::test_window_violation_for_overclaimed_orthogonality"),
    # duality checks only i = k
    Mutant("dorth.py",
           "if num != (den if i == k else 0):",
           "if i == k and num != den:",
           "tests/test_dorth.py::test_duality_detects_shifted_polynomial"),
    # back-substitution ignores a nonzero remainder
    Mutant("dorth.py",
           "        if any(r):\n            raise BackSubstitutionError",
           "        if False:\n            raise BackSubstitutionError",
           "tests/test_dorth.py::test_back_substitution_remainder_raises_typed_error"),
    # two_path compares n < N only
    Mutant("dorth.py",
           "            for n in range(N + 1)\n            if seq[n] != other[n]",
           "            for n in range(N)\n            if seq[n] != other[n]",
           "tests/test_cli.py::test_verify_two_path_fails_where_the_couple_route_differs[12]"),
    # two_path never reports a mismatch
    Mutant("dorth.py",
           "            if seq[n] != other[n]",
           "            if False",
           "tests/test_cli.py::test_verify_two_path_fails_where_the_couple_route_differs[1]"),
    # the couple-row comparison skips the last row
    Mutant("dorth.py",
           "for n, got in enumerate(table.nums):",
           "for n, got in enumerate(table.nums[:-1]):",
           "tests/test_cli.py::test_verify_compares_the_couples_last_recurrence_row"),
    # the couple-row comparison never runs
    Mutant("dorth.py",
           "if d == couple.d:",
           "if False:",
           "tests/test_cli.py::test_verify_fails_when_the_couples_recurrence_is_wrong"),
    # the overall verdict ignores a failing section
    Mutant("cli.py",
           '("pass", "skipped")',
           '("pass", "skipped", "fail")',
           "tests/test_cli.py::test_verify_fails_when_the_couples_recurrence_is_wrong"),
    # verify reads a seq of any length
    Mutant("dorth.py",
           "    elif seq.max_index != N:",
           "    elif False:",
           "tests/test_dorth.py::test_verify_refuses_a_seq_that_is_not_p0_to_pN[14]"),
    # a failing report lists the cells that hold instead of those that fail
    Mutant("dorth.py",
           "if bool(value) != (m == n * d + k))",
           "if bool(value) != (m != n * d + k))",
           "tests/test_dorth.py::test_orthogonality_sees_the_first_cell_after_a_boundary"),
    # regularity misses a root at n = 1
    Mutant("sheffer.py",
           "root.denominator == 1 and root >= 1",
           "root.denominator == 1 and root > 1",
           "tests/test_regularity.py::test_irregular_n_is_the_smallest_root[couple8-1]"),
    # the conditions section passes every couple
    Mutant("sheffer.py",
           "        return not self.couple.violations()",
           "        return True",
           "tests/test_sheffer.py::test_conditions_report_a_root_beyond_n"),
    # rationals are scaled to twice their common denominator, which every
    # route that shares it agrees on; the couple's rows read each p/q alone
    Mutant("exactnum.py",
           "for v, q in zip(values, dens)], D",
           "for v, q in zip(values, dens)], 2 * D",
           "tests/test_cli.py::test_verify_passes_the_rational_couple"),
    # the couple's irregular row is read one row early
    Mutant("dorth.py",
           "rows=(couple.d + m,)",
           "rows=(couple.d + m - 1,)",
           "tests/test_regularity.py::test_recurrence_fails_at_the_row_of_the_root"),
    # back-substitution never sees a vanishing alpha_0(n)
    Mutant("dorth.py",
           "if n >= d and not coeffs[n - d][0]:",
           "if False:",
           "tests/test_regularity.py::test_back_substitution_breaks_at_the_same_row"),
)


def survives(mutant: Mutant) -> bool:
    """Apply the edit to a copy of src/ and run its killing test there; True if it passes."""
    with tempfile.TemporaryDirectory() as tmp:
        src = Path(tmp) / "src"
        shutil.copytree(ROOT / "src", src, ignore=shutil.ignore_patterns("__pycache__"))
        path = src / "dsheffer" / mutant.file
        text = path.read_text()
        if text.count(mutant.old) != 1:
            raise SystemExit(f"{mutant.file}: the old text of a mutant does not occur "
                             f"exactly once: {mutant.old!r}")
        path.write_text(text.replace(mutant.old, mutant.new))
        # pythonpath names the copy in place of the repository's src/
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
             "-o", f"pythonpath={src}", mutant.killed_by],
            cwd=ROOT, capture_output=True, text=True)
        if done.returncode not in (0, 1):
            raise SystemExit(f"{mutant.killed_by} did not run:\n{done.stdout}{done.stderr}")
        return done.returncode == 0


def main() -> int:
    survivors = 0
    for mutant in MUTANTS:
        alive = survives(mutant)
        survivors += alive
        print(f"{'SURVIVED' if alive else 'killed  '} {mutant.file}: {mutant.new.strip()!r}"
              f" by {mutant.killed_by}")
    print(f"{len(MUTANTS) - survivors} of {len(MUTANTS)} mutants killed")
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
