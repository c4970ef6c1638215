"""The check-weakening mutant list (tests/mutants.py) still edits the source it names.

Running the mutants takes a subprocess per entry, so tier-1 only checks that
each edit still applies at exactly one place and that its killing test
exists; CI runs `python tests/mutants.py` itself.
"""

import pytest
from mutants import MUTANTS, ROOT


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{m.file}-{i}" for i, m in enumerate(MUTANTS)])
def test_each_mutant_edits_one_place_and_names_a_test(mutant):
    assert (ROOT / "src" / "dsheffer" / mutant.file).read_text().count(mutant.old) == 1
    path, _, name = mutant.killed_by.partition("::")
    assert f"def {name.partition('[')[0]}(" in (ROOT / path).read_text()
