"""Theorem 2.2 on three bounded-exhaustive domains, and Meixner's classes at d = 1.

Theorem 2.2 says that a couple [gamma_d, sigma_(d+1)] gives a d-orthogonal
Sheffer set exactly when it is regular: alpha_0 != 0, beta_d != 0 and
n alpha_(d+1) != beta_d for every n >= 1 (`CoupleSpec.violations`).  This
script checks the forward half on every couple of three small domains,
each run through `dorth.verify(couple, 10, d)`:

* d = 1 with coefficients in {-2..2} (3,125 couples), and d = 2 and d = 3
  with coefficients in {-1, 0, 1} (2,187 and 19,683 couples);
* alpha_0 = 0 or beta_d = 0 raises `InvalidCoupleError` (the CLI's exit 2),
  and no other couple is refused;
* every other couple passes exactly when `violations()` is empty;
* `verify(couple, 10, d + 1)` fails orthogonality on every couple that was
  not refused;
* on the d = 2 and d = 3 domains, `verify(couple, 10, d - 1)` fails
  recurrence with a window-violation, and fails orthogonality, on every
  couple it does not refuse: the set is d-orthogonal and no less.

At d = 1 it also compares `tests/classical.py`'s moments of u_0, Meixner's
closed forms, with `FunctionalVector(couple, 30, 1).rows[0]` on every
regular couple of the d = 1 domain whose sigma has rational roots or none,
taking either root as r1.

    python tests/theorem.py    # exits 1 unless every count is EXPECTED's and nothing disagrees

`tests/test_theorem.py` runs the d = 1 slice with coefficients in
{-1, 0, 1}, and the d - 1 side on the d = 2 and d = 3 couples with
coefficients in {-1, 1}, in tier-1.  Not covered: the converse half (a pair
off the couple's form gives no d-orthogonal set) and couples whose sigma has
irrational or complex roots, whose classical moments live in Q(sqrt D).
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from itertools import product
from pathlib import Path

if __name__ == "__main__":     # run as a script: the package from this tree's src/
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import classical  # noqa: E402
from dsheffer.dorth import verify  # noqa: E402
from dsheffer.operators import FunctionalVector  # noqa: E402
from dsheffer.sheffer import CoupleSpec, InvalidCoupleError  # noqa: E402

ORDER = 10                  # verify's N
CLASSICAL_ORDER = 30        # the moment rows' N
WIDE, NARROW = range(-2, 3), range(-1, 2)
# (d, coefficient values) -> (pass, fail, refused)
EXPECTED = {(1, WIDE): (1400, 600, 1125), (2, NARROW): (648, 324, 1215),
            (3, NARROW): (5832, 2916, 10935)}
# d -> couples of the NARROW domain at d that verify does not refuse
EXPECTED_BELOW = {2: 648 + 324, 3: 5832 + 2916}
EXPECTED_CLASSICAL = 590    # regular d = 1 couples of WIDE with rational roots or none


def couples(d: int, values):
    """Every couple with this d whose gamma and sigma coefficients all lie in values."""
    for c in product(values, repeat=2 * d + 3):
        yield CoupleSpec(d=d, gamma=c[:d + 1], sigma=c[d + 1:])


def forward(d: int, values, N: int = ORDER) -> tuple[tuple[int, int, int], int, list]:
    """((pass, fail, refused), failing at d + 1, disagreements) of verify over the domain.

    verify(couple, N, d) runs on every couple, and verify(couple, N, d + 1)
    on every couple it does not refuse; the middle count is those whose
    orthogonality fails at d + 1.

    A disagreement is (couple, what went wrong): a refusal that the couple's
    alpha_0 and beta_d do not call for, or none that they do, a verdict that
    differs from `not violations()`, or orthogonality at d + 1 not failing.
    """
    counts, wrong = Counter(), []
    for couple in couples(d, values):
        invalid = not (couple.alpha_0 and couple.beta_d)
        try:
            sections = verify(couple, N, d)
        except InvalidCoupleError:
            counts["refused"] += 1
            if not invalid:
                wrong.append((couple, "refused"))
            continue
        if invalid:
            wrong.append((couple, "not refused"))
        passed = all(s["status"] in ("pass", "skipped") for s in sections.values())
        counts["pass" if passed else "fail"] += 1
        if passed != (not couple.violations()):
            wrong.append((couple, f"verdict {'pass' if passed else 'fail'}"))
        if verify(couple, N, d + 1)["orthogonality"]["status"] == "fail":
            counts["above"] += 1
        else:
            wrong.append((couple, f"orthogonal at d = {d + 1}"))
    return (counts["pass"], counts["fail"], counts["refused"]), counts["above"], wrong


def below(d: int, values, N: int = ORDER) -> tuple[int, list]:
    """(couples checked, disagreements) of verify(couple, N, d - 1) over the domain.

    Every couple that verify does not refuse is checked, regular or not.  A
    disagreement is (couple, what went wrong): recurrence not failing with a
    window-violation, or orthogonality not failing, at d - 1.
    """
    checked, wrong = 0, []
    for couple in couples(d, values):
        try:
            sections = verify(couple, N, d - 1)
        except InvalidCoupleError:
            continue
        checked += 1
        details = sections["recurrence"]["details"]
        if sections["recurrence"]["status"] != "fail" or details.get("error") != "window-violation":
            wrong.append((couple, f"no window-violation at d = {d - 1}"))
        if sections["orthogonality"]["status"] != "fail":
            wrong.append((couple, f"orthogonal at d = {d - 1}"))
    return checked, wrong


def classical_rows(values, N: int = CLASSICAL_ORDER) -> tuple[int, list]:
    """(couples compared, disagreements) of Meixner's moments against FunctionalVector's row 0.

    Over the regular d = 1 couples of the domain that `classical.classify`
    places in a class; each is compared with either root as r1.
    """
    checked, wrong = 0, []
    for couple in couples(1, values):
        if couple.violations() or classical.classify(couple) is None:
            continue
        checked += 1
        row = list(FunctionalVector(couple, N, 1).rows[0].coeffs)
        for first_root in (0, 1):
            if classical.moments(couple, N, first_root) != row:
                wrong.append((couple, f"r1 = root {first_root}"))
    return checked, wrong


def main() -> int:
    failed, total_above = False, 0
    for (d, values), want in EXPECTED.items():
        start = time.process_time()
        got, above, wrong = forward(d, values)
        print(f"d = {d}, coefficients {values.start}..{values.stop - 1}: "
              f"pass/fail/refused {'/'.join(map(str, got))}, "
              f"{above} failing orthogonality at d = {d + 1}, "
              f"{time.process_time() - start:.1f} CPU s")
        for couple, what in wrong:
            print(f"  disagrees: {couple.to_jsonable()}: {what}")
        if got != want:
            print(f"  expected pass/fail/refused {'/'.join(map(str, want))}")
        failed |= bool(wrong) or got != want
        total_above += above
    print(f"{total_above} couples failing orthogonality at d + 1")
    for d, want in EXPECTED_BELOW.items():
        start = time.process_time()
        checked, wrong = below(d, NARROW)
        print(f"d = {d}, coefficients {NARROW.start}..{NARROW.stop - 1} at d - 1 = {d - 1}: "
              f"{checked - len({c for c, _ in wrong})} of {checked} failing recurrence "
              f"(window-violation) and orthogonality, {time.process_time() - start:.1f} CPU s")
        for couple, what in wrong:
            print(f"  disagrees: {couple.to_jsonable()}: {what}")
        if checked != want:
            print(f"  expected {want} couples")
        failed |= bool(wrong) or checked != want
    start = time.process_time()
    checked, wrong = classical_rows(WIDE)
    print(f"classical rows at N = {CLASSICAL_ORDER}: {checked - len({c for c, _ in wrong})} "
          f"of {checked} equal, {time.process_time() - start:.1f} CPU s")
    for couple, what in wrong:
        print(f"  disagrees: {couple.to_jsonable()}: {what}")
    if checked != EXPECTED_CLASSICAL:
        print(f"  expected {EXPECTED_CLASSICAL} couples")
    failed |= bool(wrong) or checked != EXPECTED_CLASSICAL
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
