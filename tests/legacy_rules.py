"""The regularity rules as they were written before the exact decision (test helper).

`scan_conditions` tries n = 1..N one by one, and `per_family_violations` is
the catalog's family-by-family restatement of the couple's regularity in
terms of each family's parameters.  The package now decides both from the
couple alone (`CoupleSpec.irregular_n`, `CoupleSpec.violations`); these
copies stay as independent oracles for that decision.  `violations` is the
package's own verdict in the same form: a FamilySpec is screened when it is
built, and it returns what the refusal names.
"""

from fractions import Fraction

from dsheffer.catalog import (
    CHARLIER_EQ13,
    FAMILIES,
    FamilySpec,
    HERMITE_EQ12,
    InvalidParameterError,
    LAGUERRE_EQ9,
    LAGUERRE_EQ10,
    LAGUERRE_EQ11,
    MEIXNER_EQ14,
    MEIXNER_EQ16,
    MEIXNER_EQ21,
)


def violations(family, d, params=None, aux=None) -> tuple[str, ...]:
    """The restrictions a FamilySpec of these values violates, in order; () if it is valid."""
    try:
        FamilySpec(family=family, d=d, params=params or {}, aux=aux)
    except InvalidParameterError as exc:
        return exc.violations
    return ()


def scan_conditions(couple, N: int) -> tuple[tuple[int, ...], bool]:
    """(failing n in 1..N, passed), trying every n up to N."""
    failures = tuple(n for n in range(1, N + 1)
                     if n * couple.alpha_top - couple.beta_d == 0)
    passed = couple.alpha_0 != 0 and couple.beta_d != 0 and not failures
    return failures, passed


def _is_nonpositive_integer(x: Fraction) -> bool:
    return x.denominator == 1 and x <= 0


def per_family_violations(fam, d, p, aux) -> tuple[str, ...]:
    """The shape checks, then one hand-written branch of value rules per family."""
    info = FAMILIES[fam]
    violations = []

    if info.d_fixed is not None and d != info.d_fixed:
        violations.append(f"{fam} requires d = {info.d_fixed}, got d = {d}")
    elif d < info.d_min:
        violations.append(f"{fam} requires d >= {info.d_min}, got d = {d}")

    missing = [name for name in info.params if name not in p]
    unknown = [name for name in p if name not in info.params]
    if missing:
        violations.append(f"missing parameter(s): {', '.join(missing)}")
    if unknown:
        violations.append(f"unknown parameter(s): {', '.join(sorted(unknown))}")

    if info.aux_len is None:
        if aux is not None:
            violations.append(f"{fam} takes no auxiliary polynomial")
    else:
        want = max(info.aux_len(d), 0) if d >= 1 else 0
        if aux is None:
            aux = (Fraction(0),) * want
        elif len(aux) != want:
            violations.append(f"auxiliary polynomial needs {want} coefficient(s)")

    if violations:
        return tuple(violations)

    if fam == LAGUERRE_EQ9:
        if _is_nonpositive_integer((p["alpha"] + 1) * d):
            violations.append("n/d + alpha + 1 = 0")
    elif fam == LAGUERRE_EQ10:
        if d >= 2:
            if aux[d - 1] == 0:
                violations.append("a_(d-1) = 0")
        elif _is_nonpositive_integer(p["alpha"] + 1):
            violations.append("alpha + n + 1 = 0 at d = 1")
    elif fam == LAGUERRE_EQ11:
        if _is_nonpositive_integer(p["alpha"] + 1):
            violations.append("alpha + n + 1 = 0")
    elif fam == HERMITE_EQ12:
        if aux[d + 1] == 0:
            violations.append("a_(d+1) = 0")
    elif fam == CHARLIER_EQ13:
        if p["omega"] == 0:
            violations.append("omega = 0")
        if aux[d] == 0:
            violations.append("a_d = 0")
    elif fam == MEIXNER_EQ14:
        if p["c"] in (0, 1):
            violations.append("c in {0, 1}")
        if d >= 2:
            if aux[d - 1] == 0:
                violations.append("a_(d-1) = 0")
        elif _is_nonpositive_integer(p["beta"]):
            violations.append("beta a nonpositive integer at d = 1")
    elif fam == MEIXNER_EQ16:
        if p["c"] in (0, 1):
            violations.append("c in {0, 1}")
        elif d >= 2 and p["c"] == Fraction(1, 1 - d):
            violations.append("c = 1/(1-d)")
        if _is_nonpositive_integer(p["beta"] * d):
            violations.append("beta = -n/d")
    elif fam == MEIXNER_EQ21:
        if p["c"] in (0, Fraction(1, 3), 1):
            violations.append("c in {0, 1/3, 1}")
        if aux[d - 2] == 0:
            violations.append("a_(d-2) = 0")
        if d == 2 and _is_nonpositive_integer(p["beta"]):
            violations.append("beta a nonpositive integer at d = 2")
    return tuple(violations)
