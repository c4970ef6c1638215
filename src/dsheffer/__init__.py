"""Exact construction and verification of d-orthogonal Sheffer polynomial sets."""

from dsheffer.exactnum import (
    Rat,
    binomial,
    format_rational,
    parse_rational,
    pochhammer,
    stirling2,
)
from dsheffer.series import Poly, Series
from dsheffer.sheffer import (
    CoupleFileError,
    CoupleSpec,
    InvalidCoupleError,
    NotDOrthogonalShefferError,
    PolySequence,
    ShefferPair,
    check_conditions,
    couple_from_json_dict,
    couple_from_pair,
    expand_from_couple,
    expand_polynomials,
    pair_from_couple,
    recurrence_rows,
)
from dsheffer.operators import (
    FunctionalVector,
    LoweringOp,
    apply_lowering,
    functional_eval,
    lowering_from_couple,
    lowering_from_H,
)
from dsheffer.dorth import (
    BackSubstitutionError,
    DualityReport,
    LoweringReport,
    OrthogonalityReport,
    RecurrenceTable,
    RegularityViolationError,
    WindowViolationError,
    extract_recurrence,
    recurrence_from_couple,
    verify_d_orthogonality,
    verify_duality,
    verify_lowering,
)

__version__ = "0.1.0"

__all__ = [
    "Rat", "binomial", "format_rational", "parse_rational", "pochhammer", "stirling2",
    "Poly", "Series",
    "CoupleFileError", "CoupleSpec", "InvalidCoupleError", "NotDOrthogonalShefferError",
    "PolySequence", "ShefferPair", "check_conditions", "couple_from_json_dict",
    "couple_from_pair", "expand_from_couple", "expand_polynomials", "pair_from_couple",
    "recurrence_rows",
    "FunctionalVector", "LoweringOp", "apply_lowering", "functional_eval",
    "lowering_from_couple", "lowering_from_H",
    "BackSubstitutionError", "DualityReport", "LoweringReport", "OrthogonalityReport",
    "RecurrenceTable", "RegularityViolationError", "WindowViolationError",
    "extract_recurrence", "recurrence_from_couple", "verify_d_orthogonality",
    "verify_duality", "verify_lowering",
]
