"""Exact construction and verification of d-orthogonal Sheffer polynomial sets."""

from dsheffer.exactnum import parse_rational
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
)
from dsheffer.operators import FunctionalVector
from dsheffer.dorth import (
    BackSubstitutionError,
    OrthogonalityReport,
    RecurrenceTable,
    RegularityViolationError,
    WindowViolationError,
    extract_recurrence,
    recurrence_from_couple,
    verify,
    verify_d_orthogonality,
    verify_duality,
    verify_lowering,
)

__version__ = "0.1.0"

__all__ = [
    "parse_rational",
    "Poly", "Series",
    "CoupleFileError", "CoupleSpec", "InvalidCoupleError", "NotDOrthogonalShefferError",
    "PolySequence", "ShefferPair", "check_conditions", "couple_from_json_dict",
    "couple_from_pair", "expand_from_couple", "expand_polynomials", "pair_from_couple",
    "FunctionalVector",
    "BackSubstitutionError", "OrthogonalityReport", "RecurrenceTable",
    "RegularityViolationError", "WindowViolationError",
    "extract_recurrence", "recurrence_from_couple", "verify", "verify_d_orthogonality",
    "verify_duality", "verify_lowering",
]
