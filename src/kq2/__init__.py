"""Exact calculator for the 2-primary hermitian and algebraic K-groups of
rings of 2-integers in totally real 2-regular number fields.

The package bundles the number-theoretic machinery to decide 2-regularity
(class groups, fundamental units, unit signatures), the selection of the
auxiliary prime q, the closed-form group tables, and a self-verification
suite that cross-checks every inter-table identity.
"""

from .abgroup import (
    C,
    C2,
    FgAb2,
    Z,
    ZERO,
    direct_sum,
    exact_window_check,
    format_group,
    group_to_json,
    n_copies,
    parse_group,
    ses_consistent,
)
from .fields import (
    FieldInvariants,
    FieldSpec,
    Generic,
    MaxRealCyclo2,
    MaxRealCycloOdd,
    Rationals,
    RealQuadratic,
    is_admissible_q,
    is_two_regular,
    parse_field,
    two_regular_oracle,
)
from .tables import TheoryTag, query

__version__ = "0.1.0"

__all__ = [
    "C",
    "C2",
    "FgAb2",
    "FieldInvariants",
    "FieldSpec",
    "Generic",
    "MaxRealCyclo2",
    "MaxRealCycloOdd",
    "Rationals",
    "RealQuadratic",
    "TheoryTag",
    "Z",
    "ZERO",
    "direct_sum",
    "exact_window_check",
    "format_group",
    "group_to_json",
    "is_admissible_q",
    "is_two_regular",
    "n_copies",
    "parse_field",
    "parse_group",
    "query",
    "ses_consistent",
    "two_regular_oracle",
]
