"""Certified-digit pi and arctangent computation from rational alternating
series whose ratios are reciprocal powers of two."""

from .fixedpoint import (
    BoundaryStraddleError,
    ErrorLedger,
    FixedPoint,
    InsufficientPrecisionError,
    PrecisionContext,
    ScaleMismatchError,
    fx_add,
    fx_div_small,
    fx_mul_small,
    fx_to_decimal_string,
    guaranteed_digit_count,
)
from .series import (
    CASES,
    CaseId,
    CaseParams,
    Component,
    EvalResult,
    SeriesSpec,
    consecutive_term_ratio,
    eval_series,
    series_for_case,
    terms_needed,
)
from .formulas import (
    PI_FORMULAS,
    ComparisonRow,
    PiFormula,
    PiFormulaId,
    arctan_recip_spec,
    combined_series_specs,
    compare_convergence,
    compute_pi,
    cross_formula_agreement,
    sun,
    verify_arctan_identity,
    verify_factorization,
)

__version__ = "0.1.0"
