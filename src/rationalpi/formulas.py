"""Arctangent assembly, identity checks, pi formulas and the comparator.

The centerpiece is the weighted sum of the three component series

    arctan(x / (2 - x)) = 2*SATURN + 2*JUPITER + 1*MARS

which :func:`sun` evaluates for the three supported arguments.  Pi is then
assembled along two independent routes through that decomposition (the
``x = 1`` case times four, and ``8*arctan(1/3) + 4*arctan(1/7)``), plus a
cross-check route through the classic Machin pair
``16*arctan(1/5) - 4*arctan(1/239)`` which shares only the fixed-point
layer's mechanics and none of the series parameters.

:data:`PI_FORMULAS` is the one table of routes: evaluation, planning, the
cross-route agreement check and the command line all expand its weighted
arctangents into the weighted case stacks and series that one
:func:`eval_series` call per route sums.  :func:`compare_convergence`
quantifies how many terms each route needs per digit.
"""

from __future__ import annotations

import enum
import itertools
import math
from collections import namedtuple
from collections.abc import Iterable, Mapping
from fractions import Fraction

from .fixedpoint import PrecisionContext
from .series import (
    CASES,
    CaseId,
    CaseParams,
    Component,
    EvalResult,
    SeriesSpec,
    context_for,
    eval_series,
    series_for_case,
    terms_needed,
)

__all__ = [
    "PiFormulaId",
    "PiFormula",
    "PI_FORMULAS",
    "IdentityCheck",
    "FactorizationCheck",
    "AgreementCheck",
    "ComparisonRow",
    "sun",
    "verify_arctan_identity",
    "verify_factorization",
    "compute_pi",
    "compare_convergence",
    "combined_series_specs",
    "arctan_recip_spec",
    "cross_formula_agreement",
    "context_for_case",
    "context_for_formula",
    "context_for_verify",
]


class PiFormulaId(enum.Enum):
    CASE1 = "case1"
    COMBINED = "combined"
    MACHIN_ORACLE = "machin"


class PiFormula(namedtuple("PiFormula", "formula_id terms")):
    """Pi as an integer combination of arctangents of exact rationals:
    ``terms`` is a tuple of ``(coefficient, argument)`` pairs."""

    __slots__ = ()


PI_FORMULAS: dict[PiFormulaId, PiFormula] = {
    PiFormulaId.CASE1: PiFormula(PiFormulaId.CASE1, ((4, Fraction(1, 1)),)),
    PiFormulaId.COMBINED: PiFormula(
        PiFormulaId.COMBINED, ((8, Fraction(1, 3)), (4, Fraction(1, 7)))
    ),
    PiFormulaId.MACHIN_ORACLE: PiFormula(
        PiFormulaId.MACHIN_ORACLE, ((16, Fraction(1, 5)), (-4, Fraction(1, 239)))
    ),
}

# 2*arctan(1/3) + arctan(1/7) - arctan(1), which is zero
_IDENTITY_TERMS = ((2, Fraction(1, 3)), (1, Fraction(1, 7)), (-1, Fraction(1, 1)))

# component weights in the arctangent assembly
_SUN_WEIGHTS = ((Component.SATURN, 2), (Component.JUPITER, 2), (Component.MARS, 1))

# the arctangent argument x/(2-x) each supported case evaluates
_CASE_OF_ARG = {
    Fraction(c.x_num, c.x_den) / (2 - Fraction(c.x_num, c.x_den)): c for c in CASES.values()
}

_Parts = list[tuple[int, SeriesSpec | CaseParams]]


def _case(case: CaseParams | CaseId) -> CaseParams:
    return CASES[case] if isinstance(case, CaseId) else case


def _stack(case: CaseParams) -> list[tuple[int, SeriesSpec]]:
    """``arctan(x/(2-x))`` as the weighted three-series stack of one case."""
    return [(weight, series_for_case(case, component)) for component, weight in _SUN_WEIGHTS]


def _arctan(arg: Fraction) -> SeriesSpec | CaseParams:
    """What evaluates ``arctan(arg)``: the case stack for 1, 1/3 and 1/7,
    otherwise the plain ``arctan(1/n)`` series."""
    if arg in _CASE_OF_ARG:
        return _CASE_OF_ARG[arg]
    if arg.numerator != 1:
        raise ValueError(f"no series for arctan({arg})")
    return arctan_recip_spec(arg.denominator)


def _parts(terms: Iterable[tuple[int, Fraction]]) -> _Parts:
    """Weighted arctangents as weighted cases and series."""
    return [(coeff, _arctan(arg)) for coeff, arg in terms]


def _series(parts: _Parts) -> list[tuple[int, SeriesSpec]]:
    """``parts`` with every case expanded into its weighted series."""
    return [
        (weight * inner, spec)
        for weight, item in parts
        for inner, spec in (_stack(item) if isinstance(item, CaseParams) else [(1, item)])
    ]


def _plan(parts: _Parts, target_digits: int) -> PrecisionContext:
    """Context sized for the series ``parts`` evaluates, each counted once
    at its own prefactor: weights multiply error, not operations."""
    return context_for(dict.fromkeys(spec for _, spec in _series(parts)), target_digits)


def sun(
    case: CaseParams | CaseId | Iterable[tuple[int, CaseParams | CaseId]],
    ctx: PrecisionContext,
) -> EvalResult:
    """Evaluate ``2*SATURN + 2*JUPITER + MARS = arctan(x/(2-x))`` for a case,
    or ``sum(weight * arctan(x/(2-x)))`` over weighted cases.

    All the series of all the cases go to :func:`eval_series` as one stack,
    so the cases of a pi route share one pass over their denominators.
    """
    cases = [(1, case)] if isinstance(case, (CaseParams, CaseId)) else case
    return eval_series(_series([(weight, _case(c)) for weight, c in cases]), ctx)


class IdentityCheck(namedtuple("IdentityCheck", "passed residual_ulps bound_ulps scale")):
    """Outcome of the arctangent identity check, in ulps at ``scale``."""

    __slots__ = ()


def verify_arctan_identity(
    ctx: PrecisionContext,
    *,
    spec_overrides: Mapping[SeriesSpec, SeriesSpec] | None = None,
) -> IdentityCheck:
    """Check ``2*arctan(1/3) + arctan(1/7) = arctan(1)`` numerically.

    Passes iff the residual of the three evaluated sides stays within the
    combined error bound.  ``spec_overrides`` replaces the named series with
    others, so self-tests can feed a faulty series and see the check fail.
    """
    overrides = spec_overrides or {}
    parts = [
        (weight, overrides.get(spec, spec)) for weight, spec in _series(_parts(_IDENTITY_TERMS))
    ]
    residual = eval_series(parts, ctx)
    residual_ulps = residual.value.magnitude
    bound_ulps = residual.error_ulps
    return IdentityCheck(residual_ulps <= bound_ulps, residual_ulps, bound_ulps, ctx.scale)


# the quartic 4 + x^4 and its two integer quadratic factors, low order first
QUARTIC_FACTOR_A = (2, 2, 1)
QUARTIC_FACTOR_B = (2, -2, 1)
QUARTIC_COEFFS = (4, 0, 0, 0, 1)


class FactorizationCheck(namedtuple("FactorizationCheck", "passed coefficients")):
    """Outcome of the quartic factorization check, with the expanded
    product's coefficients, low order first."""

    __slots__ = ()


def verify_factorization(
    factor_a: tuple[int, ...] = QUARTIC_FACTOR_A,
    factor_b: tuple[int, ...] = QUARTIC_FACTOR_B,
) -> FactorizationCheck:
    """Expand the two quadratic factors by integer convolution and compare
    against ``4 + x^4``.  Alternate factors may be passed to fault-test."""
    coeffs = [0] * (len(factor_a) + len(factor_b) - 1)
    for i, a in enumerate(factor_a):
        for j, b in enumerate(factor_b):
            coeffs[i + j] += a * b
    result = tuple(coeffs)
    return FactorizationCheck(result == QUARTIC_COEFFS, result)


def arctan_recip_spec(n: int) -> SeriesSpec:
    """``arctan(1/n)`` as the standard odd-denominator alternating series:
    prefactor 1/n, denominators 2k+1, ratio 1/n^2."""
    if n < 2:
        raise ValueError("n must be at least 2")
    return SeriesSpec(1, n, 1, 2, n * n)


def _folded(weight: int, spec: SeriesSpec) -> SeriesSpec:
    """``spec`` with ``weight`` multiplied into its prefactor."""
    pref = spec.prefactor * weight
    return SeriesSpec(pref.numerator, pref.denominator, spec.offset, spec.step, spec.q_den)


def combined_series_specs() -> tuple[SeriesSpec, ...]:
    """The six series whose plain sum is pi: the x=1/2 stack scaled by 8 and
    the x=1/4 stack scaled by 4, component weights folded into prefactors."""
    parts = _parts(PI_FORMULAS[PiFormulaId.COMBINED].terms)
    return tuple(_folded(weight, spec) for weight, spec in _series(parts))


def compute_pi(formula: PiFormula | PiFormulaId, ctx: PrecisionContext) -> EvalResult:
    """Assemble pi along the requested route.

    CASE1 and COMBINED go through the arctangent decomposition, their cases
    in one :func:`sun` call so that all their series share one pass; the
    Machin route uses plain ``arctan(1/n)`` series so agreement between the
    routes is meaningful.
    """
    if isinstance(formula, PiFormulaId):
        formula = PI_FORMULAS[formula]
    parts = _parts(formula.terms)
    if all(isinstance(item, CaseParams) for _, item in parts):
        return sun(parts, ctx)
    return eval_series(_series(parts), ctx)


class AgreementCheck(namedtuple("AgreementCheck", "first second passed diff_ulps bound_ulps")):
    """Pairwise cross-route agreement at one working scale."""

    __slots__ = ()


def cross_formula_agreement(ctx: PrecisionContext) -> list[AgreementCheck]:
    """Evaluate every route of :data:`PI_FORMULAS` at one scale and check
    each pair agrees within the sum of the two error bounds."""
    routes = [(formula_id.value, compute_pi(formula_id, ctx)) for formula_id in PI_FORMULAS]
    checks = []
    for (name_a, a), (name_b, b) in itertools.combinations(routes, 2):
        diff = abs(a.value.signed_units - b.value.signed_units)
        bound = a.error_ulps + b.error_ulps
        checks.append(AgreementCheck(name_a, name_b, diff <= bound, diff, bound))
    return checks


# ---------------------------------------------------------------------------
# convergence comparison


class ComparisonRow(
    namedtuple(
        "ComparisonRow",
        "method ratio terms_per_digit terms_for_target symbolic_terms notes",
    )
):
    """One method in the convergence table; ``compare --format json``
    emits the fields in this order.

    ``terms_for_target`` is exact where the method is directly countable;
    methods reported by rate only carry a ``symbolic_terms`` estimate
    instead (the other is None).  ``terms_per_digit`` is the asymptotic
    ``ln 10 / ln q_den``, or None where there is no ratio.
    """

    __slots__ = ()


def _leibniz_symbolic(target_digits: int) -> str:
    # remainder ~ 1/(2N): about 10^t / 2 terms for t digits
    if target_digits == 1:
        return "~5"
    return f"~5e{target_digits - 1}"


def compare_convergence(target_digits: int) -> list[ComparisonRow]:
    """Term-count comparison of the series routes at one digit target.

    The Leibniz row is symbolic only (its count is astronomically
    infeasible); the 1/3-ratio model row counts terms for the rate but is
    flagged as never evaluated because its terms are irrational.
    """
    if target_digits < 1:
        raise ValueError("target_digits must be positive")
    t = target_digits
    rows = [
        ComparisonRow(
            method="leibniz",
            ratio="->1",
            terms_per_digit=None,
            terms_for_target=None,
            symbolic_terms=_leibniz_symbolic(t),
            notes=f"alternating remainder 1/(2N); needs > 10^{t - 1} terms; not evaluated",
        ),
        ComparisonRow(
            method="sharp_model",
            ratio="1/3",
            terms_per_digit=1 / math.log10(3),
            terms_for_target=terms_needed(SeriesSpec(1, 1, 1, 2, 3), t),
            symbolic_terms=None,
            notes="rate model only; irrational terms - not evaluated",
        ),
    ]
    for case in CASES.values():
        spec = _folded(*_stack(case)[0])  # the doubled SATURN series leads
        rows.append(
            ComparisonRow(
                method=f"euler_{case.case_id.name.lower()}",
                ratio=f"1/{spec.q_den}",
                terms_per_digit=1 / math.log10(spec.q_den),
                terms_for_target=terms_needed(spec, t),
                symbolic_terms=None,
                notes=f"leading series of the {case.target_description} assembly",
            )
        )
    machin = [spec for _, spec in _series(_parts(PI_FORMULAS[PiFormulaId.MACHIN_ORACLE].terms))]
    rows.append(
        ComparisonRow(
            method="machin",
            ratio=" & ".join(f"1/{spec.q_den}" for spec in machin),
            terms_per_digit=1 / math.log10(machin[0].q_den),
            terms_for_target=sum(terms_needed(spec, t) for spec in machin),
            symbolic_terms=None,
            notes="16*arctan(1/5) - 4*arctan(1/239); terms summed over both series",
        )
    )
    return rows


# ---------------------------------------------------------------------------
# precision planning helpers


def context_for_case(case: CaseParams | CaseId, target_digits: int) -> PrecisionContext:
    """Context sized for one arctangent assembly."""
    return _plan(_stack(_case(case)), target_digits)


def context_for_formula(formula_id: PiFormulaId, target_digits: int) -> PrecisionContext:
    """Context sized for one pi route at one digit target."""
    return _plan(_parts(PI_FORMULAS[formula_id].terms), target_digits)


def context_for_verify(target_digits: int) -> PrecisionContext:
    """Context wide enough for the identity and all cross-route checks."""
    terms = [term for formula in PI_FORMULAS.values() for term in formula.terms]
    return _plan(_parts([*terms, *_IDENTITY_TERMS]), target_digits)
