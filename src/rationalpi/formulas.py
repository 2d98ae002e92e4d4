"""Arctangent assembly, identity checks, pi formulas and the comparator.

The centerpiece is the weighted sum of the three component series

    arctan(x / (2 - x)) = 2*SATURN + 2*JUPITER + 1*MARS

which :func:`sun` evaluates for the three supported arguments.  Pi is then
assembled along two independent routes through that decomposition (the
``x = 1`` case times four, and ``8*arctan(1/3) + 4*arctan(1/7)``), plus a
cross-check route through the classic Machin pair
``16*arctan(1/5) - 4*arctan(1/239)``: other series, summed in blocks, not
by the shared pass, but the same planner, certificate and renderer.

:data:`PI_FORMULAS` is the one table of routes, and ``_series`` the one
rule that expands its weighted arctangents into series for evaluation,
planning and the agreement check: :func:`compute_pi` hands a route to one
:func:`sun` call, one :func:`eval_series` pass.  :func:`compare_convergence`
quantifies how many terms each route needs per digit.
"""

import enum
import itertools
import math
from collections import namedtuple
from collections.abc import Iterable
from fractions import Fraction

from .fixedpoint import PrecisionContext, _check_int
from .series import (
    CaseId,
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
    "PI_FORMULAS",
    "IdentityCheck",
    "FactorizationCheck",
    "AgreementCheck",
    "ComparisonRow",
    "sun",
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


# each route's pi as an integer combination of arctangents of exact
# rationals, as (coefficient, argument) pairs
PI_FORMULAS: dict[PiFormulaId, tuple[tuple[int, Fraction], ...]] = {
    PiFormulaId.CASE1: ((4, Fraction(1, 1)),),
    PiFormulaId.COMBINED: ((8, Fraction(1, 3)), (4, Fraction(1, 7))),
    PiFormulaId.MACHIN_ORACLE: ((16, Fraction(1, 5)), (-4, Fraction(1, 239))),
}

# component weights in the arctangent assembly
_SUN_WEIGHTS = ((Component.SATURN, 2), (Component.JUPITER, 2), (Component.MARS, 1))

# the arctangent argument x/(2-x) each supported case evaluates
_CASE_OF_ARG = {Fraction(c.value) / (2 - Fraction(c.value)): c for c in CaseId}


def _stack(case: CaseId, weight: int = 1) -> list[tuple[int, SeriesSpec]]:
    """``weight * arctan(x/(2-x))`` as the weighted three-series stack of one case."""
    return [
        (weight * inner, series_for_case(case, component)) for component, inner in _SUN_WEIGHTS
    ]


def _series(terms: Iterable[tuple[int, Fraction]]) -> list[tuple[int, SeriesSpec]]:
    """Weighted arctangents as weighted series: the case stack for 1, 1/3
    and 1/7, otherwise the plain ``arctan(1/n)`` series.  An argument must
    be exactly a ``Fraction`` or an ``int``: the lookup by equality would
    take ``True`` or ``1.0`` for 1."""
    parts = []
    for coeff, arg in terms:
        _check_int("coefficient", coeff)
        if type(arg) not in (Fraction, int):
            raise TypeError(f"argument must be a Fraction or an int, got {type(arg).__name__}")
        if arg in _CASE_OF_ARG:
            parts += _stack(_CASE_OF_ARG[arg], coeff)
        elif arg.numerator == 1:
            parts.append((coeff, arctan_recip_spec(arg.denominator)))
        else:
            raise ValueError(f"no series for arctan({arg})")
    return parts


def sun(case: CaseId | Iterable[tuple[int, Fraction]], ctx: PrecisionContext) -> EvalResult:
    """Evaluate ``2*SATURN + 2*JUPITER + MARS = arctan(x/(2-x))`` for one
    case, or weighted arctangents ``[(coefficient, argument), ...]`` such
    as a :data:`PI_FORMULAS` route, expanded by ``_series`` into one stack
    that :func:`eval_series` sums in one pass.  A coefficient must be
    exactly an ``int`` and an argument exactly a ``Fraction`` or an ``int``
    (``bool``, ``float`` and ``str`` raise ``TypeError``); an argument with
    no series raises ``ValueError``."""
    return eval_series(_stack(case) if isinstance(case, CaseId) else _series(case), ctx)


# the quartic 4 + x^4 and its two integer quadratic factors, low order first
QUARTIC_FACTOR_A = (2, 2, 1)
QUARTIC_FACTOR_B = (2, -2, 1)
QUARTIC_COEFFS = (4, 0, 0, 0, 1)


class FactorizationCheck(namedtuple("FactorizationCheck", "passed coefficients")):
    """Outcome of the quartic factorization check, with the expanded
    product's coefficients, low order first."""

    __slots__ = ()


def verify_factorization() -> FactorizationCheck:
    """Expand the two quadratic factors by integer convolution and compare
    against ``4 + x^4``."""
    coeffs = [0] * (len(QUARTIC_FACTOR_A) + len(QUARTIC_FACTOR_B) - 1)
    for i, a in enumerate(QUARTIC_FACTOR_A):
        for j, b in enumerate(QUARTIC_FACTOR_B):
            coeffs[i + j] += a * b
    result = tuple(coeffs)
    return FactorizationCheck(result == QUARTIC_COEFFS, result)


def arctan_recip_spec(n: int) -> SeriesSpec:
    """``arctan(1/n)`` as the standard odd-denominator alternating series:
    prefactor 1/n, denominators 2k+1, ratio 1/n^2; the spec refuses n < 2."""
    return SeriesSpec(1, n, 1, 2, n * n)


def _folded(weight: int, spec: SeriesSpec) -> SeriesSpec:
    """``spec`` with ``weight`` multiplied into its prefactor."""
    pref = spec.prefactor * weight
    return SeriesSpec(pref.numerator, pref.denominator, spec.offset, spec.step, spec.q_den)


def combined_series_specs() -> tuple[SeriesSpec, ...]:
    """The six series whose plain sum is pi: the x=1/2 stack scaled by 8 and
    the x=1/4 stack scaled by 4, component weights folded into prefactors."""
    return tuple(_folded(*part) for part in _series(PI_FORMULAS[PiFormulaId.COMBINED]))


def compute_pi(formula_id: PiFormulaId, ctx: PrecisionContext) -> EvalResult:
    """Assemble pi along the requested route: its weighted arctangents in
    one :func:`sun` call.  CASE1 and COMBINED go through the arctangent
    decomposition; the Machin route's plain ``arctan(1/n)`` series share
    none of its parameters, so agreement between the routes is meaningful.
    """
    return sun(PI_FORMULAS[formula_id], ctx)


class IdentityCheck(namedtuple("IdentityCheck", "passed residual_ulps bound_ulps scale")):
    """Outcome of the arctangent identity check, in ulps at ``scale``."""

    __slots__ = ()


class AgreementCheck(namedtuple("AgreementCheck", "first second passed diff_ulps bound_ulps")):
    """Pairwise cross-route agreement at one working scale."""

    __slots__ = ()


def cross_formula_agreement(ctx: PrecisionContext) -> tuple[IdentityCheck, list[AgreementCheck]]:
    """Evaluate every route of :data:`PI_FORMULAS` once at one scale, check
    each pair agrees within the sum of the two error bounds, and read the
    identity ``2*arctan(1/3) + arctan(1/7) = arctan(1)`` off ``case1`` and
    ``combined``: their difference is four times its left side, stored term
    by stored term, so its residual and bound are a quarter of that pair's.
    """
    results = {formula_id: compute_pi(formula_id, ctx) for formula_id in PI_FORMULAS}
    checks = []
    for (id_a, a), (id_b, b) in itertools.combinations(results.items(), 2):
        diff = abs(a.value.signed_units - b.value.signed_units)
        bound = a.error_ulps + b.error_ulps
        checks.append(AgreementCheck(id_a.value, id_b.value, diff <= bound, diff, bound))
    case1, combined = results[PiFormulaId.CASE1], results[PiFormulaId.COMBINED]
    residual = abs(combined.value.signed_units - case1.value.signed_units) // 4
    bound = (case1.error_ulps + combined.error_ulps) // 4
    return IdentityCheck(residual <= bound, residual, bound, ctx.scale), checks


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
    instead (the other is None).  ``terms_per_digit`` is the sum of
    ``ln 10 / ln q_den`` over the row's series, or None where there is no
    ratio.
    """

    __slots__ = ()


def compare_convergence(target_digits: int) -> list[ComparisonRow]:
    """Term-count comparison of the series routes at one digit target.

    The Leibniz row is symbolic only (its count is astronomically
    infeasible); the 1/3-ratio model row counts terms for the rate but is
    flagged as never evaluated because its terms are irrational.  Every
    other row is built by one rule from its series: ``terms_per_digit`` is
    the sum of ``ln 10 / ln q_den`` over them and ``terms_for_target`` the
    sum of their :func:`terms_needed`, which checks ``target_digits``.
    """
    t = target_digits
    methods = [
        ("sharp_model", [SeriesSpec(1, 1, 1, 2, 3)],
         "rate model only; irrational terms - not evaluated"),
        # the doubled SATURN series leads each case's assembly
        *((f"euler_{case.name.lower()}", [_folded(*_stack(case)[0])],
           f"leading series of the arctan({arg}) assembly")
          for arg, case in _CASE_OF_ARG.items()),
        ("machin", [spec for _, spec in _series(PI_FORMULAS[PiFormulaId.MACHIN_ORACLE])],
         "16*arctan(1/5) - 4*arctan(1/239); terms summed over both series"),
    ]
    # Leibniz's remainder is about 1/(2N): about 10^t / 2 terms for t digits
    leibniz = ComparisonRow(
        method="leibniz",
        ratio="->1",
        terms_per_digit=None,
        terms_for_target=None,
        symbolic_terms="~5" if t == 1 else f"~5e{t - 1}",
        notes=f"alternating remainder 1/(2N); needs > 10^{t - 1} terms; not evaluated",
    )
    return [leibniz] + [
        ComparisonRow(
            method=method,
            ratio=" & ".join(f"1/{s.q_den}" for s in specs),
            terms_per_digit=sum(1 / math.log10(s.q_den) for s in specs),
            terms_for_target=sum(terms_needed(s, t) for s in specs),
            symbolic_terms=None,
            notes=notes,
        )
        for method, specs, notes in methods
    ]


# ---------------------------------------------------------------------------
# precision planning helpers


def context_for_case(case: CaseId, target_digits: int) -> PrecisionContext:
    """Context sized for one arctangent assembly."""
    return context_for(_stack(case), target_digits)


def context_for_formula(formula_id: PiFormulaId, target_digits: int) -> PrecisionContext:
    """Context sized for one pi route at one digit target."""
    return context_for(_series(PI_FORMULAS[formula_id]), target_digits)


def context_for_verify(target_digits: int) -> PrecisionContext:
    """Context for the identity and all cross-route checks: the three routes
    planned as one stack, whose certificate is the sum of theirs, so each
    route certifies the target and the identity is read off two of them."""
    terms = [term for terms in PI_FORMULAS.values() for term in terms]
    return context_for(_series(terms), target_digits)
