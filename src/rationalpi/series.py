"""The rational alternating series family and its certified evaluator.

Every series here has the shape::

    (prefactor_num / prefactor_den) * sum_{k>=0} (-1)^k q^k / (offset + step*k)

with ratio ``q = 1/q_den``.  Three such series, tagged SATURN, JUPITER and
MARS, assemble the arctangent integral split handled in
:mod:`rationalpi.formulas`: their prefactors are ``x/4``, ``x^2/8`` and
``x^3/4`` with denominator progressions ``4k+1``, ``2k+1`` and ``4k+3``,
and the shared ratio is ``q = x^4/4``.  For the three supported arguments
x = 1, 1/2, 1/4 that ratio is 1/4, 1/64 and 1/1024, so consecutive terms
shrink by at least those factors and the first omitted term bounds the
truncation error.

Term ``k`` is stored as exactly ``floor(pn * 10^s / (pd * q_den^k * d_k))``
at working scale ``s``, with ``d_k = offset + step*k``.  :func:`eval_series`
sums a weighted stack of series.  When ``pd = 2^a`` and ``q_den = 2^b`` the
term is ``floor(pn * 10^s / (2^e * d_k))`` with ``e = a + b*k``, and since
``floor(floor(x / m) / n) = floor(x / (m*n))`` for integers ``x >= 0`` and
``m, n >= 1``, a term that shares ``(pn, d)`` with a term of smaller
exponent ``e0`` is that term shifted right by ``e - e0`` bits.  Such series
are therefore summed together in one pass over their denominators from
largest to smallest: each distinct ``(pn, d)`` costs one long division,
``floor(floor(pn * 10^s / 2^e0) / d)``, and every other term with it one
shift of that base.  JUPITER's ``2k'+1`` is SATURN's ``4k+1`` or MARS's
``4k+3``, and the x = 1/4 stack repeats the denominators of x = 1/2, so
the pass makes about 0.42 long divisions per term on the ``combined``
route and 0.67 on ``case1``.  Smallest terms come first, so the running
sums stay as long as the terms being added.  A series with any other
``pd`` or ``q_den`` is summed forward with a running power: each new power
is one exact small division by ``q_den``, each term one more division by
its denominator.  Both ways store the same integers, so values never
depend on which series share a pass.

Term counts are fixed up front by :func:`terms_needed` against the full
working scale, which pushes the series remainder below one working ulp and
keeps the error certificate independent of runtime behavior; the
certificate is proved in :func:`eval_series`.
"""

from __future__ import annotations

import enum
import heapq
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator

from .fixedpoint import (
    ErrorLedger,
    FixedPoint,
    InsufficientPrecisionError,
    PrecisionContext,
    fx_add,
    fx_div_small,
    fx_mul_small,
    guaranteed_digit_count,
)

__all__ = [
    "Component",
    "CaseId",
    "CaseParams",
    "SeriesSpec",
    "EvalResult",
    "CASES",
    "series_for_case",
    "terms_needed",
    "eval_series",
    "consecutive_term_ratio",
    "context_for",
]


class Component(enum.Enum):
    """The three component series of one arctangent assembly."""

    SATURN = "saturn"
    JUPITER = "jupiter"
    MARS = "mars"


class CaseId(enum.Enum):
    """Supported series arguments x."""

    X1 = "1"
    X_HALF = "1/2"
    X_QUARTER = "1/4"


@dataclass(frozen=True)
class SeriesSpec:
    """One alternating series; immutable and validated on construction."""

    prefactor_num: int
    prefactor_den: int
    offset: int
    step: int
    q_den: int

    def __post_init__(self):
        if self.prefactor_num < 1 or self.prefactor_den < 1:
            raise ValueError("prefactor must be a positive rational")
        if self.offset < 1 or self.step < 1:
            raise ValueError("offset and step must be at least 1")
        if self.q_den < 2:
            raise ValueError("q_den must be at least 2 for strict convergence")

    @property
    def prefactor(self) -> Fraction:
        return Fraction(self.prefactor_num, self.prefactor_den)

    def denominator(self, k: int) -> int:
        """Denominator of the k-th term, ``offset + step*k``."""
        return self.offset + self.step * k

    def term_magnitude(self, k: int) -> Fraction:
        """Exact magnitude of the k-th term."""
        return self.prefactor / (self.q_den**k * self.denominator(k))


@dataclass(frozen=True)
class CaseParams:
    """One supported argument x with its ratio denominator and target."""

    case_id: CaseId
    x_num: int
    x_den: int
    q_den: int
    target_description: str

    def __post_init__(self):
        # q = x^4/4 exactly
        if self.q_den * self.x_num**4 != 4 * self.x_den**4:
            raise ValueError("q_den inconsistent with x^4/4")


CASES: dict[CaseId, CaseParams] = {
    CaseId.X1: CaseParams(CaseId.X1, 1, 1, 4, "arctan(1)"),
    CaseId.X_HALF: CaseParams(CaseId.X_HALF, 1, 2, 64, "arctan(1/3)"),
    CaseId.X_QUARTER: CaseParams(CaseId.X_QUARTER, 1, 4, 1024, "arctan(1/7)"),
}

# prefactor as a function of x, and the denominator progression (offset, step)
_COMPONENT_SHAPE = {
    Component.SATURN: (lambda x: x / 4, 1, 4),
    Component.JUPITER: (lambda x: x * x / 8, 1, 2),
    Component.MARS: (lambda x: x**3 / 4, 3, 4),
}


def series_for_case(case: CaseParams, component: Component) -> SeriesSpec:
    """Instantiate one component series for one argument.

    SATURN: prefactor x/4, denominators 1, 5, 9, 13, ...
    JUPITER: prefactor x^2/8, denominators 1, 3, 5, 7, ...
    MARS: prefactor x^3/4, denominators 3, 7, 11, 15, ...
    """
    prefactor_of, offset, step = _COMPONENT_SHAPE[component]
    pref = prefactor_of(Fraction(case.x_num, case.x_den))
    return SeriesSpec(pref.numerator, pref.denominator, offset, step, case.q_den)


@dataclass(frozen=True)
class EvalResult:
    """A certified evaluation: value, cost and error budget.

    ``error_ulps`` covers the arithmetic ledger and the series remainder
    together; ``component_terms`` lists per-series term counts when the
    result combines several series.
    """

    value: FixedPoint
    terms_used: int
    error_ulps: int
    guaranteed_digits: int
    component_terms: tuple[int, ...] = ()


def terms_needed(spec: SeriesSpec, target_digits: int) -> int:
    """Smallest N whose first omitted term is below ``10**-target_digits``.

    Decided by the exact integer inequality
    ``prefactor_num * 10^t < prefactor_den * q_den^N * (offset + step*N)``;
    a float logarithm only seeds the search, so the result is exactly
    minimal and never an underestimate.
    """
    if target_digits < 1:
        raise ValueError("target_digits must be positive")

    threshold = spec.prefactor_num * 10**target_digits

    def small_enough(n: int) -> bool:
        return threshold < spec.prefactor_den * spec.q_den**n * spec.denominator(n)

    seed = (
        target_digits + math.log10(spec.prefactor_num) - math.log10(spec.prefactor_den)
    ) / math.log10(spec.q_den)
    n = max(0, int(seed) - 2)
    while not small_enough(n):
        n += 1
    while n > 0 and small_enough(n - 1):
        n -= 1
    return n


def eval_series(
    specs: SeriesSpec | Iterable[tuple[int, SeriesSpec]], ctx: PrecisionContext
) -> EvalResult:
    """Evaluate ``sum(weight * series)`` at the context's working scale.

    ``specs`` is a weighted stack of series; a bare spec stands for weight 1.
    Each series ``i`` sums its minimal ``N_i = terms_needed(spec, scale)``
    terms (at least one), and term ``k`` is stored as exactly
    ``floor(pn * 10^scale / (pd * q_den^k * d_k))`` with
    ``d_k = offset + step*k``.  A series whose ``pd`` and ``q_den`` are
    powers of two goes through the shared pass of the module docstring;
    any other keeps the running power.  Both store the same terms, so the
    value does not depend on which series share a pass.

    The certificate keeps the running power's charge of ``2*N_i + 1`` ulps
    per series, one per division plus one for the remainder, however the
    terms were stored.  It is sound because each stored term is the floor
    of its exact value and so below it by less than one ulp: the ``N_i``
    stored terms miss the exact partial sum by less than ``N_i`` ulps, and
    the remainder after them is below one ulp because ``N_i`` is planned
    against the full scale.  Sums and products by the integer weights are
    exact, so ``error_ulps = sum(|weight_i| * (2*N_i + 1))``.
    """
    stack = [(1, specs)] if isinstance(specs, SeriesSpec) else list(specs)
    scale = ctx.scale
    planned = [max(1, terms_needed(spec, scale)) for _, spec in stack]
    for n in planned:
        guaranteed = guaranteed_digit_count(scale, 2 * n + 1)
        if guaranteed < ctx.target_digits:
            raise InsufficientPrecisionError(ctx.target_digits, guaranteed)

    # fx_div_small charges its ulp here; the certificate is the closed form
    # above, which does not depend on how many divisions stored the terms
    ledger = ErrorLedger()
    sums = [FixedPoint.from_int(0, scale)] * len(stack)
    shared = []
    for i, ((_, spec), n) in enumerate(zip(stack, planned)):
        if _is_power_of_two(spec.prefactor_den) and _is_power_of_two(spec.q_den):
            shared.append((i, spec, n))
        else:
            sums[i] = _running_power_sum(spec, n, scale, ledger)
    _shared_pass(shared, sums, scale, ledger)

    total = FixedPoint.from_int(0, scale)
    for (weight, _), partial in zip(stack, sums):
        total = fx_add(total, fx_mul_small(partial, weight))
    error_ulps = sum(abs(weight) * (2 * n + 1) for (weight, _), n in zip(stack, planned))
    return EvalResult(
        value=total,
        terms_used=sum(planned),
        error_ulps=error_ulps,
        guaranteed_digits=guaranteed_digit_count(scale, error_ulps),
        component_terms=tuple(planned),
    )


def _is_power_of_two(n: int) -> bool:
    return n == 1 << (n.bit_length() - 1)


def _running_power_sum(spec: SeriesSpec, n: int, scale: int, ledger: ErrorLedger) -> FixedPoint:
    """The first ``n`` terms, summed forward: the power starts from one
    division by the prefactor denominator and shrinks by one division by
    ``q_den`` per term, and each term is one more division by its
    denominator."""
    power = fx_div_small(
        FixedPoint.from_int(spec.prefactor_num, scale), spec.prefactor_den, ledger
    )
    total = FixedPoint.from_int(0, scale)
    sign = 1
    for k in range(n):
        if k:
            power = fx_div_small(power, spec.q_den, ledger)
        term = fx_div_small(power, spec.denominator(k), ledger)
        total = fx_add(total, fx_mul_small(term, sign))
        sign = -sign
    return total


def _by_falling_denominator(i: int, spec: SeriesSpec, n: int) -> Iterator[tuple[int, ...]]:
    """``(-d_k, prefactor_num, e_k, i, k)`` for k = n-1 down to 0, an
    ascending sequence; term k divides ``prefactor_num`` by ``2**e_k * d_k``."""
    a = spec.prefactor_den.bit_length() - 1
    b = spec.q_den.bit_length() - 1
    last = n - 1
    return zip(
        range(-spec.denominator(last), 1 - spec.offset, spec.step),
        itertools.repeat(spec.prefactor_num),
        range(a + b * last, a - 1, -b),
        itertools.repeat(i),
        range(last, -1, -1),
    )


def _shared_pass(
    shared: list[tuple[int, SeriesSpec, int]],
    sums: list[FixedPoint],
    scale: int,
    ledger: ErrorLedger,
) -> None:
    """Add the planned terms of the power-of-two series ``(i, spec, n)``
    into ``sums[i]``, largest denominator first, with one long division per
    distinct (numerator, denominator) pair."""
    pns = {spec.prefactor_num for _, spec, _ in shared}
    numerators = {pn: FixedPoint.from_int(pn, scale) for pn in pns}
    group = None
    for neg_d, pn, e, i, k in heapq.merge(*(_by_falling_denominator(*s) for s in shared)):
        if (neg_d, pn) != group:
            # a group's first term has its smallest exponent
            group, e0 = (neg_d, pn), e
            base = fx_div_small(fx_div_small(numerators[pn], 1 << e0, ledger), -neg_d, ledger)
        term = base if e == e0 else fx_div_small(base, 1 << (e - e0), ledger)
        sums[i] = fx_add(sums[i], fx_mul_small(term, -1 if k & 1 else 1))


def consecutive_term_ratio(spec: SeriesSpec, k: int) -> Fraction:
    """Exact ``|term_{k+1}| / |term_k|``; always below ``1/q_den``."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return Fraction(spec.denominator(k), spec.q_den * spec.denominator(k + 1))


def context_for(specs: Iterable[SeriesSpec], target_digits: int) -> PrecisionContext:
    """Precision context sized for evaluating the given series jointly.

    The operation count is estimated at a generous probe precision so the
    guard-digit rule is applied to an overestimate, never an undercount.
    """
    probe = target_digits + 30
    ops = sum(2 * (terms_needed(spec, probe) + 2) for spec in specs)
    return PrecisionContext.for_op_count(target_digits, ops)
