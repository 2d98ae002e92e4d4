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

Each series is summed in one of two ways, and both store exact floors at
working scale ``s``.

When ``pn = 1``, ``pd = 2^a`` and ``q_den = 2^b``, as in all nine case
series, term ``k`` is stored as exactly ``floor(10^s / (2^e * d_k))`` with
``d_k = offset + step*k`` and ``e = a + b*k``.  For integers ``x >= 0``
and ``m, n >= 1``, ``floor(floor(x / m) / n) = floor(x / (m*n))``: a floor
taken in steps is the floor of the whole quotient.  So a term that shares
its denominator ``d`` with a term of smaller exponent ``e0`` is that term
shifted right by ``e - e0`` bits, and such series are summed together in
one pass over their denominators from largest to smallest: each distinct
``d`` costs one long division, and every other term with it one shift of
that base.  Each series adds its even-indexed and its odd-indexed terms'
units into two ``int`` sums and subtracts the second from the first once,
so no term is negated on its own.  CPython divides by a divisor below
``2**sys.int_info.bits_per_digit`` (2^30 on 64-bit builds) in one linear
pass, and by a wider one with schoolbook long division at about twice the
cost; a shift or an add costs a fifth of either.  So the base divides one
shifted numerator ``10^s >> ex`` by the folded divisor ``d << (e0 - ex)``,
and that numerator is shifted afresh only when the folded divisor would no
longer fit one digit.  JUPITER's ``2k'+1`` is SATURN's ``4k+1`` or MARS's
``4k+3``, and the x = 1/4 stack repeats the denominators of x = 1/2, so the
pass makes about 0.42 long divisions per term on the ``combined`` route and
0.67 on ``case1``.  Smallest terms come first, so the running sums stay as
long as the terms being added.

Any other series, Machin's ``arctan(1/5)`` and ``arctan(1/239)`` and a
power-of-two one with another ``pn`` included, is summed in blocks by
binary splitting (Haible and Papanikolaou, "Fast multiprecision evaluation
of series of rational numbers", 1998).  Its ``[0, N)`` is cut into blocks
``[lo, hi)``: a block grows until the bit lengths of its denominators,
summed, reach three quarters of the bit length of ``pn * 10^s``, and every
block but the last holds at least two terms.  A product tree gives the
block's exact sum ``(-1)^lo * T / (B * q_den^(hi-lo-1))`` with
``B = prod d_k``, so the block costs one long division: it is stored as
``floor(pn * T * 10^s / (pd * B * q_den^(hi-1)))`` with the sign of
``(-1)^lo``.  A series' stored value never depends on which series share a
pass or on the interpreter's digit size.

Term counts are fixed up front by :func:`terms_needed` against the full
working scale, which pushes the series remainder below one working ulp.
The package has one error rule, ``_certify``: ``ceil(N/2) + 1`` ulps per
series of ``N`` terms, for the floored terms or blocks and the remainder.
:func:`eval_series` proves it and refuses from it, and :func:`context_for`
sizes the guard from it at the same scale.
"""

import enum
import heapq
import itertools
import math
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator
from fractions import Fraction

from .fixedpoint import (
    FixedPoint,
    InsufficientPrecisionError,
    PrecisionContext,
    _Checked,
    _check_int,
    fx_div_small,
    guaranteed_digit_count,
)

__all__ = [
    "Component",
    "CaseId",
    "SeriesSpec",
    "EvalResult",
    "series_for_case",
    "terms_needed",
    "eval_series",
    "consecutive_term_ratio",
    "context_for",
]

# a divisor below 2**_DIGIT_BITS is one CPython digit: one linear pass
_DIGIT_BITS = sys.int_info.bits_per_digit


class Component(enum.Enum):
    """The three component series of one arctangent assembly."""

    SATURN = "saturn"
    JUPITER = "jupiter"
    MARS = "mars"


class CaseId(enum.Enum):
    """Supported series arguments x, each valued as x itself: the ratio
    ``q = x^4/4`` and the target ``arctan(x/(2-x))`` follow from it."""

    X1 = "1"
    X_HALF = "1/2"
    X_QUARTER = "1/4"


class SeriesSpec(
    _Checked, namedtuple("SeriesSpec", "prefactor_num prefactor_den offset step q_den")
):
    """One alternating series; immutable and checked on construction,
    ``_replace`` included: every field is an ``int`` of 1 or more, and
    ``q_den`` at least 2 for strict convergence."""

    __slots__ = ()
    _least = (1, 1, 1, 1, 2)

    @property
    def prefactor(self) -> Fraction:
        return Fraction(self.prefactor_num, self.prefactor_den)

    def denominator(self, k: int) -> int:
        """Denominator of the k-th term, ``offset + step*k``."""
        return self.offset + self.step * k


# prefactor as a function of x, and the denominator progression (offset, step)
_COMPONENT_SHAPE = {
    Component.SATURN: (lambda x: x / 4, 1, 4),
    Component.JUPITER: (lambda x: x * x / 8, 1, 2),
    Component.MARS: (lambda x: x**3 / 4, 3, 4),
}


def series_for_case(case: CaseId, component: Component) -> SeriesSpec:
    """Instantiate one component series for one argument, with ratio
    ``x^4/4``: ``q_den`` is 4, 64 and 1024 for x = 1, 1/2, 1/4.

    SATURN: prefactor x/4, denominators 1, 5, 9, 13, ...
    JUPITER: prefactor x^2/8, denominators 1, 3, 5, 7, ...
    MARS: prefactor x^3/4, denominators 3, 7, 11, 15, ...
    """
    prefactor_of, offset, step = _COMPONENT_SHAPE[component]
    x = Fraction(case.value)
    pref = prefactor_of(x)
    return SeriesSpec(pref.numerator, pref.denominator, offset, step, int(4 / x**4))


class EvalResult(
    namedtuple("EvalResult", "value terms_used error_ulps guaranteed_digits component_terms")
):
    """A certified evaluation: value, cost and error budget.  ``error_ulps``
    is the certificate, for the floored terms and the remainders together;
    ``component_terms`` lists each series' term count, ``terms_used`` their sum."""

    __slots__ = ()


def terms_needed(spec: SeriesSpec, target_digits: int) -> int:
    """Smallest N whose first omitted term is below ``10**-target_digits``.

    Decided by the exact integer inequality
    ``prefactor_num * 10^t < prefactor_den * q_den^N * (offset + step*N)``;
    a float logarithm only seeds the search, so the result is exactly
    minimal and never an underestimate.
    """
    _check_int("target_digits", target_digits, 1)
    q = spec.q_den
    threshold = spec.prefactor_num * 10**target_digits
    seed = (
        target_digits + math.log10(spec.prefactor_num) - math.log10(spec.prefactor_den)
    ) / math.log10(q)
    n = max(0, int(seed) - 2)
    # prefactor_den * q**n, raised once and then stepped by one multiply or
    # one exact division per step
    scaled = spec.prefactor_den * q**n
    while threshold >= scaled * spec.denominator(n):
        n += 1
        scaled *= q
    while n > 0 and threshold < (smaller := scaled // q) * spec.denominator(n - 1):
        n -= 1
        scaled = smaller
    return n


def _certify(stack: Iterable[tuple[int, SeriesSpec]], scale: int) -> tuple[list[int], int]:
    """Term counts ``N_i`` of a weighted stack planned at ``scale``, at least
    one each, and its certificate ``sum(|weight_i| * (ceil(N_i/2) + 1))`` in
    ulps at that scale, proved in :func:`eval_series`."""
    planned, ulps = [], 0
    for weight, spec in stack:
        # a float weight would round the sum and break the certificate
        _check_int("weight", weight)
        n = max(1, terms_needed(spec, scale))
        planned.append(n)
        ulps += abs(weight) * ((n + 1) // 2 + 1)
    return planned, ulps


def eval_series(specs: Iterable[tuple[int, SeriesSpec]], ctx: PrecisionContext) -> EvalResult:
    """Evaluate ``sum(weight * series)`` at the context's working scale.

    ``specs`` is a weighted stack ``[(weight, spec), ...]`` of series.
    Each series ``i`` sums its minimal ``N_i = terms_needed(spec, scale)``
    terms (at least one).  A series with ``pn = 1`` whose ``pd`` and
    ``q_den`` are powers of two goes through the shared pass of the module
    docstring, which stores each term ``k`` as exactly
    ``floor(pn * 10^scale / (pd * q_den^k * d_k))`` with
    ``d_k = offset + step*k``; any other is summed in blocks, each stored as
    the floor of its exact sum.

    The certificate, from ``_certify``, is
    ``error_ulps = sum(|weight_i| * (ceil(N_i/2) + 1))``.  A stored term or
    block is its exact value truncated toward zero, so it is off by less
    than one ulp, and the remainder has the sign of term ``N`` and is below
    one ulp, as ``N`` is planned against the full scale.  In the shared
    pass a series stores the sum of its even-indexed floors less the sum of
    its odd-indexed ones, so stored minus exact partial sum is
    ``sum_odd f_k - sum_even f_k`` for floor losses ``f_k`` in
    ``[0, 1)``, strictly between ``-ceil(N/2)`` and ``floor(N/2)``; the
    remainder lifts the upper end to ``ceil(N/2)`` for odd ``N`` and lowers
    the lower end by one for even ``N``, which alone needs the ``+ 1``.  A
    series of ``M`` blocks is off by less than ``M + 1`` ulps, and every
    block but the last holds at least two terms, so ``M <= ceil(N/2)``.
    Each series' partial sum is kept as ``int`` units at the working scale,
    so weighting and adding them with integer weights is exact.

    That certificate depends only on the planned ``N_i``, so it is known
    before any term is summed: :class:`InsufficientPrecisionError` is raised
    then if it certifies fewer than the context's target digits, and a
    returned result always certifies at least that many.
    """
    stack = list(specs)
    scale = ctx.scale
    planned, error_ulps = _certify(stack, scale)
    guaranteed = guaranteed_digit_count(scale, error_ulps)
    if guaranteed < ctx.target_digits:
        raise InsufficientPrecisionError(ctx.target_digits, guaranteed)

    sums = [0] * len(stack)
    shared = []
    for i, ((_, spec), n) in enumerate(zip(stack, planned)):
        # a product of positive integers is a power of two exactly when both factors are
        if spec.prefactor_num == 1 and (spec.prefactor_den * spec.q_den).bit_count() == 1:
            shared.append((i, spec, n))
        else:
            sums[i] = _block_sum(spec, n, scale)
    _shared_pass(shared, sums, scale)

    total = sum(weight * units for (weight, _), units in zip(stack, sums))
    return EvalResult(
        value=FixedPoint(total, scale),
        terms_used=sum(planned),
        error_ulps=error_ulps,
        guaranteed_digits=guaranteed,
        component_terms=tuple(planned),
    )


def _block_sum(spec: SeriesSpec, n: int, scale: int) -> int:
    """Units of the first ``n`` terms, one floor per block of :func:`_cuts`:
    block ``[lo, hi)`` stores
    ``floor(pn * T * 10^s / (pd * B * q_den^(hi-1)))`` with the sign of
    ``(-1)^lo``, for ``(T, B)`` from :func:`_split`."""
    numerator = spec.prefactor_num * 10**scale
    units = 0
    for lo, hi in _cuts(spec, n, 3 * numerator.bit_length() // 4):
        t, b = _split(spec, lo, hi)
        block = numerator * t // (spec.prefactor_den * b * spec.q_den ** (hi - 1))
        units += -block if lo & 1 else block
    return units


def _cuts(spec: SeriesSpec, n: int, target: int) -> Iterator[tuple[int, int]]:
    """Blocks ``[lo, hi)`` that cover ``[0, n)`` in order.  A block ends at
    the first term where its denominators' bit lengths, summed, reach
    ``target`` and it holds at least two terms; the last block takes what
    is left."""
    offset, step = spec.offset, spec.step
    lo = bits = 0
    for k in range(n):
        bits += (offset + step * k).bit_length()
        if bits >= target and k > lo:
            yield lo, k + 1
            lo, bits = k + 1, 0
    if lo < n:
        yield lo, n


def _split(spec: SeriesSpec, lo: int, hi: int) -> tuple[int, int]:
    """``(T, B)`` with ``B = prod d_k`` and
    ``sum_{lo<=k<hi} (-1)^(k-lo) / (q_den^(k-lo) * d_k) = T / (B * q_den^(hi-lo-1))``.

    Halves ``[lo, mid)`` and ``[mid, hi)`` merge over their common
    denominator: ``T = T_l * B_r * q_den^(hi-mid) + (-1)^(mid-lo) * T_r * B_l``.
    """
    if hi - lo == 1:
        return 1, spec.denominator(lo)
    mid = (lo + hi) // 2
    t_left, b_left = _split(spec, lo, mid)
    t_right, b_right = _split(spec, mid, hi)
    t_right *= b_left
    t_left *= b_right * spec.q_den ** (hi - mid)
    return t_left - t_right if (mid - lo) & 1 else t_left + t_right, b_left * b_right


def _by_falling_denominator(i: int, spec: SeriesSpec, n: int) -> Iterator[tuple[int, ...]]:
    """``(-d_k, e_k, i, k)`` for k = n-1 down to 0, an ascending sequence;
    term k divides ``10^scale`` by ``2**e_k * d_k``."""
    a = spec.prefactor_den.bit_length() - 1
    b = spec.q_den.bit_length() - 1
    last = n - 1
    return zip(
        range(-spec.denominator(last), 1 - spec.offset, spec.step),
        range(a + b * last, a - 1, -b),
        itertools.repeat(i),
        range(last, -1, -1),
    )


def _shared_pass(
    shared: list[tuple[int, SeriesSpec, int]], sums: list[int], scale: int
) -> None:
    """Set ``sums[i]`` to the units of the planned partial sum of each series
    ``(i, spec, n)`` with ``pn = 1`` and power-of-two ``pd`` and ``q_den``,
    adding terms largest denominator first, with one long division per
    distinct denominator.  The units of even-indexed and odd-indexed terms go
    into two ``int`` sums per series, and the odd sum is subtracted once at
    the end.

    The numerator ``10^scale`` keeps one shifted copy ``X = 10^scale >> ex``.
    A group with denominator ``d`` and smallest exponent ``e0`` takes its
    base as ``X // (d << (e0 - ex))`` while that folded divisor fits one
    CPython digit.  Otherwise ``X`` is shifted afresh to ``ex = e0 - h``,
    where ``h = bits - d.bit_length()`` clamped to ``[0, e0]`` is the
    headroom that lets the groups after it, whose exponents fall, fold into
    the same ``X``.
    """
    bits = _DIGIT_BITS
    limit = 1 << bits
    numerator = FixedPoint(10**scale, scale)
    halves = {i: [0, 0] for i, _, _ in shared}
    ex = math.inf  # so the first group shifts
    group = None
    for neg_d, e, i, k in heapq.merge(*(_by_falling_denominator(*s) for s in shared)):
        if neg_d != group:
            # a group's first term has its smallest exponent
            group, e0, d = neg_d, e, -neg_d
            if e0 < ex or d << (e0 - ex) >= limit:
                ex = e0 - min(e0, max(0, bits - d.bit_length()))
                x = fx_div_small(numerator, 1 << ex)
            base = fx_div_small(x, d << (e0 - ex))
        term = base if e == e0 else fx_div_small(base, 1 << (e - e0))
        halves[i][k & 1] += term.signed_units
    for i, (even, odd) in halves.items():
        sums[i] = even - odd


def consecutive_term_ratio(spec: SeriesSpec, k: int) -> Fraction:
    """Exact ``|term_{k+1}| / |term_k|``; always below ``1/q_den``."""
    _check_int("k", k, 0)
    return Fraction(spec.denominator(k), spec.q_den * spec.denominator(k + 1))


def context_for(specs: Iterable[tuple[int, SeriesSpec]], target_digits: int) -> PrecisionContext:
    """Precision context for the weighted stack ``[(weight, spec), ...]``
    that :func:`eval_series` takes: the least guard at which its
    certificate, planned at ``target_digits + guard``, certifies exactly 8
    digits past ``target_digits``.

    From guard 0 the guard rises by the digits the certificate falls short.
    A term count, and so the certificate in ulps, never falls as the scale
    grows, so one more guard digit adds at most one certified digit: no rise
    passes the least such guard, and none overshoots the 8 spare digits.
    """
    _check_int("target_digits", target_digits, 1)
    stack, guard = list(specs), 0
    while short := target_digits + 8 - guaranteed_digit_count(
        target_digits + guard, _certify(stack, target_digits + guard)[1]
    ):
        guard += short
    return PrecisionContext(target_digits, guard)
