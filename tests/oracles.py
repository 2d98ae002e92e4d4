"""Exact-rational reference values for the test suite.

Everything here uses ``fractions.Fraction`` and plain integers only and
shares no code with the package under test.  Alternating partial sums give
rigorous two-sided brackets, so every digit string or bound produced here
is certified by construction.
"""

from __future__ import annotations

from fractions import Fraction


def exact_value(value) -> Fraction:
    """Exact rational value of a stored fixed-point number, read from its
    ``signed_units`` and ``scale`` alone."""
    return Fraction(value.signed_units, 10**value.scale)


def atan_bracket(x: Fraction, digits: int) -> tuple[Fraction, Fraction]:
    """Rigorous bracket of arctan(x) tighter than 10**-(digits+5).

    Consecutive partial sums of the alternating odd-power series enclose
    the limit; requires 0 < x <= 1/2 so convergence is geometric.
    """
    assert 0 < x <= Fraction(1, 2)
    eps = Fraction(1, 10 ** (digits + 5))
    total = Fraction(0)
    power = x
    x_squared = x * x
    k = 0
    while True:
        term = power / (2 * k + 1)
        signed = -term if k & 1 else term
        if term < eps:
            lo, hi = sorted((total, total + signed))
            return lo, hi
        total += signed
        power *= x_squared
        k += 1


def atan_recip_bracket(n: int, digits: int) -> tuple[Fraction, Fraction]:
    return atan_bracket(Fraction(1, n), digits)


def pi_bracket(digits: int) -> tuple[Fraction, Fraction]:
    """Bracket of pi via 16*arctan(1/5) - 4*arctan(1/239)."""
    lo5, hi5 = atan_recip_bracket(5, digits + 2)
    lo239, hi239 = atan_recip_bracket(239, digits + 2)
    return 16 * lo5 - 4 * hi239, 16 * hi5 - 4 * lo239


def atan_one_bracket(digits: int) -> tuple[Fraction, Fraction]:
    """arctan(1) = pi/4, via the Machin bracket (the direct series at 1 is
    uselessly slow)."""
    lo, hi = pi_bracket(digits)
    return lo / 4, hi / 4


def truncated_digits(bracket: tuple[Fraction, Fraction], digits: int) -> str:
    """Decimal expansion of the bracketed positive value, truncated to
    ``digits`` fractional digits; fails if the bracket cannot pin it down."""
    lo, hi = bracket
    assert lo > 0
    shift = 10**digits
    prefix_lo = (lo.numerator * shift) // lo.denominator
    prefix_hi = (hi.numerator * shift) // hi.denominator
    assert prefix_lo == prefix_hi, "bracket too wide for the requested digits"
    body = str(prefix_lo).zfill(digits + 1)
    if digits == 0:
        return body
    return f"{body[:-digits]}.{body[-digits:]}"


def case_target_bracket(case: str, digits: int) -> tuple[Fraction, Fraction]:
    """Bracket of arctan(x/(2-x)) for x in {'1', '1/2', '1/4'}."""
    if case == "1":
        return atan_one_bracket(digits)
    if case == "1/2":
        return atan_recip_bracket(3, digits)
    if case == "1/4":
        return atan_recip_bracket(7, digits)
    raise ValueError(case)


# --- the series family, re-derived from raw parameters -----------------------


def series_term(
    pn: int, pd: int, offset: int, step: int, q_den: int, k: int
) -> Fraction:
    """Signed k-th term of (pn/pd) * sum (-1)^k q^k / (offset + step*k)."""
    magnitude = Fraction(pn, pd * q_den**k * (offset + step * k))
    return -magnitude if k & 1 else magnitude


def series_partial_sum(
    pn: int, pd: int, offset: int, step: int, q_den: int, n_terms: int
) -> Fraction:
    return sum(
        (series_term(pn, pd, offset, step, q_den, k) for k in range(n_terms)),
        Fraction(0),
    )


def series_bracket(
    pn: int, pd: int, offset: int, step: int, q_den: int, n_terms: int
) -> tuple[Fraction, Fraction]:
    """Bracket of the full series value after ``n_terms`` terms."""
    partial = series_partial_sum(pn, pd, offset, step, q_den, n_terms)
    following = series_term(pn, pd, offset, step, q_den, n_terms)
    return tuple(sorted((partial, partial + following)))


def brute_terms_needed(
    pn: int, pd: int, offset: int, step: int, q_den: int, target_digits: int
) -> int:
    """Linear scan for the smallest N with |term_N| < 10**-target_digits.

    |term_N| = pn / (pd * q_den^N * (offset + step*N)), so the test is
    ``pn * 10^target_digits < pd * q_den^N * (offset + step*N)`` in plain
    integers, with ``pd * q_den^N`` stepped by one multiply per term.
    """
    lhs = pn * 10**target_digits
    scaled = pd
    n = 0
    while lhs >= scaled * (offset + step * n):
        scaled *= q_den
        n += 1
    return n


def block_cuts(offset: int, step: int, n_terms: int, target_bits: int) -> list[tuple[int, int]]:
    """Blocks ``[lo, hi)`` over ``range(n_terms)``: a block takes terms
    until it holds two or more and the bit lengths of its denominators
    ``offset + step*k`` add up to ``target_bits`` or more; the last block
    takes whatever is left."""
    cuts = []
    lo = 0
    while lo < n_terms:
        hi = lo
        bits = 0
        while hi < n_terms and (hi - lo < 2 or bits < target_bits):
            bits += (offset + step * hi).bit_length()
            hi += 1
        cuts.append((lo, hi))
        lo = hi
    return cuts


def stack_floor_sum(
    stack: list[tuple[int, tuple[int, int, int, int, int]]], scale: int
) -> tuple[int, int, tuple[int, ...]]:
    """Plain-integer value, certificate and term counts of a weighted stack
    of ``(weight, (pn, pd, offset, step, q_den))`` series at ``scale``.

    Series i sums ``N_i = max(1, brute_terms_needed(..., scale))`` terms.
    With ``pn = 1`` and a power-of-two ``pd * q_den``, each term is
    truncated to ``floor(pn * 10^scale / (pd * q_den^k * d_k))`` ulps.  Any
    other series is cut by :func:`block_cuts` at three quarters of the bit
    length of ``pn * 10^scale``, and each block is its exact ``Fraction``
    sum truncated toward zero.  Returns ``sum(w * stored_i)``,
    ``sum(|w| * (ceil(N_i/2) + 1))`` and the ``N_i``.
    """
    value = certificate = 0
    counts = []
    for weight, (pn, pd, offset, step, q_den) in stack:
        n = max(1, brute_terms_needed(pn, pd, offset, step, q_den, scale))
        numerator = pn * 10**scale
        partial = 0
        if pn == 1 and (pd * q_den) & (pd * q_den - 1) == 0:
            for k in range(n):
                term = numerator // (pd * q_den**k * (offset + step * k))
                partial += -term if k & 1 else term
        else:
            for lo, hi in block_cuts(offset, step, n, 3 * numerator.bit_length() // 4):
                exact = sum(
                    (series_term(pn, pd, offset, step, q_den, k) for k in range(lo, hi)),
                    Fraction(0),
                ) * 10**scale
                # int() truncates toward zero, the block's sign is kept
                partial += int(exact)
        value += weight * partial
        certificate += abs(weight) * (-(-n // 2) + 1)
        counts.append(n)
    return value, certificate, tuple(counts)
