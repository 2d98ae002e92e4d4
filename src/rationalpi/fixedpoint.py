"""Exact decimal fixed-point arithmetic with worst-case error accounting.

A value is ``sign * magnitude * 10**(-scale)`` where the magnitude is an
arbitrary-size non-negative integer and the scale counts decimal fractional
digits.  Addition and multiplication by a small integer are exact.  Division
by a small positive integer truncates toward zero and charges one unit in
the last place (ulp) to an :class:`ErrorLedger`; the ledger total is a sound
upper bound on ``|stored - true|``, which is what lets
:func:`fx_to_decimal_string` certify every digit it emits.

All operands of one computation share a single scale, fixed up front by a
:class:`PrecisionContext`.  Mixing scales raises instead of rescaling, so
there is no hidden rounding anywhere in the layer.
"""

from __future__ import annotations

from dataclasses import dataclass
from decimal import Decimal
from fractions import Fraction

__all__ = [
    "FixedPoint",
    "ErrorLedger",
    "PrecisionContext",
    "ScaleMismatchError",
    "InsufficientPrecisionError",
    "BoundaryStraddleError",
    "fx_add",
    "fx_mul_small",
    "fx_div_small",
    "fx_to_decimal_string",
    "guaranteed_digit_count",
]


class ScaleMismatchError(ValueError):
    """Operands of a single operation carry different scales."""


class InsufficientPrecisionError(ValueError):
    """More digits were requested than the error ledger can certify."""

    def __init__(self, requested: int, guaranteed: int):
        self.requested = requested
        self.guaranteed = guaranteed
        super().__init__(
            f"cannot certify {requested} digits; only {guaranteed} are guaranteed "
            f"at the current scale and error level"
        )


class BoundaryStraddleError(ArithmeticError):
    """The certified interval spans a digit boundary (e.g. 0.4999/0.5000),
    so no digit prefix of the requested length can be emitted honestly."""


@dataclass(frozen=True, repr=False)
class FixedPoint:
    """Immutable scaled integer: ``sign * magnitude * 10**(-scale)``.

    Zero is canonical: sign 0 and magnitude 0 together.
    """

    sign: int
    magnitude: int
    scale: int

    def __post_init__(self):
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {self.sign}")
        if self.magnitude < 0:
            raise ValueError("magnitude must be non-negative")
        if self.scale < 0:
            raise ValueError("scale must be non-negative")
        if (self.magnitude == 0) != (self.sign == 0):
            raise ValueError("zero must have sign 0 and magnitude 0, exactly")

    @classmethod
    def from_int(cls, n: int, scale: int) -> "FixedPoint":
        """The integer ``n`` represented exactly at the given scale."""
        return cls.from_scaled(n * 10**scale, scale)

    @classmethod
    def from_scaled(cls, units: int, scale: int) -> "FixedPoint":
        """Build from a signed count of ulps (``units * 10**-scale``)."""
        if units > 0:
            return cls(1, units, scale)
        if units < 0:
            return cls(-1, -units, scale)
        return cls(0, 0, scale)

    def __repr__(self):
        # Decimal renders without the interpreter's int-to-str digit cap
        return (
            f"FixedPoint(sign={self.sign}, magnitude={Decimal(self.magnitude)}, "
            f"scale={self.scale})"
        )

    @property
    def signed_units(self) -> int:
        # a negation, not a multiply by the sign: no limb-by-limb product
        return -self.magnitude if self.sign < 0 else self.magnitude

    def is_zero(self) -> bool:
        return self.sign == 0

    def as_fraction(self) -> Fraction:
        """Exact rational value of the stored number."""
        return Fraction(self.signed_units, 10**self.scale)


class ErrorLedger:
    """Accumulated worst-case error of one computation, counted in ulps.

    The count is monotone non-decreasing: truncating divisions charge one
    ulp each.  Multiplying a tracked value by ``m`` is exact but scales
    whatever error it already carries by ``|m|``; callers that multiply
    account for that in the ulps they carry forward.
    """

    __slots__ = ("_ulps",)

    def __init__(self, ulps: int = 0):
        if ulps < 0:
            raise ValueError("ulps must be non-negative")
        self._ulps = ulps

    @property
    def ulps(self) -> int:
        return self._ulps

    def charge(self, n: int = 1) -> None:
        """Add ``n`` ulps of worst-case error."""
        if n < 0:
            raise ValueError("cannot remove accumulated error")
        self._ulps += n

    def __repr__(self):
        return f"ErrorLedger(ulps={self._ulps})"


@dataclass(frozen=True)
class PrecisionContext:
    """Working precision: ``target_digits`` the caller wants certified plus
    ``guard_digits`` that absorb per-operation truncation error.

    Guard sizing rule: at least ``ceil(log10(op_count)) + 10`` for the
    planned number of error-charging operations; :meth:`for_op_count`
    applies it.  Ten is also the hard floor accepted here.
    """

    MIN_GUARD = 10

    target_digits: int
    guard_digits: int

    def __post_init__(self):
        if self.target_digits < 1:
            raise ValueError("target_digits must be positive")
        if self.guard_digits < self.MIN_GUARD:
            raise ValueError(f"guard_digits must be at least {self.MIN_GUARD}")

    @property
    def scale(self) -> int:
        return self.target_digits + self.guard_digits

    @classmethod
    def for_op_count(cls, target_digits: int, op_count: int) -> "PrecisionContext":
        """Context whose guard covers ``op_count`` one-ulp error charges."""
        guard = _ceil_log10(max(op_count, 1)) + 10
        return cls(target_digits, guard)


def _ceil_log10(n: int) -> int:
    """Smallest k with 10**k >= n, for n >= 1."""
    k, p = 0, 1
    while p < n:
        p *= 10
        k += 1
    return k


def guaranteed_digit_count(scale: int, ulps: int) -> int:
    """Fractional digits certified correct by an error of ``ulps`` at ``scale``.

    One digit is forfeited beyond the error's own decade so that the
    uncertainty never reaches the last certified place.
    """
    return max(0, scale - _ceil_log10(ulps + 1) - 1)


def _require_same_scale(a: FixedPoint, b: FixedPoint) -> None:
    if a.scale != b.scale:
        raise ScaleMismatchError(f"scales differ: {a.scale} vs {b.scale}")


def fx_add(a: FixedPoint, b: FixedPoint) -> FixedPoint:
    """Exact sum; integer addition contributes no error."""
    _require_same_scale(a, b)
    return FixedPoint.from_scaled(a.signed_units + b.signed_units, a.scale)


def fx_mul_small(a: FixedPoint, m: int) -> FixedPoint:
    """Exact product with a small integer; contributes no new error.

    Any error already accumulated against ``a`` scales by ``|m|``; callers
    tracking an error bound across the multiply must scale it themselves.
    Multiplying by 1 or -1 copies no digits: the operand comes back as is
    or with its sign flipped.
    """
    if m == 1:
        return a
    if m == -1:
        return FixedPoint(-a.sign, a.magnitude, a.scale)
    return FixedPoint.from_scaled(a.signed_units * m, a.scale)


def fx_div_small(a: FixedPoint, m: int, ledger: ErrorLedger) -> FixedPoint:
    """Divide by a small positive integer, truncating toward zero.

    Charges exactly one ulp to the ledger per call, even for ``m == 1``:
    the flat rule is what keeps the ledger a closed-form upper bound.
    A power of two ``m == 2**s`` divides by ``magnitude >> s``, which equals
    ``magnitude // m`` for the non-negative magnitude and skips long division.
    The test builds one ``2**s`` to compare with ``m``; ``m & (m - 1)``
    would build two integers as large as ``m`` with a borrow across them.
    """
    if m == 0:
        raise ZeroDivisionError("division by zero")
    if m < 0:
        raise ValueError("divisor must be positive")
    ledger.charge(1)
    shift = m.bit_length() - 1
    if m == 1 << shift:
        magnitude = a.magnitude >> shift
    else:
        magnitude = a.magnitude // m
    return FixedPoint(a.sign if magnitude else 0, magnitude, a.scale)


def fx_to_decimal_string(a: FixedPoint, ledger: ErrorLedger, want_digits: int) -> str:
    """Decimal expansion truncated to ``want_digits`` fractional digits,
    with every emitted digit certified against the ledger.

    Raises :class:`InsufficientPrecisionError` when the ledger cannot cover
    the request, and :class:`BoundaryStraddleError` when the certified
    interval ``value +- ulps`` does not pin down a unique digit prefix.
    """
    if want_digits < 0:
        raise ValueError("want_digits must be non-negative")
    guaranteed = guaranteed_digit_count(a.scale, ledger.ulps)
    if want_digits > guaranteed:
        raise InsufficientPrecisionError(want_digits, guaranteed)

    units = a.signed_units
    lo, hi = units - ledger.ulps, units + ledger.ulps
    shift = 10 ** (a.scale - want_digits)
    if lo >= 0:
        prefix_lo, prefix_hi = lo // shift, hi // shift
        negative = False
    elif hi <= 0:
        # mirror: truncation of the expansion acts on magnitudes
        prefix_lo, prefix_hi = (-hi) // shift, (-lo) // shift
        negative = True
    else:
        raise BoundaryStraddleError(
            "certified interval spans zero; sign itself is uncertain"
        )
    if prefix_lo != prefix_hi:
        raise BoundaryStraddleError(
            f"certified interval spans a digit boundary at {want_digits} digits"
        )

    # Decimal renders without the interpreter's int-to-str digit cap
    body = str(Decimal(prefix_lo))
    if want_digits:
        body = body.zfill(want_digits + 1)
        body = f"{body[:-want_digits]}.{body[-want_digits:]}"
    return f"-{body}" if negative else body
