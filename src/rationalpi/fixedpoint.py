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

A :class:`FixedPoint` has two constructors: the public, validating
``FixedPoint(sign, magnitude, scale)``, and the private :func:`_fixed`,
which skips the checks.  Only ``fx_add``, ``fx_mul_small`` and
``fx_div_small`` use the private one, because they run several times per
series term and their arithmetic on valid operands proves the invariants.
"""

from __future__ import annotations

from collections import namedtuple
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


class FixedPoint:
    """Immutable scaled integer: ``sign * magnitude * 10**(-scale)``.

    Zero is canonical: sign 0 and magnitude 0 together.

    There are two constructors.  ``FixedPoint(sign, magnitude, scale)``, and
    :meth:`from_int` and :meth:`from_scaled` through it, is the public one:
    it checks all four invariants (sign in {-1, 0, 1}, magnitude and scale
    non-negative, canonical zero) and raises :class:`ValueError` otherwise.
    :func:`_fixed` is the private one the ``fx_*`` operations build their
    results with: it skips the checks, because each caller's arithmetic
    already establishes them from valid operands.  Fields are read-only
    either way, and values compare and hash by their fields.
    """

    __slots__ = ("sign", "magnitude", "scale")

    def __init__(self, sign: int, magnitude: int, scale: int):
        if sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or 1, got {sign}")
        if magnitude < 0:
            raise ValueError("magnitude must be non-negative")
        if scale < 0:
            raise ValueError("scale must be non-negative")
        if (magnitude == 0) != (sign == 0):
            raise ValueError("zero must have sign 0 and magnitude 0, exactly")
        _set_sign(self, sign)
        _set_magnitude(self, magnitude)
        _set_scale(self, scale)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable FixedPoint")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable FixedPoint")

    def __reduce__(self):
        # copy and pickle rebuild through the validating constructor; the
        # default slot restore would assign fields and hit __setattr__
        return FixedPoint, (self.sign, self.magnitude, self.scale)

    def __eq__(self, other):
        if other.__class__ is not FixedPoint:
            return NotImplemented
        return (
            self.sign == other.sign
            and self.magnitude == other.magnitude
            and self.scale == other.scale
        )

    def __hash__(self):
        return hash((self.sign, self.magnitude, self.scale))

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

    def as_fraction(self) -> Fraction:
        """Exact rational value of the stored number."""
        return Fraction(self.signed_units, 10**self.scale)


# the slots' own setters, which the read-only __setattr__ does not intercept
_set_sign = FixedPoint.sign.__set__
_set_magnitude = FixedPoint.magnitude.__set__
_set_scale = FixedPoint.scale.__set__
_new = object.__new__


def _fixed(sign: int, magnitude: int, scale: int) -> FixedPoint:
    """A :class:`FixedPoint` built without the constructor's checks.

    Only for results whose invariants the caller's arithmetic proves; each
    call site says why.
    """
    value = _new(FixedPoint)
    _set_sign(value, sign)
    _set_magnitude(value, magnitude)
    _set_scale(value, scale)
    return value


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

    def __repr__(self):
        return f"ErrorLedger(ulps={self._ulps})"


class PrecisionContext(namedtuple("PrecisionContext", "target_digits guard_digits")):
    """Working precision: ``target_digits`` the caller wants certified plus
    ``guard_digits`` that absorb per-operation truncation error.

    Guard sizing rule: at least ``ceil(log10(op_count)) + 10`` for the
    planned number of error-charging operations; :meth:`for_op_count`
    applies it.  Ten is also the hard floor accepted here.  Every way of
    building one, ``_replace`` included, runs the checks.
    """

    __slots__ = ()

    MIN_GUARD = 10

    def __new__(cls, target_digits: int, guard_digits: int):
        if target_digits < 1:
            raise ValueError("target_digits must be positive")
        if guard_digits < cls.MIN_GUARD:
            raise ValueError(f"guard_digits must be at least {cls.MIN_GUARD}")
        return super().__new__(cls, target_digits, guard_digits)

    @classmethod
    def _make(cls, fields) -> "PrecisionContext":
        # the inherited _make, which _replace calls, would skip __new__
        return cls(*fields)

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


def fx_add(a: FixedPoint, b: FixedPoint) -> FixedPoint:
    """Exact sum; integer addition contributes no error.

    Magnitudes are added when the signs agree and the smaller is taken from
    the larger when they differ, so no whole integer is negated.  A zero
    operand returns the other one as is.
    """
    scale = a.scale
    if b.scale != scale:
        raise ScaleMismatchError(f"scales differ: {scale} vs {b.scale}")
    sign = a.sign
    if not b.sign:
        return a
    if not sign:
        return b
    if sign == b.sign:
        # both magnitudes positive, so the sum is positive under their sign
        return _fixed(sign, a.magnitude + b.magnitude, scale)
    if a.magnitude > b.magnitude:
        # a positive difference keeps the larger operand's sign
        return _fixed(sign, a.magnitude - b.magnitude, scale)
    if a.magnitude < b.magnitude:
        return _fixed(b.sign, b.magnitude - a.magnitude, scale)
    # equal magnitudes of opposite sign cancel to the canonical zero
    return _fixed(0, 0, scale)


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
        # flipping a valid sign keeps zero at sign 0
        return _fixed(-a.sign, a.magnitude, a.scale)
    if not m or not a.sign:
        return _fixed(0, 0, a.scale)
    # a nonzero magnitude times |m| >= 2 is positive; the sign is the product
    if m > 0:
        return _fixed(a.sign, a.magnitude * m, a.scale)
    return _fixed(-a.sign, a.magnitude * -m, a.scale)


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
    # the ledger's one ulp for this division, added in place
    ledger._ulps += 1
    shift = m.bit_length() - 1
    if m == 1 << shift:
        magnitude = a.magnitude >> shift
    else:
        magnitude = a.magnitude // m
    # a floor of a non-negative magnitude is non-negative; a zero quotient
    # takes sign 0, any other keeps the dividend's sign
    return _fixed(a.sign if magnitude else 0, magnitude, a.scale)


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
