"""Decimal fixed-point values with worst-case error accounting.

A value is ``signed_units * 10**(-scale)`` where the units are an
arbitrary-size signed integer and the scale counts decimal fractional
digits.  Exact sums and small multiples are plain ``int`` arithmetic on the
units.  The one operation here, :func:`fx_div_small`, divides by a small
positive integer and floors, so it loses less than one unit in the last
place (ulp).  The layer counts no error itself: the
evaluator's certificate in :mod:`rationalpi.series` bounds
``|stored - true|``, and :func:`fx_to_decimal_string` takes that bound as an
:class:`ErrorLedger` to certify every digit it emits.

All operands of one computation share a single scale, fixed up front by a
:class:`PrecisionContext`.

The records are named tuples whose constructor, which ``_replace``, copy
and pickle all go through, holds each field to one rule, as the functions
hold the integers their callers pass: exactly an ``int``, else
:class:`TypeError`, and at least its bound if it has one, else
:class:`ValueError`.
"""

from collections import namedtuple
from decimal import Decimal

__all__ = [
    "FixedPoint",
    "ErrorLedger",
    "PrecisionContext",
    "InsufficientPrecisionError",
    "BoundaryStraddleError",
    "fx_div_small",
    "fx_to_decimal_string",
    "guaranteed_digit_count",
]


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


def _check_int(name: str, value, least: int | None = None) -> None:
    """The one rule for a checked integer: exactly an ``int``, so not a
    ``bool`` or a ``float``, and at least ``least`` if given."""
    if type(value) is not int:
        raise TypeError(f"{name} must be an int, got {type(value).__name__}")
    if least is not None and value < least:
        raise ValueError(f"{name} must be at least {least}, got {value}")


class _Checked:
    """Base of the named-tuple records whose ``__new__`` checks each field
    against its bound in the class's ``_least`` (``None`` for no bound),
    listed first so its ``_make`` replaces the inherited one, which
    ``_replace`` calls and which would skip ``__new__``."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        record = super().__new__(cls, *args, **kwargs)
        for name, value, least in zip(cls._fields, record, cls._least):
            _check_int(name, value, least)
        return record

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class FixedPoint(_Checked, namedtuple("FixedPoint", "signed_units scale")):
    """Immutable scaled integer: ``signed_units * 10**(-scale)``.

    Every way of building one except :func:`_fixed` runs the constructor,
    which checks that both fields are ``int`` and the scale is not negative.
    :func:`fx_div_small` builds its results with :func:`_fixed`, which skips
    the checks: it runs once or twice per series term, and a floor of a
    valid operand keeps them.  Fields are read-only, and a value equals and
    hashes as its field tuple ``(signed_units, scale)``.
    """

    __slots__ = ()
    _least = (None, 0)

    # a value is a number, not a sequence: tuple concatenation, repetition
    # and lexicographic order would answer silently and wrongly, so these
    # raise TypeError instead; arithmetic acts on signed_units
    __add__ = __mul__ = __rmul__ = __lt__ = __le__ = __gt__ = __ge__ = None

    def __repr__(self):
        # Decimal renders without the interpreter's int-to-str digit cap
        return f"FixedPoint(signed_units={Decimal(self.signed_units)}, scale={self.scale})"


def _fixed(signed_units: int, scale: int) -> FixedPoint:
    """A :class:`FixedPoint` built without the constructor's checks, for
    results of ``int`` arithmetic on valid operands at the operands' scale."""
    return tuple.__new__(FixedPoint, (signed_units, scale))


class ErrorLedger(_Checked, namedtuple("ErrorLedger", "ulps", defaults=(0,))):
    """Worst-case error of one stored value, counted in ulps: an
    evaluation's certificate, as :func:`fx_to_decimal_string` reads it.
    Checked like the other records: the count is an ``int`` of 0 or more."""

    __slots__ = ()
    _least = (0,)


class PrecisionContext(_Checked, namedtuple("PrecisionContext", "target_digits guard_digits")):
    """Working precision: ``target_digits`` the caller wants certified plus
    ``guard_digits`` that hold the certificate below the target's last place.

    :func:`rationalpi.series.context_for` sizes the guard from the
    evaluator's certificate, the package's one error rule.  Any guard of 0
    or more is accepted here: a context too small for its target is refused
    from that same certificate.  Every way of building one,
    ``_replace`` included, runs the checks.
    """

    __slots__ = ()
    _least = (1, 0)

    @property
    def scale(self) -> int:
        return self.target_digits + self.guard_digits


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


def fx_div_small(a: FixedPoint, m: int) -> FixedPoint:
    """Divide by a small positive integer, flooring: ``signed_units // m``.

    The stored quotient lies below the exact one by less than one ulp, which
    :func:`rationalpi.series.eval_series` counts in its certificate.  A
    power of two ``m == 2**s`` divides by ``signed_units >> s``, which
    floors too and skips long division.  The test builds one ``2**s`` to
    compare with ``m``; ``m & (m - 1)`` would build two integers as large as
    ``m`` with a borrow across them.
    """
    if type(m) is not int or m < 1:
        _check_int("m", m)
        if m == 0:
            raise ZeroDivisionError("division by zero")
        raise ValueError("divisor must be positive")
    shift = m.bit_length() - 1
    if m == 1 << shift:
        return _fixed(a.signed_units >> shift, a.scale)
    return _fixed(a.signed_units // m, a.scale)


def fx_to_decimal_string(a: FixedPoint, ledger: ErrorLedger, want_digits: int) -> str:
    """Decimal expansion truncated to ``want_digits`` fractional digits,
    with every emitted digit certified against the ledger.

    Raises :class:`InsufficientPrecisionError` when the ledger cannot cover
    the request, and :class:`BoundaryStraddleError` when the certified
    interval ``value +- ulps`` does not pin down a unique digit prefix.
    """
    _check_int("want_digits", want_digits, 0)
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
