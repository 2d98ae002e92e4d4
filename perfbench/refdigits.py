"""Reference digits for the benchmark, independent of the package.

Pi comes from the Chudnovsky series by binary splitting with
``math.isqrt``; arctan(1/3) and arctan(1/7) from the Gregory series on
plain integers.  Nothing here imports ``rationalpi``.  Each value is held as
an integer ``A`` with ``|A - value * 10**N| <= E`` and a digit prefix is
handed out only when ``A - E`` and ``A + E`` truncate to the same prefix,
so a reference string is certified the same way the program's output is.
"""

from __future__ import annotations

import math

GUARD = 30
TARGETS = ("pi", "atan1", "atan1/3", "atan1/7")

# decimal conversion in fixed chunks, so no interpreter-wide
# int-to-str limit has to be raised for 20k-digit values
_CHUNK = 4000
_CHUNK_POW = 10**_CHUNK


def int_to_decimal(n: int) -> str:
    """``str(n)`` for any non-negative int, without the int-to-str cap."""
    parts = []
    while n >= _CHUNK_POW:
        n, low = divmod(n, _CHUNK_POW)
        parts.append(str(low).zfill(_CHUNK))
    parts.append(str(n))
    return "".join(reversed(parts))


def pi_scaled(n: int) -> tuple[int, int]:
    """``(A, E)`` with ``|A - pi * 10**n| <= E``, by Chudnovsky."""
    c3_24 = 640320**3 // 24

    def split(a: int, b: int) -> tuple[int, int, int]:
        if b - a == 1:
            if a == 0:
                p = q = 1
            else:
                p = (6 * a - 5) * (2 * a - 1) * (6 * a - 1)
                q = a * a * a * c3_24
            t = p * (13591409 + 545140134 * a)
            return p, q, -t if a & 1 else t
        m = (a + b) // 2
        p1, q1, t1 = split(a, m)
        p2, q2, t2 = split(m, b)
        return p1 * p2, q1 * q2, q2 * t1 + p1 * t2

    terms = n // 14 + 2  # each term adds a little over 14 digits
    _, q, t = split(0, terms)
    one = 10**n
    sqrt_c = math.isqrt(10005 * one * one)  # floor, error below one unit
    # pi = 426880 * sqrt(10005) * Q / T; d(pi)/d(sqrt) < 1, plus the floor
    return (426880 * sqrt_c * q) // t, 2


def atan_inv_scaled(m: int, n: int) -> tuple[int, int]:
    """``(A, E)`` with ``|A - arctan(1/m) * 10**n| <= E``, by Gregory.

    The running power is low by less than ``1/(1 - 1/m**2) <= 9/8`` units,
    so each term is off by under 3 units, and the remainder after the last
    nonzero power is below 2 units.
    """
    power = 10**n // m
    total, k, m2 = 0, 0, m * m
    while power:
        term = power // (2 * k + 1)
        total += -term if k & 1 else term
        power //= m2
        k += 1
    return total, 3 * k + 2


class Reference:
    """Certified truncated digit strings of the benchmark's four targets."""

    def __init__(self):
        self._values: dict[str, tuple[int, int, int]] = {}

    def ensure(self, target: str, digits: int) -> tuple[int, int, int]:
        """``(A, N, E)`` for ``target`` with ``N >= digits + GUARD``."""
        if target not in TARGETS:
            raise ValueError(f"unknown reference target {target!r}")
        held = self._values.get(target)
        if held is None or held[1] < digits + GUARD:
            n = digits + GUARD
            if target == "pi":
                a, e = pi_scaled(n)
            elif target == "atan1":
                a, e = pi_scaled(n)
                a, e = a // 4, (e + 3) // 4 + 1
            else:
                a, e = atan_inv_scaled(int(target.split("/")[1]), n)
            held = self._values[target] = (a, n, e)
        return held

    def scaled(self, target: str, digits: int) -> tuple[int, int]:
        """``(A, E)`` with ``|A - value * 10**digits| <= E`` exactly at ``digits``."""
        a, n, e = self.ensure(target, digits)
        shift = 10 ** (n - digits)
        return a // shift, -(-e // shift) + 1

    def truncated(self, target: str, digits: int) -> str:
        """``value`` truncated to ``digits`` fractional digits, as the CLI prints it."""
        a, n, e = self.ensure(target, digits)
        shift = 10 ** (n - digits)
        prefix = (a - e) // shift
        if prefix != (a + e) // shift:
            raise ArithmeticError(f"{target} reference cannot pin {digits} digits")
        body = int_to_decimal(prefix).zfill(digits + 1)
        return f"{body[:-digits]}.{body[-digits:]}" if digits else body

    def self_check(self, digits: int) -> None:
        """Cross-check the two independent methods: 2*atan(1/3) + atan(1/7)
        = pi/4 (Hutton), with Chudnovsky on one side and Gregory on the other."""
        p, ep = self.scaled("pi", digits)
        a3, e3 = self.scaled("atan1/3", digits)
        a7, e7 = self.scaled("atan1/7", digits)
        if abs(4 * (2 * a3 + a7) - p) > 4 * (2 * e3 + e7) + ep:
            raise ArithmeticError("reference methods disagree")
