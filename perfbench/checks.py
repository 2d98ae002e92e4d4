"""Correctness checks of one request's output against the reference.

Each check returns ``None`` when the output is right and a one-line reason
otherwise.  Digits are compared with :class:`refdigits.Reference`; the
``compare`` table's term counts with an independent linear search over the
defining inequality; ``verify`` must report its five checks as passed.
"""

from __future__ import annotations

import csv
import io
import json

from refdigits import Reference
from workgen import REFERENCE_TARGET, Request

# compare rows as (method, prefactor_num, prefactor_den, offset, step, q_den):
# the leading series of each route, the 1/3-ratio rate model and Machin's pair
_COMPARE_SERIES = {
    "sharp_model": [(1, 1, 1, 2, 3)],
    "euler_x1": [(1, 2, 1, 4, 4)],
    "euler_x_half": [(1, 4, 1, 4, 64)],
    "euler_x_quarter": [(1, 8, 1, 4, 1024)],
    "machin": [(1, 5, 1, 2, 25), (1, 239, 1, 2, 57121)],
}
_COMPARE_METHODS = ("leibniz", *_COMPARE_SERIES)
_VERIFY_LINES = 5  # factorization, identity, three route pairs


def min_terms(pn: int, pd: int, offset: int, step: int, q_den: int, digits: int) -> int:
    """Smallest N with ``(pn/pd) / (q_den**N * (offset + step*N)) < 10**-digits``."""
    bound = pn * 10**digits
    scaled = pd
    n = 0
    while bound >= scaled * (offset + step * n):
        scaled *= q_den
        n += 1
    return n


def expected_compare_terms(digits: int) -> dict[str, str]:
    expected = {"leibniz": "~5" if digits == 1 else f"~5e{digits - 1}"}
    for method, series in _COMPARE_SERIES.items():
        expected[method] = str(sum(min_terms(*s, digits) for s in series))
    return expected


def _check_compare(req: Request, stdout: str) -> str | None:
    if req.fmt == "json":
        payload = json.loads(stdout)
        if payload.get("target_digits") != req.digits:
            return "compare: wrong target_digits"
        got = {
            row["method"]: str(
                row["terms_for_target"]
                if row["terms_for_target"] is not None
                else row["symbolic_terms"]
            )
            for row in payload["rows"]
        }
        order = [row["method"] for row in payload["rows"]]
    else:
        rows = list(csv.DictReader(io.StringIO(stdout)))
        got = {row["method"]: row["terms_for_target"] for row in rows}
        order = [row["method"] for row in rows]
    if tuple(order) != _COMPARE_METHODS:
        return f"compare: rows {order}"
    expected = expected_compare_terms(req.digits)
    for method, terms in expected.items():
        if got[method] != terms:
            return f"compare: {method} terms {got[method]} != {terms}"
    return None


def check_value(req: Request, value: str, ref: Reference) -> str | None:
    """A rendered digit string against the reference truncation."""
    want = ref.truncated(REFERENCE_TARGET[req.kind], req.digits)
    if value == want:
        return None
    if len(value) != len(want):
        return f"{req.kind}: {len(value)} characters, want {len(want)}"
    first = next(i for i, (a, b) in enumerate(zip(value, want)) if a != b)
    return f"{req.kind}: wrong digit at position {first}"


def check_cli(req: Request, code: int, stdout: str, ref: Reference) -> str | None:
    """One ``python -m rationalpi`` request: exit code and printed output."""
    if code != 0:
        return f"{req.kind}: exit code {code}"
    try:
        if req.kind == "verify":
            lines = stdout.splitlines()
            if len(lines) != _VERIFY_LINES or not all(l.startswith("PASS ") for l in lines):
                return "verify: not every check passed"
            return None
        if req.kind == "compare":
            return _check_compare(req, stdout)
        if req.fmt == "json":
            report = json.loads(stdout)
            if report.get("requested_digits") != req.digits:
                return f"{req.kind}: wrong requested_digits"
            if report.get("guaranteed_digits", -1) < req.digits:
                return f"{req.kind}: guaranteed_digits below the request"
            return check_value(req, report.get("value", ""), ref)
        if not stdout.endswith("\n") or stdout.count("\n") != 1:
            return f"{req.kind}: output is not one line"
        return check_value(req, stdout[:-1], ref)
    except (ValueError, KeyError, TypeError) as exc:  # unparseable output
        return f"{req.kind}: malformed output ({exc.__class__.__name__})"
