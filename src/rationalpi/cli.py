"""Command-line surface: pi digits, arctangent values, verification,
convergence comparison and a small benchmark.

Digits are counted after the decimal point for every subcommand.  Plain
output is the bare digit string; ``--json`` emits the full report (schema
version 1) with ``elapsed_ms`` as the only timing field, so everything
else is byte-reproducible across runs.

Every subcommand takes ``--digits`` from 1 to ``DEFAULT_MAX_DIGITS``: its
argparse type refuses any other value before planning, so every request
has a bounded cost.  ``bench`` times one request per route: the plan,
evaluate and render span that ``--json`` reports as ``elapsed_ms``.

Exit codes: 0 success, 1 verification or precision failure, 2 argument
error, 3 standard output could not be written (a closed pipe, a full
device or a closed stdout).
"""

import argparse
import os
import sys
import time
from decimal import Decimal

from .fixedpoint import (
    BoundaryStraddleError,
    ErrorLedger,
    InsufficientPrecisionError,
    fx_to_decimal_string,
)
from .formulas import (
    EvalResult,
    PiFormulaId,
    compute_pi,
    compare_convergence,
    context_for_case,
    context_for_formula,
    context_for_verify,
    cross_formula_agreement,
    sun,
    verify_factorization,
)
from .series import CaseId

DEFAULT_MAX_DIGITS = 100_000
JSON_SCHEMA_VERSION = 1


def _digits(text: str) -> int:
    """The argparse type of ``--digits``: an integer from 1 to
    ``DEFAULT_MAX_DIGITS``."""
    try:
        if 1 <= (value := int(text)) <= DEFAULT_MAX_DIGITS:
            return value
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(f"not an integer from 1 to {DEFAULT_MAX_DIGITS}: {text!r}")


def _refuse(status: int, message: str) -> None:
    """Print ``message`` to stderr and exit with ``status``: 2 for an
    argument error, 1 for a route disagreement or a precision failure, 3
    for a closed stdout."""
    print(message, file=sys.stderr)
    raise SystemExit(status)


def _first_difference(*texts: str) -> int:
    """Index of the first place where the ``texts`` differ."""
    return next(i for i, chars in enumerate(zip(*texts)) if len(set(chars)) > 1)


def _request(key, digits: int, plan, evaluate) -> tuple[EvalResult, str, float]:
    """Plan, evaluate and render one value: the result, its certified digits
    and the milliseconds the three took.  Callers pass ``plan`` and
    ``evaluate`` from this module's bindings at each call, so a wrapper
    bound in their place sees every request."""
    t0 = time.perf_counter()
    result = evaluate(key, plan(key, digits))
    value = fx_to_decimal_string(result.value, ErrorLedger(result.error_ulps), digits)
    return result, value, (time.perf_counter() - t0) * 1000


def _value_command(args: argparse.Namespace, method: str, key, plan, evaluate) -> int:
    """Print the digits of one :func:`_request` or its schema-1 JSON report."""
    result, value, elapsed_ms = _request(key, args.digits, plan, evaluate)
    if args.json:
        # imported on the JSON paths only: plain output never needs it
        import json

        value = json.dumps({
            "schema": JSON_SCHEMA_VERSION,
            "method": method,
            "requested_digits": args.digits,
            "guaranteed_digits": result.guaranteed_digits,
            "terms_used": list(result.component_terms),
            "error_ulps": result.error_ulps,
            "elapsed_ms": int(elapsed_ms),
            "value": value,
        })
    print(value)
    return 0


def cmd_pi(args: argparse.Namespace) -> int:
    return _value_command(args, args.method, PiFormulaId(args.method), context_for_formula,
                          compute_pi)


def cmd_arctan(args: argparse.Namespace) -> int:
    return _value_command(args, f"arctan case {args.case}", CaseId(args.case), context_for_case,
                          sun)


def cmd_verify(args: argparse.Namespace) -> int:
    ctx = context_for_verify(args.digits)
    factorization = verify_factorization()
    identity, agreements = cross_formula_agreement(ctx)
    # Decimal prints ulp counts past the interpreter's int-to-str digit cap
    lines = [
        ("factorization 4+x^4", factorization.passed,
         f"coefficients {factorization.coefficients}"),
        ("arctan identity", identity.passed,
         f"residual {Decimal(identity.residual_ulps)} ulps <= bound "
         f"{Decimal(identity.bound_ulps)} ulps (scale {identity.scale})"),
        *((f"pi {check.first} vs {check.second}", check.passed,
           f"diff {Decimal(check.diff_ulps)} ulps <= bound {Decimal(check.bound_ulps)} ulps")
          for check in agreements),
    ]
    for name, passed, detail in lines:
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return 0 if all(passed for _, passed, _ in lines) else 1


_COMPARE_COLUMNS = ("method", "ratio", "terms_per_digit", "terms_for_target", "notes")


def _row_cells(row) -> list[str]:
    terms = str(row.terms_for_target) if row.terms_for_target is not None else (
        row.symbolic_terms or ""
    )
    per_digit = f"~{row.terms_per_digit:.3f}" if row.terms_per_digit is not None else "-"
    return [row.method, row.ratio, per_digit, terms, row.notes]


def cmd_compare(args: argparse.Namespace) -> int:
    rows = compare_convergence(args.digits)
    if args.format == "json":
        import json

        payload = {"schema": JSON_SCHEMA_VERSION, "target_digits": args.digits,
                   "rows": [row._asdict() for row in rows]}
        print(json.dumps(payload))
        return 0
    cells = [_row_cells(row) for row in rows]
    if args.format == "csv":
        # imported on the CSV path only, as json is on the JSON paths
        import csv

        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerow(_COMPARE_COLUMNS)
        writer.writerows(cells)
        return 0
    widths = [max(map(len, column)) for column in zip(_COMPARE_COLUMNS, *cells)]
    for row_cells in (_COMPARE_COLUMNS, *cells):
        print("  ".join(cell.ljust(width) for cell, width in zip(row_cells, widths)).rstrip())
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    """Time one request of every pi route, the span ``--json`` reports as
    ``elapsed_ms``, printing the times only once the certified digits of all
    routes agree: a fast wrong answer must not look like a win."""
    runs = {formula_id.value: _request(formula_id, args.digits, context_for_formula, compute_pi)
            for formula_id in PiFormulaId}
    values = [value for _, value, _ in runs.values()]
    if len(set(values)) > 1:
        # every value reads "3." and then the digits
        first = _first_difference(*values)
        detail = ", ".join(f"{name} has {value[first]!r}" for name, (_, value, _) in runs.items())
        _refuse(1, f"pi routes disagree at digit {first - 1} after the point: {detail}")
    print(f"{'method':<10}{'digits':>8}{'terms':>8}{'ms':>10}")
    for name, (result, _, elapsed_ms) in runs.items():
        print(f"{name:<10}{args.digits:>8}{result.terms_used:>8}{elapsed_ms:>10.2f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rationalpi",
        description=(
            "Certified-digit pi and arctangent values from rational alternating "
            "series with power-of-two ratios. Digit counts refer to digits after "
            "the decimal point."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pi = sub.add_parser("pi", help="compute pi digits")
    p_pi.add_argument("--digits", type=_digits, required=True,
                      help=f"fractional digits to emit (certified), 1 to {DEFAULT_MAX_DIGITS}")
    p_pi.add_argument("--method", choices=[f.value for f in PiFormulaId], default="combined",
                      help="assembly route (default: combined)")
    p_pi.add_argument("--json", action="store_true", help="emit the full JSON report")
    p_pi.set_defaults(func=cmd_pi)

    p_at = sub.add_parser("arctan", help="compute an arctangent value")
    p_at.add_argument("--case", choices=[c.value for c in CaseId], required=True,
                      help="series argument x; the value is arctan(x/(2-x))")
    p_at.add_argument("--digits", type=_digits, required=True,
                      help=f"fractional digits to emit (certified), 1 to {DEFAULT_MAX_DIGITS}")
    p_at.add_argument("--json", action="store_true", help="emit the full JSON report")
    p_at.set_defaults(func=cmd_arctan)

    p_ver = sub.add_parser("verify", help="run the identity and agreement checks")
    p_ver.add_argument("--digits", type=_digits, default=50,
                       help=f"working digit target, 1 to {DEFAULT_MAX_DIGITS} (default: 50)")
    p_ver.set_defaults(func=cmd_verify)

    p_cmp = sub.add_parser("compare", help="convergence comparison table")
    p_cmp.add_argument("--digits", type=_digits, required=True,
                       help=f"digit target the term counts refer to, 1 to {DEFAULT_MAX_DIGITS}")
    p_cmp.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_cmp.set_defaults(func=cmd_compare)

    p_bench = sub.add_parser("bench", help=(
        "time one request (plan, evaluate, render) of each pi route; exits 1 unless their "
        "certified digits agree"))
    p_bench.add_argument("--digits", type=_digits, default=2000,
                         help=f"digits per route, 1 to {DEFAULT_MAX_DIGITS} (default: 2000)")
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (InsufficientPrecisionError, BoundaryStraddleError) as exc:
        _refuse(1, f"precision failure: {exc}")


def entrypoint() -> None:
    """Run :func:`main` as the process: exit with its status, or with 3 if
    standard output cannot be written, silently for a closed pipe and with
    one ``error: cannot write output`` line otherwise."""
    if sys.stdout is None:  # started with descriptor 1 closed
        _refuse(3, "error: cannot write output: standard output is closed")
    try:
        try:
            status = main()
        finally:
            sys.stdout.flush()
    except OSError as exc:  # a failed write: main reads no files
        if not isinstance(exc, BrokenPipeError):
            print(f"error: cannot write output: {exc}", file=sys.stderr)
        # the interpreter flushes stdout again at exit; as the signal
        # module's docs advise, that write goes to devnull
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        status = 3
    sys.exit(status)


if __name__ == "__main__":
    entrypoint()
