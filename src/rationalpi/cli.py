"""Command-line surface: pi digits, arctangent values, verification,
convergence comparison and a small benchmark.

Digits are counted after the decimal point for every subcommand.  Plain
output is the bare digit string; ``--json`` emits the full report (schema
version 1) with ``elapsed_ms`` as the only timing field, so everything
else is byte-reproducible across runs.

Every subcommand refuses ``--digits`` above ``DEFAULT_MAX_DIGITS`` before
any planning, so no request runs for hours.

Exit codes: 0 success, 1 verification or precision failure, 2 argument
error.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import namedtuple

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
    verify_arctan_identity,
    verify_factorization,
)
from .series import CASES, CaseId, Component, series_for_case

DEFAULT_MAX_DIGITS = 100_000
JSON_SCHEMA_VERSION = 1


class OutputReport(
    namedtuple(
        "OutputReport",
        "method requested_digits guaranteed_digits terms_used error_ulps elapsed_ms value",
    )
):
    """Everything one invocation computed, ready for JSON emission: the
    report is ``schema`` and then these fields, in this order."""

    __slots__ = ()

    def to_json(self) -> str:
        # imported on the two JSON paths only: plain output never needs it
        import json

        return json.dumps({"schema": JSON_SCHEMA_VERSION, **self._asdict()})


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def _argument_error(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return 2


def _render_digits(result: EvalResult, digits: int) -> str:
    return fx_to_decimal_string(result.value, ErrorLedger(result.error_ulps), digits)


def _report(method: str, digits: int, result: EvalResult, value: str, t0: float) -> OutputReport:
    return OutputReport(
        method=method,
        requested_digits=digits,
        guaranteed_digits=result.guaranteed_digits,
        terms_used=list(result.component_terms),
        error_ulps=result.error_ulps,
        elapsed_ms=int((time.perf_counter() - t0) * 1000),
        value=value,
    )


def _emit(report: OutputReport, as_json: bool) -> None:
    print(report.to_json() if as_json else report.value)


def _normalize_digit_text(text: str) -> str:
    kept = []
    for line in text.splitlines():
        if line.lstrip().startswith("#"):
            continue
        kept.append(line)
    return "".join("".join(kept).split()).replace(".", "")


def _check_fixture(path: str, value: str) -> int:
    """Exit-code-shaped fixture diff: 0 match, 1 mismatch, 2 unusable file."""
    try:
        with open(path, encoding="utf-8") as handle:
            reference = _normalize_digit_text(handle.read())
    except OSError as exc:
        return _argument_error(f"cannot read fixture: {exc}")
    computed = _normalize_digit_text(value)
    if not reference:
        return _argument_error(f"fixture {path} contains no digits")
    if len(reference) < len(computed):
        return _argument_error(
            f"fixture {path} has only {len(reference)} digits, output has {len(computed)}"
        )
    if reference[: len(computed)] != computed:
        position = next(
            i for i, (a, b) in enumerate(zip(reference, computed)) if a != b
        )
        print(
            f"fixture mismatch at digit {position + 1}: "
            f"fixture {reference[position]!r}, computed {computed[position]!r}",
            file=sys.stderr,
        )
        return 1
    return 0


def cmd_pi(args: argparse.Namespace) -> int:
    formula_id = PiFormulaId(args.method)
    t0 = time.perf_counter()
    try:
        ctx = context_for_formula(formula_id, args.digits)
        result = compute_pi(formula_id, ctx)
        value = _render_digits(result, args.digits)
    except (InsufficientPrecisionError, BoundaryStraddleError) as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 1
    report = _report(args.method, args.digits, result, value, t0)
    if args.fixture is not None:
        code = _check_fixture(args.fixture, value)
        if code != 0:
            return code
    _emit(report, args.json)
    return 0


def cmd_arctan(args: argparse.Namespace) -> int:
    case_id = CaseId(args.case)
    t0 = time.perf_counter()
    try:
        ctx = context_for_case(case_id, args.digits)
        result = sun(case_id, ctx)
        value = _render_digits(result, args.digits)
    except (InsufficientPrecisionError, BoundaryStraddleError) as exc:
        print(f"precision failure: {exc}", file=sys.stderr)
        return 1
    _emit(_report(f"arctan case {args.case}", args.digits, result, value, t0), args.json)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    if args.digits < 10:
        return _argument_error("verify needs --digits of at least 10")
    ctx = context_for_verify(args.digits)
    lines: list[tuple[str, bool, str]] = []

    factorization = verify_factorization()
    lines.append(
        ("factorization 4+x^4", factorization.passed, f"coefficients {factorization.coefficients}")
    )

    overrides = None
    if args.inject_fault:
        # a doubled prefactor the identity check must catch
        good = series_for_case(CASES[CaseId.X_HALF], Component.JUPITER)
        overrides = {good: good._replace(prefactor_num=2 * good.prefactor_num)}
    identity = verify_arctan_identity(ctx, spec_overrides=overrides)
    lines.append(
        (
            "arctan identity",
            identity.passed,
            f"residual {identity.residual_ulps} ulps <= bound {identity.bound_ulps} "
            f"ulps (scale {identity.scale})",
        )
    )

    for check in cross_formula_agreement(ctx):
        lines.append(
            (
                f"pi {check.first} vs {check.second}",
                check.passed,
                f"diff {check.diff_ulps} ulps <= bound {check.bound_ulps} ulps",
            )
        )

    all_passed = True
    for name, passed, detail in lines:
        all_passed &= passed
        print(f"{'PASS' if passed else 'FAIL'}  {name}: {detail}")
    return 0 if all_passed else 1


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
        print(",".join(_COMPARE_COLUMNS))
        for row_cells in cells:
            print(",".join(_csv_field(cell) for cell in row_cells))
        return 0
    widths = [
        max(len(_COMPARE_COLUMNS[i]), *(len(c[i]) for c in cells))
        for i in range(len(_COMPARE_COLUMNS))
    ]
    header = "  ".join(name.ljust(widths[i]) for i, name in enumerate(_COMPARE_COLUMNS))
    print(header.rstrip())
    for row_cells in cells:
        print("  ".join(cell.ljust(widths[i]) for i, cell in enumerate(row_cells)).rstrip())
    return 0


def _csv_field(cell: str) -> str:
    if "," in cell or '"' in cell:
        return '"' + cell.replace('"', '""') + '"'
    return cell


def cmd_bench(args: argparse.Namespace) -> int:
    """Time every pi route, printing the times only once the certified
    digits of all routes agree: a fast wrong answer must not look like a win."""
    rows = []
    values = {}
    for formula_id in PiFormulaId:
        best = None
        result = None
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            ctx = context_for_formula(formula_id, args.digits)
            result = compute_pi(formula_id, ctx)
            elapsed = (time.perf_counter() - t0) * 1000
            best = elapsed if best is None else min(best, elapsed)
        try:
            values[formula_id.value] = _render_digits(result, args.digits)
        except (InsufficientPrecisionError, BoundaryStraddleError) as exc:
            print(f"precision failure: {formula_id.value}: {exc}", file=sys.stderr)
            return 1
        rows.append((formula_id.value, result.terms_used, best))
    if len(set(values.values())) > 1:
        # every value reads "3." and then the digits
        first = next(i for i, chars in enumerate(zip(*values.values())) if len(set(chars)) > 1)
        detail = ", ".join(f"{name} has {value[first]!r}" for name, value in values.items())
        print(f"pi routes disagree at digit {first - 1} after the point: {detail}",
              file=sys.stderr)
        return 1
    print(f"{'method':<10}{'digits':>8}{'terms':>8}{'ms':>10}")
    for name, terms, best in rows:
        print(f"{name:<10}{args.digits:>8}{terms:>8}{best:>10.2f}")
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
    p_pi.add_argument("--digits", type=_positive_int, required=True,
                      help="fractional digits to emit (certified)")
    p_pi.add_argument("--method", choices=[f.value for f in PiFormulaId], default="combined",
                      help="assembly route (default: combined)")
    p_pi.add_argument("--json", action="store_true", help="emit the full JSON report")
    p_pi.add_argument("--fixture", metavar="PATH",
                      help="reference digit file to diff against (whitespace and "
                           "'#' comment lines ignored); mismatch exits 1")
    p_pi.add_argument("--max-digits", type=_positive_int, default=DEFAULT_MAX_DIGITS,
                      help=argparse.SUPPRESS)
    p_pi.set_defaults(func=cmd_pi)

    p_at = sub.add_parser("arctan", help="compute an arctangent value")
    p_at.add_argument("--case", choices=[c.value for c in CaseId], required=True,
                      help="series argument x; the value is arctan(x/(2-x))")
    p_at.add_argument("--digits", type=_positive_int, required=True,
                      help="fractional digits to emit (certified)")
    p_at.add_argument("--json", action="store_true", help="emit the full JSON report")
    p_at.set_defaults(func=cmd_arctan, max_digits=DEFAULT_MAX_DIGITS)

    p_ver = sub.add_parser("verify", help="run the identity and agreement checks")
    p_ver.add_argument("--digits", type=_positive_int, default=50,
                       help="working digit target, at least 10 (default: 50)")
    p_ver.add_argument("--inject-fault", action="store_true", help=argparse.SUPPRESS)
    p_ver.set_defaults(func=cmd_verify, max_digits=DEFAULT_MAX_DIGITS)

    p_cmp = sub.add_parser("compare", help="convergence comparison table")
    p_cmp.add_argument("--digits", type=_positive_int, required=True,
                       help="digit target the term counts refer to")
    p_cmp.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p_cmp.set_defaults(func=cmd_compare, max_digits=DEFAULT_MAX_DIGITS)

    p_bench = sub.add_parser(
        "bench", help="time the pi routes; exits 1 unless their certified digits agree"
    )
    p_bench.add_argument("--digits", type=_positive_int, default=2000)
    p_bench.add_argument("--repeat", type=_positive_int, default=3)
    p_bench.set_defaults(func=cmd_bench, max_digits=DEFAULT_MAX_DIGITS)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    # every subcommand is capped, before it plans
    if args.digits > args.max_digits:
        return _argument_error(
            f"--digits {args.digits} exceeds the configured maximum {args.max_digits}"
        )
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
