"""Child processes of the benchmark; ``rationalpi`` is imported only here.

    python perfbench/child.py cli ARGS...          traced `python -m rationalpi ARGS`
    python perfbench/child.py lib SEED SECONDS TRACE
    python perfbench/child.py exact DIGITS

``cli`` runs the command line exactly as ``python -m rationalpi`` does, with
the tracer installed, and appends one ``TRACE_MARK`` line holding the spans
to standard error.  ``lib`` runs the ``lib-2k`` library loop for the seed
and prints one JSON object; with ``TRACE`` 1 each call runs untraced and
then traced.  ``exact`` prints, for each pi route at one digit count, the
stored value, its ledger and the number of fixed-point arithmetic calls.
The parent puts ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import runpy
import sys
import time

import spans
import workgen

TRACE_MARK = "@@perfbench-trace "


def _cli(argv: list[str]) -> int:
    tracer = spans.Tracer()
    spans.install(tracer)
    sys.argv = ["rationalpi", *argv]
    code = 0
    try:
        tracer.span("bench", "request", runpy.run_module, "rationalpi", run_name="__main__")
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        payload = {"spans": tracer.spans}
        sys.stderr.write("\n" + TRACE_MARK + json.dumps(payload) + "\n")
    return code


def _lib(seed: int, seconds: float, traced: bool) -> int:
    from rationalpi import fixedpoint, formulas, series

    tracer = spans.Tracer()
    hooks = spans.install(tracer) if traced else None

    def call(req: workgen.Request) -> str:
        group, which = req.kind.split(".")
        if group == "pi":
            route = formulas.PiFormulaId(which)
            ctx = formulas.context_for_formula(route, req.digits)
            result = formulas.compute_pi(route, ctx)
        else:
            case = series.CaseId(workgen.CASES[which])
            ctx = formulas.context_for_case(case, req.digits)
            result = formulas.sun(case, ctx)
        ledger = fixedpoint.ErrorLedger(result.error_ulps)
        return fixedpoint.fx_to_decimal_string(result.value, ledger, req.digits)

    def timed(req: workgen.Request) -> list:
        t0 = time.process_time()
        try:
            value, refusal = tracer.span("bench", req.kind, call, req), None
        except (ArithmeticError, ValueError) as exc:
            value, refusal = None, f"{type(exc).__name__}: {exc}"
        return [req.kind, req.digits, time.process_time() - t0, value, refusal]

    shadow, per_request = [], []

    def one(req: workgen.Request) -> list:
        if hooks is None:
            return timed(req)
        hooks.set(False)
        row = timed(req)
        hooks.set(True)
        tracer.spans = []
        shadow.append(timed(req))
        per_request.append(tracer.spans)
        return row

    plan = workgen.generate("lib-2k", seed)
    min_blocks = 1 if traced else workgen.WORKLOADS["lib-2k"].min_blocks
    results, done, wall_s = workgen.run_blocks(plan, seconds, min_blocks, one)
    payload = {"results": results, "traced": shadow, "blocks": done, "wall_s": wall_s,
               "spans": per_request}
    json.dump(payload, sys.stdout)
    return 0


def _exact(digits: int) -> int:
    from rationalpi import formulas

    tracer = spans.Tracer()
    spans.install(tracer, count_arithmetic=True)
    out = {}
    for name in workgen.ROUTES:
        tracer.counts.clear()
        route = formulas.PiFormulaId(name)
        result = formulas.compute_pi(route, formulas.context_for_formula(route, digits))
        out[name] = {
            "scale": result.value.scale,
            "units_hex": hex(result.value.signed_units),
            "error_ulps": result.error_ulps,
            "guaranteed_digits": result.guaranteed_digits,
            "terms": result.terms_used,
            "arithmetic_calls": sum(tracer.counts.values()),
        }
    json.dump(out, sys.stdout)
    return 0


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "cli":
        return _cli(rest)
    if mode == "lib":
        return _lib(int(rest[0]), float(rest[1]), rest[2] == "1")
    if mode == "exact":
        return _exact(int(rest[0]))
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
