"""Acceptance suite: one check per shipped guarantee, one printed verdict
line each (run with ``pytest -s`` to see the lines on success)."""

import random
import time
from fractions import Fraction

from rationalpi.cli import main
from rationalpi.fixedpoint import PrecisionContext
from rationalpi.formulas import (
    combined_series_specs,
    compare_convergence,
    context_for_case,
    cross_formula_agreement,
    sun,
)
from rationalpi.series import (
    CaseId,
    Component,
    SeriesSpec,
    consecutive_term_ratio,
    context_for,
    eval_series,
    series_for_case,
)

import oracles


def _verdict(name: str, ok: bool, detail: str) -> None:
    line = f"{'PASS' if ok else 'FAIL'}  {name}: {detail}"
    print(line)
    assert ok, line


def _run_cli(argv, capsys):
    code = main(argv)
    out, _ = capsys.readouterr()
    return code, out


def test_criterion_1_reproduces_128_digits(capsys):
    """The two series routes and the cross-check route byte-match at 128
    digits, each well under a second."""
    outputs = {}
    slowest = 0.0
    for method in ("combined", "case1", "machin"):
        t0 = time.perf_counter()
        code, out = _run_cli(["pi", "--digits", "128", "--method", method], capsys)
        slowest = max(slowest, time.perf_counter() - t0)
        assert code == 0
        outputs[method] = out
    reference = oracles.truncated_digits(oracles.pi_bracket(140), 128) + "\n"
    ok = (
        outputs["combined"] == outputs["machin"] == outputs["case1"] == reference
        and slowest < 1.0
    )
    _verdict(
        "criterion 1 (128-digit reproduction)",
        ok,
        f"three byte-identical oracle-matching outputs, slowest {slowest * 1000:.0f} ms",
    )


def test_criterion_2_identity_suite(capsys):
    code, _ = _run_cli(["verify", "--digits", "50"], capsys)
    check = cross_formula_agreement(PrecisionContext(50, 10))[0]  # scale 60
    ok = (
        code == 0
        and check.passed
        and check.scale == 60
        and check.residual_ulps <= check.bound_ulps
        and check.residual_ulps < 1000
    )
    _verdict(
        "criterion 2 (arctan identity)",
        ok,
        f"verify exit {code}; residual {check.residual_ulps} ulps "
        f"(bound {check.bound_ulps}, scale {check.scale})",
    )


def test_criterion_3_decomposition_vs_oracle():
    worst = Fraction(0)
    ok = True
    for case in CaseId:
        ctx = context_for_case(case, 50)
        result = sun(case, ctx)
        value = oracles.exact_value(result.value)
        allowance = Fraction(result.error_ulps, 10**ctx.scale)
        lo, hi = oracles.case_target_bracket(case.value, ctx.scale)
        ok &= value - allowance <= lo and hi <= value + allowance
        worst = max(worst, abs(value - (lo + hi) / 2) / allowance)
    _verdict(
        "criterion 3 (weighted three-series decomposition)",
        ok,
        f"all three cases within their reported bounds at 50 digits "
        f"(worst usage {float(worst):.3f} of bound)",
    )


def test_criterion_4_ratio_law():
    checked = 0
    ok = True
    for case in CaseId:
        for component in Component:
            spec = series_for_case(case, component)
            fields = (spec.prefactor_num, spec.prefactor_den, spec.offset, spec.step, spec.q_den)
            for k in range(21):
                ratio = consecutive_term_ratio(spec, k)
                ok &= ratio < Fraction(1, spec.q_den)
                ok &= abs(oracles.series_term(*fields, k + 1)) * spec.q_den * spec.denominator(
                    k + 1
                ) == abs(oracles.series_term(*fields, k)) * spec.denominator(k)
                checked += 1
    _verdict(
        "criterion 4 (term-ratio law)",
        ok,
        f"{checked} exact rational ratio identities, all below 1/q_den",
    )


def test_criterion_5_convergence_claims():
    rows = {r.method: r for r in compare_convergence(128)}
    targets = {"euler_x_quarter": 45, "euler_x_half": 75, "euler_x1": 220}
    model_specs = {
        "euler_x1": (1, 2, 1, 4, 4),
        "euler_x_half": (1, 4, 1, 4, 64),
        "euler_x_quarter": (1, 8, 1, 4, 1024),
    }
    ok = True
    counts = {}
    for method, cap in targets.items():
        n = rows[method].terms_for_target
        counts[method] = n
        ok &= n <= cap
        # minimality by exact rational remainder check
        pn, pd, offset, step, q_den = model_specs[method]
        bound = Fraction(1, 10**128)
        ok &= abs(oracles.series_term(pn, pd, offset, step, q_den, n)) < bound
        ok &= abs(oracles.series_term(pn, pd, offset, step, q_den, n - 1)) >= bound
    leibniz = rows["leibniz"]
    ok &= leibniz.terms_for_target is None
    ok &= leibniz.symbolic_terms == "~5e127"
    ok &= "> 10^127" in leibniz.notes
    ok &= 5 * 10**127 > 10**127  # the symbolic figure is a bound, not a computation
    _verdict(
        "criterion 5 (convergence claims at 128 digits)",
        ok,
        f"terms {counts['euler_x_quarter']}/{counts['euler_x_half']}/{counts['euler_x1']} "
        f"(caps 45/75/220), each minimal; Leibniz symbolic {leibniz.symbolic_terms}",
    )


def test_criterion_6_error_ledger_soundness():
    rng = random.Random(20260810)
    violations = 0
    for _ in range(100):
        spec = SeriesSpec(
            rng.randrange(1, 17),
            rng.randrange(1, 65),
            rng.randrange(1, 13),
            rng.randrange(1, 13),
            rng.randrange(2, 2001),
        )
        digits = rng.randrange(5, 41)
        ctx = context_for([(1, spec)], digits)
        result = eval_series([(1, spec)], ctx)
        partial = oracles.series_partial_sum(
            spec.prefactor_num,
            spec.prefactor_den,
            spec.offset,
            spec.step,
            spec.q_den,
            result.terms_used,
        )
        gap = abs(oracles.exact_value(result.value) - partial)
        if gap > Fraction(result.error_ulps, 10**ctx.scale):
            violations += 1
    _verdict(
        "criterion 6 (error-ledger soundness)",
        violations == 0,
        f"100 randomized evaluations, {violations} violations",
    )


def test_criterion_7_misprint_regression():
    progressions = {
        Component.SATURN: [1, 5, 9, 13, 17],
        Component.JUPITER: [1, 3, 5, 7, 9],
        Component.MARS: [3, 7, 11, 15, 19],
    }
    ok = True
    for case in CaseId:
        for component, expected in progressions.items():
            spec = series_for_case(case, component)
            ok &= [spec.denominator(k) for k in range(5)] == expected
    # the two documented transcription slips, pinned so a "fix" back to the
    # misprinted coefficients fails here
    saturn = series_for_case(list(CaseId)[0], Component.SATURN)
    ok &= saturn.denominator(3) == 13 and saturn.denominator(3) != 3
    sixth = combined_series_specs()[5]
    ok &= sixth.offset == 3 and sixth.offset != 1
    _verdict(
        "criterion 7 (progressions and misprint guards)",
        ok,
        "denominator progressions 4k+1 / 2k+1 / 4k+3; guarded slips: 3->13, 1->1/3",
    )


def test_criterion_8_power_of_two_structure():
    def power_of_two(n: int) -> bool:
        return n >= 1 and n & (n - 1) == 0

    specs = combined_series_specs()
    ok = len(specs) == 6 and all(
        power_of_two(spec.q_den) and power_of_two(spec.prefactor_den) for spec in specs
    )
    shape = ", ".join(
        f"{s.prefactor_num}/{s.prefactor_den}@1/{s.q_den}" for s in specs
    )
    _verdict(
        "criterion 8 (power-of-two structure)",
        ok,
        f"six-series stack {shape}",
    )
