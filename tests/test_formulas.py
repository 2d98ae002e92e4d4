import decimal
import functools
import hashlib
import math
import sys
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from rationalpi import formulas, series
from rationalpi.fixedpoint import (
    BoundaryStraddleError,
    ErrorLedger,
    FixedPoint,
    InsufficientPrecisionError,
    PrecisionContext,
    fx_to_decimal_string,
)
from rationalpi.formulas import (
    PI_FORMULAS,
    PiFormulaId,
    arctan_recip_spec,
    combined_series_specs,
    compare_convergence,
    compute_pi,
    context_for_case,
    context_for_formula,
    context_for_verify,
    cross_formula_agreement,
    sun,
    verify_factorization,
)
from rationalpi.series import CaseId, Component, context_for, series_for_case

import oracles


PI_30 = "3.141592653589793238462643383279"
SUN_30 = {
    "1": "0.785398163397448309615660845819",
    "1/2": "0.321750554396642193401404614358",
    "1/4": "0.141897054604163922812851617102",
}


def digits_of(result, digits):
    return fx_to_decimal_string(result.value, ErrorLedger(result.error_ulps), digits)


# --- the arctangent assembly ----------------------------------------------------


@pytest.mark.parametrize("case_key", ("1", "1/2", "1/4"))
def test_sun_digits_against_oracle(case_key):
    case_id = {c.value: c for c in CaseId}[case_key]
    result = sun(case_id, context_for_case(case_id, 30))
    assert digits_of(result, 30) == SUN_30[case_key]
    assert result.guaranteed_digits >= 30
    assert len(result.component_terms) == 3


@pytest.mark.parametrize("digits", (10, 50))
def test_sun_value_within_error_of_true_arctan(digits):
    for case in CaseId:
        ctx = context_for_case(case, digits)
        result = sun(case, ctx)
        value = oracles.exact_value(result.value)
        allowance = Fraction(result.error_ulps, 10**ctx.scale)
        lo, hi = oracles.case_target_bracket(case.value, ctx.scale)
        assert value - allowance <= lo and hi <= value + allowance


# --- identity and factorization -------------------------------------------------


@pytest.mark.parametrize("digits", (10, 50))
def test_arctan_identity_passes(digits):
    check = cross_formula_agreement(context_for_verify(digits))[0]
    assert check.passed
    assert check.residual_ulps <= check.bound_ulps


def test_arctan_identity_fault_injection_fails_loudly(jupiter_fault):
    check = cross_formula_agreement(context_for_verify(12))[0]
    assert not check.passed
    assert check.residual_ulps > 1000 * check.bound_ulps


def test_factorization_expands_to_quartic():
    check = verify_factorization()
    assert check.passed
    assert check.coefficients == (4, 0, 0, 0, 1)
    assert len(check.coefficients) == 5


def test_factorization_fault_injection(monkeypatch):
    monkeypatch.setattr(formulas, "QUARTIC_FACTOR_A", (2, 2, -1))
    check = verify_factorization()
    assert not check.passed
    assert check.coefficients != (4, 0, 0, 0, 1)


# --- pi assembly -----------------------------------------------------------------


def test_pi_formula_registry_values_are_pi():
    pi_lo, pi_hi = oracles.pi_bracket(60)
    for terms in PI_FORMULAS.values():
        lo = hi = Fraction(0)
        for coeff, arg in terms:
            if arg == 1:
                arg_lo, arg_hi = oracles.atan_one_bracket(60)
            else:
                arg_lo, arg_hi = oracles.atan_bracket(arg, 60)
            if coeff >= 0:
                lo += coeff * arg_lo
                hi += coeff * arg_hi
            else:
                lo += coeff * arg_hi
                hi += coeff * arg_lo
        assert lo <= pi_hi and pi_lo <= hi
        assert abs((lo + hi) / 2 - (pi_lo + pi_hi) / 2) < Fraction(1, 10**55)


@pytest.mark.parametrize("method", (PiFormulaId.CASE1, PiFormulaId.COMBINED, PiFormulaId.MACHIN_ORACLE))
def test_compute_pi_thirty_digits(method):
    result = compute_pi(method, context_for_formula(method, 30))
    assert digits_of(result, 30) == PI_30
    assert result.guaranteed_digits >= 30


def test_compute_pi_component_term_counts():
    assert len(compute_pi(PiFormulaId.CASE1, context_for_formula(PiFormulaId.CASE1, 20)).component_terms) == 3
    assert len(compute_pi(PiFormulaId.COMBINED, context_for_formula(PiFormulaId.COMBINED, 20)).component_terms) == 6
    assert len(compute_pi(PiFormulaId.MACHIN_ORACLE, context_for_formula(PiFormulaId.MACHIN_ORACLE, 20)).component_terms) == 2


@pytest.mark.parametrize("route", list(PiFormulaId))
def test_every_route_takes_one_path(route, monkeypatch):
    # each route's table entry goes to one sun call and one eval_series pass
    calls = []

    def spy(name, real):
        def recording(*args):
            calls.append(name)
            return real(*args)

        return recording

    monkeypatch.setattr(formulas, "sun", spy("sun", formulas.sun))
    monkeypatch.setattr(formulas, "eval_series", spy("eval_series", formulas.eval_series))
    compute_pi(route, context_for_formula(route, 30))
    assert calls == ["sun", "eval_series"]


@pytest.mark.parametrize("route", list(PiFormulaId))
def test_sun_of_a_route_is_compute_pi(route):
    ctx = context_for_formula(route, 30)
    by_sun, by_route = sun(PI_FORMULAS[route], ctx), compute_pi(route, ctx)
    for field, got, want in zip(by_route._fields, by_sun, by_route):
        assert got == want, field


def test_sun_refuses_an_argument_with_no_series():
    with pytest.raises(ValueError, match=r"^no series for arctan\(2/3\)$"):
        sun([(1, Fraction(2, 3))], PrecisionContext(10, 10))


@pytest.mark.parametrize("arg", (Fraction(1, 3), Fraction(1, 5)), ids=("case", "recip"))
def test_sun_refuses_a_bool_coefficient_on_every_argument(arg):
    # a case argument once multiplied True into its stack's int weights
    with pytest.raises(TypeError, match="^coefficient must be an int, got bool$"):
        sun([(True, arg)], PrecisionContext(10, 10))


@pytest.mark.parametrize("arg", (True, 1.0, 0.2, "1/5"))
def test_sun_refuses_an_argument_that_is_not_a_fraction_or_an_int(arg):
    # a lookup by equality would take True and 1.0 for the case argument 1,
    # and 0.2 and "1/5" have no exact numerator
    with pytest.raises(TypeError, match=f"^argument must be a Fraction or an int, got "
                                        f"{type(arg).__name__}$"):
        sun([(4, arg)], PrecisionContext(10, 10))


def test_sun_takes_the_int_one_as_arctan_of_one():
    ctx = context_for_formula(PiFormulaId.CASE1, 30)
    assert sun([(4, 1)], ctx) == compute_pi(PiFormulaId.CASE1, ctx)


# pi by two more Machin-like formulas: the ratios 1/324, 1/3249 and 1/57121
# go to the block sum, and Stormer's arctan(1/8) (ratio 1/64, prefactor
# 1/8) to the shared pass beside them
MACHIN_LIKE = {
    "gauss": ((48, Fraction(1, 18)), (32, Fraction(1, 57)), (-20, Fraction(1, 239))),
    "stormer": ((24, Fraction(1, 8)), (8, Fraction(1, 57)), (4, Fraction(1, 239))),
}


@pytest.mark.parametrize("digits", (1, 50, 1000, 2000))
@pytest.mark.parametrize("name", sorted(MACHIN_LIKE))
def test_machin_like_formulas_render_the_digits_of_case1(name, digits):
    terms = MACHIN_LIKE[name]
    ctx = context_for([(coeff, arctan_recip_spec(arg.denominator)) for coeff, arg in terms], digits)
    case1 = compute_pi(PiFormulaId.CASE1, context_for_formula(PiFormulaId.CASE1, digits))
    assert digits_of(sun(terms, ctx), digits) == digits_of(case1, digits)


# SHA-256 of pi to 20000 digits as the CLI prints it, its newline included,
# from perfbench/refdigits.py (Chudnovsky, independent of the package)
PI_20000_SHA256 = "6ede26ecb55d6ae7e36d8f97c0fe4a9c9f9c82ba93c58b0b1b9e9670e367d910"


@pytest.mark.parametrize("name", ["machin", *sorted(MACHIN_LIKE)])
def test_block_summed_formulas_render_pi_at_20000_digits(name):
    # at this size every block-summed series here is cut into two to four
    # blocks, so a fault in the cuts, the merge or a block's floor shows in
    # the printed digits
    if name == "machin":
        route = PiFormulaId.MACHIN_ORACLE
        result = compute_pi(route, context_for_formula(route, 20000))
    else:
        terms = MACHIN_LIKE[name]
        result = sun(terms, context_for(
            [(coeff, arctan_recip_spec(arg.denominator)) for coeff, arg in terms], 20000))
    rendered = digits_of(result, 20000) + "\n"
    assert hashlib.sha256(rendered.encode()).hexdigest() == PI_20000_SHA256


@settings(max_examples=200, deadline=None)
@given(
    key=st.sampled_from([*PiFormulaId, *CaseId]),
    target=st.integers(1, 80),
    guard=st.integers(0, 9),
)
def test_small_guard_certifies_its_digits_or_is_refused(key, target, guard):
    # no guard floor: below context_for's margin the certificate alone
    # decides, so every rendered digit is still pi's or the arctangent's
    if isinstance(key, PiFormulaId):
        evaluate, bracket = compute_pi, oracles.pi_bracket(target + 10)
    else:
        evaluate, bracket = sun, oracles.case_target_bracket(key.value, target + 10)
    try:
        rendered = digits_of(evaluate(key, PrecisionContext(target, guard)), target)
    except (InsufficientPrecisionError, BoundaryStraddleError):
        return
    assert rendered == oracles.truncated_digits(bracket, target)


def test_feynman_point_straddles_at_4_spare_digits():
    # pi's digits after position 761 are 999999837...: with 4 spare digits
    # the certified interval of case1 crosses the boundary of the last digit,
    # with 5 it does not.  The guards are found from their spare digits,
    # lowering the planned guard until the certificate leaves that many
    target = 761
    ctx = context_for_formula(PiFormulaId.CASE1, target)
    rendered = {}
    for spare in (5, 4):
        while (result := compute_pi(PiFormulaId.CASE1, ctx)).guaranteed_digits > target + spare:
            ctx = ctx._replace(guard_digits=ctx.guard_digits - 1)
        assert result.guaranteed_digits == target + spare
        try:
            rendered[spare] = digits_of(result, target)
        except BoundaryStraddleError:
            rendered[spare] = None
    assert rendered == {5: oracles.truncated_digits(oracles.pi_bracket(770), target), 4: None}


def test_result_repr_past_int_str_cap_leaves_cap_alone(int_str_cap):
    # a 5000-digit result holds a magnitude past CPython's default 4300-digit
    # int/str limit; its repr must still render, without lifting the cap
    method = PiFormulaId.MACHIN_ORACLE
    result = compute_pi(method, context_for_formula(method, 5000))
    text = repr(result)
    assert text.startswith("EvalResult(value=FixedPoint(signed_units=314159265358979")
    assert f"terms_used={result.terms_used}" in text
    assert int_str_cap() in (None, 4300)


def test_library_calls_leave_interpreter_state_alone(int_str_cap):
    # 5000 digits is past the int/str cap held at 4300 here; neither the cap
    # nor the thread's decimal context, which rendering goes through, may
    # change under a library call
    context = decimal.getcontext()
    before = (context.prec, context.rounding, dict(context.traps))
    result = compute_pi(PiFormulaId.COMBINED, context_for_formula(PiFormulaId.COMBINED, 5000))
    sun(CaseId.X_HALF, context_for_case(CaseId.X_HALF, 5000))
    assert cross_formula_agreement(context_for_verify(5000))[0].passed
    assert digits_of(result, 5000).startswith("3.14159265358979")
    assert repr(result).startswith("EvalResult(value=FixedPoint(signed_units=314159")
    assert int_str_cap() in (None, 4300)
    context = decimal.getcontext()
    assert (context.prec, context.rounding, dict(context.traps)) == before


@pytest.mark.parametrize("digits", (10, 30, 50, 128))
def test_cross_formula_agreement(digits):
    _, checks = cross_formula_agreement(context_for_verify(digits))
    assert len(checks) == 3
    for check in checks:
        assert check.passed, (check.first, check.second, check.diff_ulps, check.bound_ulps)


@pytest.mark.parametrize("digits", (10, 50, 128, 500, 3000))
def test_verify_context_is_sized_by_the_distinct_series(digits):
    # the three routes sum eleven distinct series, and verify plans them as
    # one stack at their route weights: its certificate is the sum of the
    # routes', so its guard covers every route's
    cases = [(weight * inner, series_for_case(case, part))
             for case, weight in ((CaseId.X1, 4), (CaseId.X_HALF, 8), (CaseId.X_QUARTER, 4))
             for part, inner in zip(Component, (2, 2, 1))]
    machin = [(16, arctan_recip_spec(5)), (-4, arctan_recip_spec(239))]
    ctx = context_for_verify(digits)
    assert ctx == series.context_for(cases + machin, digits)
    for route in PiFormulaId:
        assert ctx.guard_digits >= context_for_formula(route, digits).guard_digits, route


@pytest.mark.parametrize("digits", (10, 50, 128, 500, 2000))
def test_identity_is_a_quarter_of_case1_against_combined(digits):
    # combined - case1 = 8*arctan(1/3) + 4*arctan(1/7) - 4*arctan(1), four times
    # the identity's left side; both routes store the identity's series terms
    # at the same scale and weigh them exactly, so the ulps agree exactly too
    ctx = context_for_verify(digits)
    identity, checks = cross_formula_agreement(ctx)
    (check,) = [c for c in checks if (c.first, c.second) == ("case1", "combined")]
    assert (check.diff_ulps, check.bound_ulps) == (
        4 * identity.residual_ulps,
        4 * identity.bound_ulps,
    )


@pytest.mark.parametrize("excess,passed", ((0, True), (1, False)))
def test_agreement_and_identity_pass_exactly_at_their_bounds(excess, passed, monkeypatch):
    # a disagreement of exactly its bound passes and one ulp more fails, for
    # a route pair and for the identity alike; a check against twice the
    # bound would pass both
    ctx = context_for_verify(30)
    results = {formula_id: compute_pi(formula_id, ctx) for formula_id in PI_FORMULAS}
    case1 = results[PiFormulaId.CASE1]

    def agreement_with(moved, offset):
        # route ``moved`` stores case1's value plus ``offset`` ulps
        value = FixedPoint(case1.value.signed_units + offset, ctx.scale)
        routes = {**results, moved: results[moved]._replace(value=value)}
        monkeypatch.setattr(formulas, "compute_pi", lambda formula_id, _: routes[formula_id])
        return cross_formula_agreement(ctx)

    machin = results[PiFormulaId.MACHIN_ORACLE]
    _, checks = agreement_with(
        PiFormulaId.MACHIN_ORACLE, case1.error_ulps + machin.error_ulps + excess
    )
    (check,) = [c for c in checks if (c.first, c.second) == ("case1", "machin")]
    assert (check.passed, check.diff_ulps - check.bound_ulps) == (passed, excess)

    combined = results[PiFormulaId.COMBINED]
    bound = (case1.error_ulps + combined.error_ulps) // 4
    identity, _ = agreement_with(PiFormulaId.COMBINED, 4 * (bound + excess))
    assert (identity.passed, identity.residual_ulps - identity.bound_ulps) == (passed, excess)


# --- the six-series stack --------------------------------------------------------

# prefactors of the folded pi stack: 8x the x=1/2 assembly, 4x the x=1/4 assembly
EXPECTED_COMBINED = (
    (2, 1, 1, 4, 64),
    (1, 2, 1, 2, 64),
    (1, 4, 3, 4, 64),
    (1, 2, 1, 4, 1024),
    (1, 16, 1, 2, 1024),
    (1, 64, 3, 4, 1024),
)


def test_combined_series_specs_table():
    specs = combined_series_specs()
    assert tuple(
        (s.prefactor_num, s.prefactor_den, s.offset, s.step, s.q_den) for s in specs
    ) == EXPECTED_COMBINED


def test_combined_stack_is_all_powers_of_two():
    def power_of_two(n):
        return n >= 1 and n & (n - 1) == 0

    for spec in combined_series_specs():
        assert power_of_two(spec.q_den)
        assert power_of_two(spec.prefactor_den)


def test_combined_stack_sums_to_pi():
    total_lo = total_hi = Fraction(0)
    for spec in combined_series_specs():
        lo, hi = oracles.series_bracket(
            spec.prefactor_num, spec.prefactor_den, spec.offset, spec.step, spec.q_den, 40
        )
        total_lo += lo
        total_hi += hi
    pi_lo, pi_hi = oracles.pi_bracket(40)
    assert total_lo <= pi_hi and pi_lo <= total_hi


# --- plain-integer oracle for every evaluated stack -----------------------------


def paper_stack(x_den, weight, jupiter_num=1):
    """``weight * arctan(x/(2-x))`` at x = 1/x_den, written out from the
    paper: SATURN x/4 over 4k+1, JUPITER x^2/8 over 2k+1, MARS x^3/4 over
    4k+3, component weights 2, 2, 1, ratio x^4/4."""
    q = 4 * x_den**4
    return [
        (2 * weight, (1, 4 * x_den, 1, 4, q)),
        (2 * weight, (jupiter_num, 8 * x_den**2, 1, 2, q)),
        (weight, (1, 4 * x_den**3, 3, 4, q)),
    ]


ROUTE_STACKS = {
    PiFormulaId.CASE1: paper_stack(1, 4),
    PiFormulaId.COMBINED: paper_stack(2, 8) + paper_stack(4, 4),
    PiFormulaId.MACHIN_ORACLE: [(16, (1, 5, 1, 2, 25)), (-4, (1, 239, 1, 2, 239**2))],
}
CASE_X_DEN = {CaseId.X1: 1, CaseId.X_HALF: 2, CaseId.X_QUARTER: 4}
ORACLE_DIGITS = (1, 9, 50, 128, 301)


def test_context_guard_rule_over_a_digit_sweep():
    # the rule: at scale target + guard each listed series costs
    # |w| * (ceil(N/2) + 1) ulps, with N planned at that scale by the
    # oracle's linear scan, at least one term; the certificate's decade and
    # one forfeited digit come off the scale, and the guard is the least
    # one that leaves 8 spare digits, so a weight and a repeated series both
    # count
    terms = functools.cache(oracles.brute_terms_needed)

    def certified(stack, scale):
        ulps = sum(abs(weight) * (-(-max(1, terms(*raw, scale)) // 2) + 1)
                   for weight, raw in stack)
        decades = 0
        while 10**decades < ulps + 1:
            decades += 1
        return scale - decades - 1

    def expected(stack, target):
        guard = 0
        while certified(stack, target + guard) < target + 8:
            guard += 1
        return PrecisionContext(target, guard)

    every_route = [part for stack in ROUTE_STACKS.values() for part in stack]
    # 662-707, 1598, 1605, 1612, 2382, 2389 and 2396 are targets where
    # planning at target + guard instead of target + 30 moved a guard; 761
    # is the Feynman point
    for target in (*range(1, 601), *range(662, 708), 761, 1000,
                   1598, 1605, 1612, 2000, 2382, 2389, 2396, 5000):
        for formula_id, stack in ROUTE_STACKS.items():
            assert context_for_formula(formula_id, target) == expected(stack, target)
        for case_id, x_den in CASE_X_DEN.items():
            assert context_for_case(case_id, target) == expected(paper_stack(x_den, 1), target)
        assert context_for_verify(target) == expected(every_route, target)


@pytest.mark.parametrize("digits", ORACLE_DIGITS)
def test_routes_and_cases_equal_plain_integer_floor_sums(digits):
    for route, stack in ROUTE_STACKS.items():
        ctx = context_for_formula(route, digits)
        result = compute_pi(route, ctx)
        value, certificate, counts = oracles.stack_floor_sum(stack, ctx.scale)
        assert result.value.signed_units == value, (route, digits)
        assert result.error_ulps == certificate, (route, digits)
        assert result.component_terms == counts, (route, digits)
    for case_id, x_den in CASE_X_DEN.items():
        ctx = context_for_case(case_id, digits)
        result = sun(case_id, ctx)
        value, certificate, counts = oracles.stack_floor_sum(paper_stack(x_den, 1), ctx.scale)
        assert (result.value.signed_units, result.error_ulps) == (value, certificate), case_id
        assert result.component_terms == counts, case_id


# x_den of the case whose assembly evaluates each case argument x/(2-x)
CASE_ARG_X_DEN = {Fraction(1): 1, Fraction(1, 3): 2, Fraction(1, 7): 4}
ARCTAN_ARGS = st.one_of(
    st.sampled_from(sorted(CASE_ARG_X_DEN)),
    st.integers(2, 300).map(lambda n: Fraction(1, n)),
)


@settings(max_examples=150, deadline=None)
@given(
    terms=st.lists(st.tuples(st.integers(-20, 20), ARCTAN_ARGS), min_size=1, max_size=4),
    target=st.integers(5, 60),
    guard=st.integers(0, 12),
)
def test_weighted_arctangents_equal_plain_integer_floor_sums(terms, target, guard):
    # the stack is written out by hand: the paper's three series for a case
    # argument, the plain arctan(1/n) series for any other 1/n
    stack = []
    for coeff, arg in terms:
        if arg in CASE_ARG_X_DEN:
            stack += paper_stack(CASE_ARG_X_DEN[arg], coeff)
        else:
            n = arg.denominator
            stack.append((coeff, (1, n, 1, 2, n * n)))
    ctx = PrecisionContext(target, guard)
    value, certificate, counts = oracles.stack_floor_sum(stack, ctx.scale)
    # the certificate covers the target when the error's decade, plus one
    # forfeited digit, fits in the guard
    covered = 10 ** (guard - 1) >= certificate + 1
    try:
        result = sun(terms, ctx)
    except InsufficientPrecisionError:
        assert not covered
        return
    assert covered
    assert (result.value.signed_units, result.error_ulps) == (value, certificate)
    assert result.component_terms == counts
    lo = hi = Fraction(0)
    for coeff, arg in terms:
        if arg == 1:
            arg_lo, arg_hi = oracles.atan_one_bracket(ctx.scale)
        else:
            arg_lo, arg_hi = oracles.atan_bracket(arg, ctx.scale)
        lo += coeff * (arg_lo if coeff >= 0 else arg_hi)
        hi += coeff * (arg_hi if coeff >= 0 else arg_lo)
    exact = oracles.exact_value(result.value)
    allowance = Fraction(certificate, 10**ctx.scale)
    assert exact - allowance <= lo and hi <= exact + allowance


@pytest.mark.parametrize("digits", ORACLE_DIGITS)
@pytest.mark.parametrize("fault", (False, True))
def test_identity_check_equals_plain_integer_floor_sums(digits, fault, request):
    # 2*arctan(1/3) + arctan(1/7) - arctan(1), optionally with JUPITER(x=1/2)
    # given a doubled prefactor numerator, which sends it to the block sum
    stack = paper_stack(2, 2, jupiter_num=2 if fault else 1)
    stack += paper_stack(4, 1) + paper_stack(1, -1)
    if fault:
        request.getfixturevalue("jupiter_fault")
    ctx = context_for_verify(digits)
    check = cross_formula_agreement(ctx)[0]
    value, certificate, _ = oracles.stack_floor_sum(stack, ctx.scale)
    assert (check.residual_ulps, check.bound_ulps) == (abs(value), certificate)
    assert check.passed == (not fault)


@pytest.fixture
def divisions(monkeypatch):
    """Record ``(dividend, divisor)`` of every division the series layer makes."""
    seen = []
    real = series.fx_div_small

    def recording(a, m):
        seen.append((a, m))
        return real(a, m)

    monkeypatch.setattr(series, "fx_div_small", recording)
    return seen


def test_shared_pass_makes_one_long_division_per_denominator(divisions, monkeypatch):
    # (divisions by a non-power of two, power-of-two divisions of the whole
    # numerator 10^scale): one long division per distinct denominator, and
    # the numerator is shifted afresh only when a folded divisor would no
    # longer fit one digit; the last of these is the d = 1 base, once the
    # shift has reached 0 (one shift per denominator before folding: 122, 364)
    expected = {PiFormulaId.COMBINED: (121, 16), PiFormulaId.CASE1: (363, 16)}
    for route, (long_divisions, numerator_shifts) in expected.items():
        divisions.clear()
        ctx = context_for_formula(route, 100)
        compute_pi(route, ctx)
        assert sum(1 for _, m in divisions if m & (m - 1)) == long_divisions, route
        whole = 10**ctx.scale
        shifts = sum(1 for a, m in divisions if not m & (m - 1) and a.signed_units % whole == 0)
        assert shifts == numerator_shifts, route
    # Machin's two series are summed in blocks, with no division per term:
    # one floor for each of the three blocks its 102 terms are cut into, at
    # the cuts the oracle draws (137 per-term long divisions before blocks)
    divisions.clear()
    blocks = []
    real_cuts = series._cuts

    def recording_cuts(spec, n, target):
        cuts = list(real_cuts(spec, n, target))
        assert cuts == oracles.block_cuts(spec.offset, spec.step, n, target)
        blocks.extend(cuts)
        return cuts

    monkeypatch.setattr(series, "_cuts", recording_cuts)
    route = PiFormulaId.MACHIN_ORACLE
    result = compute_pi(route, context_for_formula(route, 100))
    assert result.terms_used == 102
    assert divisions == []
    assert blocks == [(0, 49), (49, 79), (0, 23)]


@pytest.mark.parametrize("digits", (100, 3000))
def test_every_long_division_has_a_one_digit_divisor(divisions, digits):
    for route in PiFormulaId:
        compute_pi(route, context_for_formula(route, digits))
    cross_formula_agreement(context_for_verify(digits))
    long_divisors = [m for _, m in divisions if m & (m - 1)]
    assert long_divisors
    assert max(long_divisors) < 2**sys.int_info.bits_per_digit


@pytest.mark.parametrize("route", list(PiFormulaId))
def test_evaluation_holds_a_few_working_size_integers(route):
    # the shared pass streams its terms through a heap merge; building every
    # term's key before summing would hold about a thousand times this much
    ctx = context_for_formula(route, 5000)
    working = sys.getsizeof(10**ctx.scale)
    tracemalloc.start()
    try:
        compute_pi(route, ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 64 * working, (peak, working)


# --- misprint guards --------------------------------------------------------------
# Historical printings of these series tables carry two transcription slips.
# The arithmetic progressions are authoritative; these guards fail if anyone
# ever "fixes" the coefficients back to the misprinted values.


def test_misprint_guard_saturn_fourth_denominator():
    for case in CaseId:
        saturn = series_for_case(case, Component.SATURN)
        denominators = [saturn.denominator(k) for k in range(5)]
        assert denominators == [1, 5, 9, 13, 17]
        assert saturn.denominator(3) == 13  # the slip prints 3 here
        assert saturn.denominator(3) != 3


def test_misprint_guard_sixth_stack_leading_denominator():
    sixth = combined_series_specs()[5]
    assert sixth.offset == 3  # the slip prints a leading 1 here
    assert sixth.offset != 1
    assert [sixth.denominator(k) for k in range(4)] == [3, 7, 11, 15]


# --- convergence comparison -------------------------------------------------------


def test_compare_rows_order_and_methods():
    rows = compare_convergence(10)
    assert [r.method for r in rows] == [
        "leibniz",
        "sharp_model",
        "euler_x1",
        "euler_x_half",
        "euler_x_quarter",
        "machin",
    ]


def test_compare_at_128_frozen_counts():
    rows = {r.method: r for r in compare_convergence(128)}
    assert rows["euler_x_quarter"].terms_for_target == 42
    assert rows["euler_x_half"].terms_for_target == 70
    assert rows["euler_x1"].terms_for_target == 208
    assert rows["machin"].terms_for_target == 90 + 27
    assert rows["sharp_model"].terms_for_target == 263
    assert rows["leibniz"].terms_for_target is None
    assert rows["leibniz"].symbolic_terms == "~5e127"
    assert "> 10^127" in rows["leibniz"].notes


def test_compare_leibniz_symbolic_at_ten_digits():
    rows = {r.method: r for r in compare_convergence(10)}
    assert rows["leibniz"].symbolic_terms == "~5e9"
    assert rows["sharp_model"].terms_for_target is not None
    assert "not evaluated" in rows["sharp_model"].notes


def test_compare_ratio_strings():
    rows = {r.method: r for r in compare_convergence(12)}
    assert rows["euler_x1"].ratio == "1/4"
    assert rows["euler_x_half"].ratio == "1/64"
    assert rows["euler_x_quarter"].ratio == "1/1024"
    assert rows["leibniz"].ratio == "->1"
    assert rows["sharp_model"].ratio == "1/3"
    assert rows["machin"].ratio == "1/25 & 1/57121"


def test_compare_monotone_superiority():
    # pointwise term-magnitude domination gives <= everywhere; the counts
    # separate strictly once the targets are big enough to tell them apart
    for t in list(range(1, 41)) + [128]:
        rows = {r.method: r for r in compare_convergence(t)}
        quarter = rows["euler_x_quarter"].terms_for_target
        half = rows["euler_x_half"].terms_for_target
        one = rows["euler_x1"].terms_for_target
        assert quarter <= half <= one
        if t >= 6:
            assert quarter < half < one


@pytest.mark.parametrize("target", (10, 50, 128))
def test_compare_counts_consistent_with_rate_column(target):
    # the exact integer count agrees with the log-model prediction built
    # from the same ratios, within two terms, and the rate column is the
    # rate of all the row's series: Machin's two are each counted once
    specs = {
        "sharp_model": [(1, 1, 1, 2, 3)],
        "euler_x1": [(1, 2, 1, 4, 4)],
        "euler_x_half": [(1, 4, 1, 4, 64)],
        "euler_x_quarter": [(1, 8, 1, 4, 1024)],
        "machin": [(1, 5, 1, 2, 25), (1, 239, 1, 2, 57121)],
    }
    rows = {r.method: r for r in compare_convergence(target)}
    for method, series_fields in specs.items():
        predicted = rate = 0
        for pn, pd, offset, step, q_den in series_fields:
            n = oracles.brute_terms_needed(pn, pd, offset, step, q_den, target)
            predicted += (
                target + math.log10(pn / pd) - math.log10(offset + step * n)
            ) / math.log10(q_den)
            rate += 1 / math.log10(q_den)
        assert abs(rows[method].terms_for_target - predicted) <= 2
        assert rows[method].terms_per_digit == pytest.approx(rate)


def test_machin_row_is_sum_of_both_series():
    from rationalpi.series import terms_needed

    rows = {r.method: r for r in compare_convergence(77)}
    expected = terms_needed(arctan_recip_spec(5), 77) + terms_needed(
        arctan_recip_spec(239), 77
    )
    assert rows["machin"].terms_for_target == expected


def test_compare_rejects_nonpositive_target():
    with pytest.raises(ValueError):
        compare_convergence(0)
