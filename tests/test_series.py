import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rationalpi import formulas, series
from rationalpi.fixedpoint import (
    ErrorLedger,
    FixedPoint,
    InsufficientPrecisionError,
    PrecisionContext,
    fx_div_small,
    fx_to_decimal_string,
)
from rationalpi.series import (
    CaseId,
    Component,
    SeriesSpec,
    consecutive_term_ratio,
    context_for,
    eval_series,
    series_for_case,
    terms_needed,
)

import oracles


ALL_CASES = tuple(CaseId)
ALL_COMPONENTS = (Component.SATURN, Component.JUPITER, Component.MARS)


def all_specs():
    return [
        (case, component, series_for_case(case, component))
        for case in ALL_CASES
        for component in ALL_COMPONENTS
    ]


def spec_fields(spec: SeriesSpec):
    return (spec.prefactor_num, spec.prefactor_den, spec.offset, spec.step, spec.q_den)


# --- spec construction --------------------------------------------------------

# (case, component) -> (prefactor_num, prefactor_den, offset, step, q_den),
# matching the x/4, x^2/8, x^3/4 prefactor rule at x = 1, 1/2, 1/4
EXPECTED_SPECS = {
    (CaseId.X1, Component.SATURN): (1, 4, 1, 4, 4),
    (CaseId.X1, Component.JUPITER): (1, 8, 1, 2, 4),
    (CaseId.X1, Component.MARS): (1, 4, 3, 4, 4),
    (CaseId.X_HALF, Component.SATURN): (1, 8, 1, 4, 64),
    (CaseId.X_HALF, Component.JUPITER): (1, 32, 1, 2, 64),
    (CaseId.X_HALF, Component.MARS): (1, 32, 3, 4, 64),
    (CaseId.X_QUARTER, Component.SATURN): (1, 16, 1, 4, 1024),
    (CaseId.X_QUARTER, Component.JUPITER): (1, 128, 1, 2, 1024),
    (CaseId.X_QUARTER, Component.MARS): (1, 256, 3, 4, 1024),
}


def test_series_for_case_full_table():
    for (case_id, component), expected in EXPECTED_SPECS.items():
        spec = series_for_case(case_id, component)
        assert spec_fields(spec) == expected, (case_id, component)


def test_case_registry():
    # a case is its x: the ratio x^4/4 and the target arctan(x/(2-x)) are
    # derived from the CaseId value
    expected = {
        CaseId.X1: (4, Fraction(1)),
        CaseId.X_HALF: (64, Fraction(1, 3)),
        CaseId.X_QUARTER: (1024, Fraction(1, 7)),
    }
    for case, (q_den, _) in expected.items():
        assert {series_for_case(case, c).q_den for c in ALL_COMPONENTS} == {q_den}, case
    assert formulas._CASE_OF_ARG == {arg: case for case, (_, arg) in expected.items()}


def test_series_spec_validation():
    with pytest.raises(ValueError):
        SeriesSpec(0, 1, 1, 4, 4)
    with pytest.raises(ValueError):
        SeriesSpec(1, 1, 0, 4, 4)
    with pytest.raises(ValueError):
        SeriesSpec(1, 1, 1, 0, 4)
    with pytest.raises(ValueError):
        SeriesSpec(1, 1, 1, 4, 1)


# a valid record of each validating type, and field edits its checks refuse
VALIDATED_EDITS = (
    (SeriesSpec(1, 4, 1, 4, 4), "prefactor_num", 0),
    (SeriesSpec(1, 4, 1, 4, 4), "prefactor_den", 0),
    (SeriesSpec(1, 4, 1, 4, 4), "offset", 0),
    (SeriesSpec(1, 4, 1, 4, 4), "step", 0),
    (SeriesSpec(1, 4, 1, 4, 4), "q_den", 1),
    # the spec a case derives, with the field the verify fault edits; the
    # two rows also keep the numbering, so later rows keep their ids
    (series_for_case(CaseId.X_HALF, Component.JUPITER), "q_den", 1),
    (series_for_case(CaseId.X_HALF, Component.JUPITER), "prefactor_num", 0),
    (PrecisionContext(50, 10), "target_digits", 0),
    (PrecisionContext(50, 10), "guard_digits", -1),
    (FixedPoint(5, 4), "scale", -1),
    (ErrorLedger(3), "ulps", -1),
)


@pytest.mark.parametrize("record,field,bad", VALIDATED_EDITS)
def test_replace_runs_the_constructor_checks(record, field, bad):
    with pytest.raises(ValueError):
        record._replace(**{field: bad})
    with pytest.raises(ValueError):
        type(record)._make(bad if name == field else value
                           for name, value in record._asdict().items())
    # an edit the checks accept keeps the type
    same = record._replace(**{field: getattr(record, field)})
    assert same == record and type(same) is type(record)


# a valid record of each checked type
CHECKED_RECORDS = (SeriesSpec(1, 4, 1, 4, 4), PrecisionContext(50, 10), FixedPoint(5, 4),
                   ErrorLedger(3))


@pytest.mark.parametrize("bad", (2.0, True, "1", None), ids=("float", "bool", "str", "none"))
@pytest.mark.parametrize("record", CHECKED_RECORDS, ids=lambda record: type(record).__name__)
def test_every_record_field_must_be_an_int(record, bad):
    cls = type(record)
    for field in record._fields:
        fields = {**record._asdict(), field: bad}
        builds = (lambda: cls(**fields), lambda: record._replace(**{field: bad}),
                  lambda: cls._make(fields.values()))
        for build in builds:
            with pytest.raises(TypeError, match=f"^{field} must be an int, got "):
                build()


@pytest.mark.parametrize("record", CHECKED_RECORDS, ids=lambda record: type(record).__name__)
def test_a_field_below_its_bound_names_the_bound(record):
    for field, least in zip(record._fields, type(record)._least):
        if least is None:
            continue
        message = f"^{field} must be at least {least}, got {least - 1}$"
        with pytest.raises(ValueError, match=message):
            record._replace(**{field: least - 1})


SATURN_X1 = series_for_case(CaseId.X1, Component.SATURN)


@pytest.mark.parametrize(
    "call,name",
    (
        # a float weight would certify 26 digits of a value wrong from the 17th
        (lambda: eval_series([(2.0, SATURN_X1)], PrecisionContext(20, 10)), "weight"),
        (lambda: terms_needed(SATURN_X1, 2.5), "target_digits"),
        (lambda: context_for([(1, SATURN_X1)], 2.5), "target_digits"),
        (lambda: context_for([(2.0, SATURN_X1)], 20), "weight"),
        (lambda: formulas.compare_convergence(2.5), "target_digits"),
        (lambda: FixedPoint(2.5, 3), "signed_units"),
        (lambda: ErrorLedger(186.0), "ulps"),
        (lambda: PrecisionContext(True, 10), "target_digits"),
        # these two name their argument, not a failure inside Fraction or range
        (lambda: consecutive_term_ratio(SATURN_X1, 1.5), "k"),
        (lambda: fx_to_decimal_string(FixedPoint(5, 4), ErrorLedger(0), 1.5), "want_digits"),
        # a float divisor raised AttributeError, and True divided by 1
        (lambda: fx_div_small(FixedPoint(10**20 + 12345, 8), 2.5), "m"),
        (lambda: fx_div_small(FixedPoint(10**20 + 12345, 8), True), "m"),
    ),
    ids=("eval_series", "terms_needed", "context_for", "context_for_weight",
         "compare_convergence", "FixedPoint", "ErrorLedger", "PrecisionContext",
         "consecutive_term_ratio", "fx_to_decimal_string", "fx_div_small_float",
         "fx_div_small_bool"),
)
def test_a_non_int_argument_is_refused_by_name(call, name):
    with pytest.raises(TypeError, match=f"^{name} must be an int, got "):
        call()


def test_want_digits_below_zero_names_the_bound():
    with pytest.raises(ValueError, match="^want_digits must be at least 0, got -1$"):
        fx_to_decimal_string(FixedPoint(5, 4), ErrorLedger(0), -1)


@pytest.mark.parametrize(
    "call",
    (
        # the planner's first probe is the target itself, so a target below
        # 1 must be refused by name before it
        lambda: context_for([(1, SATURN_X1)], -40),
        lambda: formulas.context_for_formula(formulas.PiFormulaId.MACHIN_ORACLE, -40),
        lambda: formulas.context_for_case(CaseId.X1, -40),
        lambda: formulas.context_for_verify(-40),
    ),
    ids=("context_for", "context_for_formula", "context_for_case", "context_for_verify"),
)
def test_a_planner_names_the_callers_target(call):
    with pytest.raises(ValueError, match="^target_digits must be at least 1, got -40$"):
        call()


@pytest.mark.parametrize(
    "duplicate",
    (copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))),
    ids=("copy", "deepcopy", "pickle"),
)
def test_records_copy_and_pickle_to_equal_records(duplicate):
    ctx = PrecisionContext(20, 10)
    spec = SeriesSpec(1, 4, 1, 4, 4)
    records = (spec, CaseId.X_QUARTER, ctx, eval_series([(1, spec)], ctx),
               FixedPoint(-5, 4), ErrorLedger(3))
    for record in records:
        twin = duplicate(record)
        assert twin == record and type(twin) is type(record)


# --- term counting ------------------------------------------------------------


def test_terms_needed_frozen_values():
    # brute-forced against the exact first-omitted-term rule
    assert terms_needed(SeriesSpec(1, 8, 1, 4, 1024), 128) == 42
    assert terms_needed(SeriesSpec(1, 1, 1, 4, 4), 1) == 1
    assert terms_needed(SeriesSpec(1, 4, 1, 4, 64), 10) == 5


def test_terms_needed_matches_brute_force():
    # the float seed leaves out log(offset + step*N) / log(q_den), so large
    # denominators and small ratios send the search many steps down from its
    # seed
    rng = random.Random(5)

    def up_to(digits):
        return rng.randrange(1, 10 ** rng.randint(1, digits) + 1)

    for _ in range(300):
        pn, pd = up_to(30), up_to(30)
        offset, step = up_to(6), up_to(6)
        q_den = rng.choice((2, 3, 4, 5, 64, 1024, 57121, rng.randrange(2, 2001)))
        target = rng.randrange(1, 3001)
        spec = SeriesSpec(pn, pd, offset, step, q_den)
        n = terms_needed(spec, target)
        assert n == oracles.brute_terms_needed(pn, pd, offset, step, q_den, target)
    # a tie: term 1 of this series, 1/(10 * 10), equals 10**-2 exactly, so
    # it is still summed and the first omitted term is term 2
    assert terms_needed(SeriesSpec(1, 1, 1, 9, 10), 2) == 2
    assert oracles.brute_terms_needed(1, 1, 1, 9, 10, 2) == 2


def test_brute_terms_needed_is_its_definition():
    # the oracle's integer scan against the smallest N whose exact term is
    # below 10**-t; the tie's term 1 equals 10**-2 and still counts
    rng = random.Random(7)
    cases = [((1, 1, 1, 9, 10), 2)]
    for _ in range(300):
        raw = (rng.randrange(1, 17), rng.randrange(1, 65), rng.randrange(1, 13),
               rng.randrange(1, 13), rng.randrange(2, 300))
        cases.append((raw, rng.randrange(1, 30)))
    for raw, target in cases:
        bound = Fraction(1, 10**target)
        n = 0
        while abs(oracles.series_term(*raw, n)) >= bound:
            n += 1
        assert oracles.brute_terms_needed(*raw, target) == n, (raw, target)


def test_terms_needed_is_minimal():
    # summing one fewer term leaves a first-omitted-term at or above the bound
    for _, _, spec in all_specs():
        for target in (1, 5, 17, 50, 128):
            n = terms_needed(spec, target)
            bound = Fraction(1, 10**target)
            assert abs(oracles.series_term(*spec_fields(spec), n)) < bound
            if n > 0:
                assert abs(oracles.series_term(*spec_fields(spec), n - 1)) >= bound


# --- evaluation ---------------------------------------------------------------


def test_eval_single_surviving_term():
    # ratio so extreme every power after the first underflows the scale
    spec = SeriesSpec(1, 1, 1, 4, 10**40)
    result = eval_series([(1, spec)], PrecisionContext(10, 10))
    assert result.terms_used == 1
    assert oracles.exact_value(result.value) == 1  # prefactor / offset


def test_eval_jupiter_x1_closed_form_digits():
    # equals arctan(1/2)/4; reference digits from the exact-rational oracle
    spec = series_for_case(CaseId.X1, Component.JUPITER)
    result = eval_series([(1, spec)], context_for([(1, spec)], 30))
    digits = fx_to_decimal_string(result.value, ErrorLedger(result.error_ulps), 30)
    assert digits == "0.115911902250201529053564057865"


@pytest.mark.parametrize("digits", (10, 20, 50))
def test_eval_matches_exact_rational_oracle(digits):
    for _, _, spec in all_specs():
        ctx = context_for([(1, spec)], digits)
        result = eval_series([(1, spec)], ctx)
        assert result.guaranteed_digits >= digits
        value = oracles.exact_value(result.value)
        allowance = Fraction(result.error_ulps, 10**ctx.scale)
        fields = spec_fields(spec)
        # against the partial sum of exactly the terms it consumed
        partial = oracles.series_partial_sum(*fields, result.terms_used)
        assert abs(value - partial) <= allowance
        # and against a rigorous bracket of the full series value
        lo, hi = oracles.series_bracket(*fields, result.terms_used)
        assert value - allowance <= lo and hi <= value + allowance


# q_den from every power of two up to 2**20 and from random non-powers
Q_DENS = st.one_of(
    st.integers(min_value=1, max_value=20).map(lambda s: 1 << s),
    st.integers(min_value=3, max_value=2**20).filter(lambda q: q & (q - 1)),
)
PREFACTOR_DENS = st.one_of(
    st.integers(min_value=0, max_value=20).map(lambda s: 1 << s),
    st.integers(min_value=3, max_value=2**20),
)


@settings(max_examples=100, deadline=None)
@given(
    spec=st.builds(
        SeriesSpec,
        prefactor_num=st.integers(min_value=1, max_value=1000),
        prefactor_den=PREFACTOR_DENS,
        offset=st.integers(min_value=1, max_value=1000),
        step=st.integers(min_value=1, max_value=1000),
        q_den=Q_DENS,
    ),
    digits=st.integers(min_value=5, max_value=150),
)
def test_ledger_covers_exact_series_value(spec, digits):
    ctx = context_for([(1, spec)], digits)
    result = eval_series([(1, spec)], ctx)
    ulp = Fraction(1, 10**ctx.scale)
    # the limit lies between the partial sum and the partial sum plus the
    # first omitted term, so both ends must sit within the certified error
    lo, hi = oracles.series_bracket(*spec_fields(spec), result.terms_used)
    value = oracles.exact_value(result.value)
    assert max(abs(value - lo), abs(value - hi)) <= result.error_ulps * ulp


# numerator 1 in about half the draws: only a power-of-two series with pn = 1
# takes the shared pass, and every other one the block sum
NUMERATORS = st.one_of(st.just(1), st.integers(min_value=2, max_value=6))
# weighted stacks: small offsets and steps so that series share denominators,
# with odd steps for even denominators
STACK_SPECS = st.builds(
    SeriesSpec,
    prefactor_num=NUMERATORS,
    prefactor_den=st.one_of(
        st.integers(min_value=0, max_value=12).map(lambda s: 1 << s),
        st.integers(min_value=3, max_value=100),
    ),
    offset=st.integers(min_value=1, max_value=6),
    step=st.integers(min_value=1, max_value=4),
    q_den=st.one_of(
        st.integers(min_value=1, max_value=12).map(lambda s: 1 << s),
        st.integers(min_value=3, max_value=300),
    ),
)
STACKS = st.lists(
    st.tuples(st.integers(min_value=-20, max_value=20), STACK_SPECS), min_size=1, max_size=6
)
# one series twice in the shared pass, so two terms share denominator and
# exponent
TWICE = [
    (3, SeriesSpec(1, 8, 1, 2, 4)),
    (-1, SeriesSpec(1, 8, 1, 2, 4)),
    (1, SeriesSpec(1, 2, 3, 4, 16)),
]



def identity_stack(jupiter_num=1):
    """2*arctan(1/3) + arctan(1/7) - arctan(1) as one stack of the nine case
    series, optionally with JUPITER(x=1/2) given the numerator
    ``jupiter_num``: no command sums x = 1, 1/2 and 1/4 in one pass, so
    these stacks keep such a pass pinned.  A doubled JUPITER numerator
    takes the block sum, and the other eight series keep the pass."""
    stack = []
    for case, weight in ((CaseId.X_HALF, 2), (CaseId.X_QUARTER, 1), (CaseId.X1, -1)):
        for component, inner in zip(ALL_COMPONENTS, (2, 2, 1)):
            pn, *rest = EXPECTED_SPECS[case, component]
            if (case, component) == (CaseId.X_HALF, Component.JUPITER):
                pn = jupiter_num
            stack.append((weight * inner, SeriesSpec(pn, *rest)))
    return stack


def assert_equals_floor_sums(stack, digits):
    ctx = context_for(stack, digits)
    result = eval_series(stack, ctx)
    value, certificate, counts = oracles.stack_floor_sum(
        [(weight, spec_fields(spec)) for weight, spec in stack], ctx.scale
    )
    assert result.value.signed_units == value
    assert result.error_ulps == certificate
    assert result.component_terms == counts
    assert result.terms_used == sum(counts)
    return counts


@settings(max_examples=100, deadline=None)
@given(stack=STACKS, digits=st.integers(min_value=1, max_value=120))
@example(stack=TWICE, digits=40)
@example(stack=identity_stack(), digits=120)
@example(stack=identity_stack(jupiter_num=2), digits=120)
# the same progression and powers of two, split by numerator: pn = 1 takes
# the shared pass and pn = 3 the block sum
@example(stack=[(1, SeriesSpec(1, 8, 1, 2, 4)), (2, SeriesSpec(3, 8, 1, 2, 4))], digits=60)
def test_stack_equals_plain_integer_floor_sums(stack, digits):
    assert_equals_floor_sums(stack, digits)


# with pn = 1 and a power-of-two prefactor denominator, q_den = 2**15 goes
# to the shared pass, where 30-bit digits leave too little headroom to fold
# its shift into the next denominator's divisor; 2**15 - 1 and 2**15 + 1,
# and any other numerator or prefactor denominator, go to the block sum
FOLD_EDGE_SPECS = st.builds(
    SeriesSpec,
    prefactor_num=NUMERATORS,
    prefactor_den=st.one_of(
        st.integers(min_value=0, max_value=12).map(lambda s: 1 << s),
        st.integers(min_value=3, max_value=100),
    ),
    offset=st.integers(min_value=1, max_value=2**16),
    step=st.integers(min_value=1, max_value=2**16),
    q_den=st.sampled_from((2**15 - 1, 2**15, 2**15 + 1)),
)
# denominators from 2**30 up have no headroom to fold a shift into, so the
# shared pass shifts to the group's own exponent and divides by d alone
WIDE_DENOMINATOR_SPECS = st.builds(
    SeriesSpec,
    prefactor_num=st.just(1),
    prefactor_den=st.integers(min_value=0, max_value=12).map(lambda s: 1 << s),
    offset=st.integers(min_value=2**30, max_value=2**62),
    step=st.integers(min_value=1, max_value=2**40),
    q_den=st.integers(min_value=1, max_value=12).map(lambda s: 1 << s),
)
FOLD_EDGE_STACKS = st.lists(
    st.tuples(
        st.integers(min_value=-20, max_value=20),
        st.one_of(FOLD_EDGE_SPECS, WIDE_DENOMINATOR_SPECS, STACK_SPECS),
    ),
    min_size=1,
    max_size=6,
)


@settings(max_examples=100, deadline=None)
@given(stack=FOLD_EDGE_STACKS, digits=st.integers(min_value=1, max_value=120))
@example(
    stack=[(1, SeriesSpec(1, 3, 1, 2, q_den)) for q_den in (2**15 - 1, 2**15, 2**15 + 1)],
    digits=60,
)
@example(
    stack=[(1, SeriesSpec(1, 4, 1, 2, 2**15)), (-2, SeriesSpec(1, 1, 3, 4, 2**15))], digits=60
)
@example(
    stack=[(1, SeriesSpec(1, 2, 2**30, 1, 4)), (3, SeriesSpec(1, 8, 2**31 + 1, 2, 2))], digits=50
)
@example(stack=[(1, SeriesSpec(5, 7, 2**30, 2**30, 2**15 - 1))], digits=50)
def test_fold_edges_equal_plain_integer_floor_sums(stack, digits):
    assert_equals_floor_sums(stack, digits)


@pytest.mark.parametrize("bits", (8, 15))
@settings(max_examples=50, deadline=None)
@given(stack=STACKS, digits=st.integers(min_value=1, max_value=120))
@example(stack=TWICE, digits=40)
def test_narrow_digits_equal_plain_integer_floor_sums(bits, stack, digits):
    # a narrow digit makes the shared pass shift afresh often, as on a
    # 15-bit-digit build; the block sum does not read the digit size
    divisors = []
    real = series.fx_div_small

    def recording(a, m):
        divisors.append(m)
        return real(a, m)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(series, "_DIGIT_BITS", bits)
        patch.setattr(series, "fx_div_small", recording)
        counts = assert_equals_floor_sums(stack, digits)
    # a long division wider than one digit divides by one series parameter
    # alone, never by a folded product
    parameters = set()
    for (_, spec), n in zip(stack, counts):
        parameters.update((spec.prefactor_den, spec.q_den))
        parameters.update(spec.denominator(k) for k in range(n))
    assert all(m in parameters for m in divisors if m >= 2**bits and m & (m - 1))


@settings(max_examples=100, deadline=None)
@given(stack=STACKS, digits=st.integers(min_value=5, max_value=150))
@example(stack=TWICE, digits=40)
def test_ledger_covers_exact_stack_value(stack, digits):
    ctx = context_for(stack, digits)
    result = eval_series(stack, ctx)
    ulp = Fraction(1, 10**ctx.scale)
    # the weighted limit lies between the weighted ends of each series' bracket
    lo = hi = Fraction(0)
    for (weight, spec), n in zip(stack, result.component_terms):
        ends = sorted(weight * end for end in oracles.series_bracket(*spec_fields(spec), n))
        lo += ends[0]
        hi += ends[1]
    value = oracles.exact_value(result.value)
    assert max(abs(value - lo), abs(value - hi)) <= result.error_ulps * ulp


FLOOR_STACKS = st.lists(
    st.tuples(
        st.sampled_from((-3, -2, -1, 1, 2, 3)),
        st.builds(
            SeriesSpec,
            prefactor_num=st.integers(min_value=1, max_value=6),
            prefactor_den=st.sampled_from((1, 2, 4, 8, 3, 5, 7)),
            # a 40-bit denominator alone meets a block's bit target, three
            # quarters of the bits of pn * 10**scale, up to about scale 16,
            # so such blocks hold exactly two terms
            offset=st.one_of(st.integers(min_value=1, max_value=6),
                             st.integers(min_value=1, max_value=10**12)),
            step=st.integers(min_value=1, max_value=4),
            q_den=st.sampled_from((2, 4, 64, 1024, 3, 9, 25)),
        ),
    ),
    min_size=1,
    max_size=3,
)


@settings(max_examples=200, deadline=None)
@given(
    stack=FLOOR_STACKS,
    ctx=st.builds(PrecisionContext, st.integers(min_value=3, max_value=40),
                  st.integers(min_value=0, max_value=8)),
)
# two terms at scale 3: 166 and 10 ulps stored for 166.67 and 10, and a
# remainder of 0.67 after them, so the value is 1.33 ulps low; ceil(N/2)
# alone would charge 1
@example([(1, SeriesSpec(1, 2, 3, 2, 10))], PrecisionContext(1, 2))
# 12 terms in six blocks of two, as each 40-bit denominator meets the
# 40-bit target at scale 16: ceil(N/2) blocks, the most the certificate allows
@example([(1, SeriesSpec(1, 3, 10**12, 1, 2))], PrecisionContext(14, 2))
def test_certificate_bounds_the_floored_stack(stack, ctx):
    # |stored - exact| < sum(|w| * (ceil(N/2) + 1)) ulps, strictly, at both
    # ends of the weighted oracle bracket, whatever guard the caller chose
    try:
        result = eval_series(stack, ctx)
    except InsufficientPrecisionError as exc:
        assert exc.guaranteed < ctx.target_digits
        return
    lo = hi = Fraction(0)
    for (weight, spec), n in zip(stack, result.component_terms):
        ends = sorted(weight * end for end in oracles.series_bracket(*spec_fields(spec), n))
        lo += ends[0]
        hi += ends[1]
    value = oracles.exact_value(result.value)
    ulp = Fraction(1, 10**ctx.scale)
    assert max(abs(value - lo), abs(value - hi)) < result.error_ulps * ulp
    assert result.error_ulps == sum(abs(weight) * (-(-n // 2) + 1)
                                    for (weight, _), n in zip(stack, result.component_terms))


@settings(max_examples=200, deadline=None)
@given(
    offset=st.one_of(st.integers(min_value=1, max_value=6),
                     st.integers(min_value=1, max_value=10**12)),
    step=st.integers(min_value=1, max_value=2**20),
    n=st.integers(min_value=1, max_value=300),
    target=st.integers(min_value=1, max_value=400),
)
# every denominator alone passes the target
@example(offset=10**12, step=1, n=5, target=8)
def test_block_cuts_cover_the_terms_two_or_more_at_a_time(offset, step, n, target):
    cuts = list(series._cuts(SeriesSpec(1, 3, offset, step, 5), n, target))
    # in order and without a gap from 0 to n, every block but the last of
    # two terms or more, so the certificate's ceil(n/2) covers the blocks
    assert [lo for lo, _ in cuts] == [0, *(hi for _, hi in cuts[:-1])]
    assert cuts[-1][1] == n and cuts[-1][0] < n
    assert all(hi - lo >= 2 for lo, hi in cuts[:-1])
    assert len(cuts) <= (n + 1) // 2
    assert cuts == oracles.block_cuts(offset, step, n, target)


def test_alternating_remainder_bounded_by_first_omitted_term():
    for _, _, spec in all_specs():
        fields = spec_fields(spec)
        for n in (1, 3, 10, 27, 50):
            near_limit = oracles.series_partial_sum(*fields, n + 60)
            partial = oracles.series_partial_sum(*fields, n)
            assert abs(near_limit - partial) <= abs(oracles.series_term(*spec_fields(spec), n))


def test_eval_error_budget_stays_modest():
    # one ulp per pair of floored terms, rounded up, plus the remainder charge
    spec = series_for_case(CaseId.X1, Component.SATURN)
    ctx = context_for([(1, spec)], 50)
    result = eval_series([(1, spec)], ctx)
    assert result.error_ulps == (result.terms_used + 1) // 2 + 1
    assert result.component_terms == (result.terms_used,)


def _no_summing(*args):
    raise AssertionError("terms were summed")


def test_weighted_stack_refused_from_its_certificate_before_summing(monkeypatch):
    # alone the series' 16 terms cost 9 ulps and certify 28 digits at scale
    # 30; the weight multiplies those ulps, and the weighted certificate
    # covers 19
    monkeypatch.setattr(series, "_shared_pass", _no_summing)
    monkeypatch.setattr(series, "_block_sum", _no_summing)
    stack = [(10**9, series_for_case(CaseId.X_HALF, Component.SATURN))]
    with pytest.raises(InsufficientPrecisionError) as info:
        eval_series(stack, PrecisionContext(20, 10))
    assert (info.value.requested, info.value.guaranteed) == (20, 19)


@pytest.mark.parametrize("weight", (1, 7, 10**3, 10**6, 10**9, 10**12))
@pytest.mark.parametrize("target", (5, 20, 60))
def test_result_certifies_its_target_or_is_refused(weight, target):
    # planned at weight 1, so the heavier weights outgrow the guard
    specs = [series_for_case(CaseId.X1, component) for component in ALL_COMPONENTS]
    ctx = context_for([(1, spec) for spec in specs], target)
    try:
        result = eval_series([(weight, spec) for spec in specs], ctx)
    except InsufficientPrecisionError as exc:
        assert exc.guaranteed < target
    else:
        assert result.guaranteed_digits >= target


def test_context_counts_every_series_at_its_weight():
    # planned at 11 digits SATURN sums 15 terms for 9 ulps: one guard digit
    # for the certificate, one forfeited and 8 spare; twice over, or at
    # weight 2 or -2, its 18 ulps need a second digit, and at scale 12 its
    # 16 terms still cost 18
    spec = series_for_case(CaseId.X1, Component.SATURN)
    assert oracles.brute_terms_needed(*spec_fields(spec), 11) == 15
    assert oracles.brute_terms_needed(*spec_fields(spec), 12) == 16
    assert context_for([(1, spec)], 1) == PrecisionContext(1, 10)
    for stack in ([(1, spec)] * 2, [(2, spec)], [(-2, spec)]):
        assert context_for(stack, 1) == PrecisionContext(1, 11)


@pytest.mark.parametrize("target,terms,guard", ((186, 195, 11), (187, 196, 11), (188, 197, 12)))
def test_context_guard_crosses_a_decade_of_ulps(target, terms, guard):
    # ratio 1/10 over denominators k+1: one more term per scale digit here,
    # so at guard 11 the three targets are certified to 99, 99 and 100 ulps,
    # and only the last, whose odd count still rounds its half up, needs a
    # third digit for the certificate
    spec = SeriesSpec(1, 1, 1, 1, 10)
    assert oracles.brute_terms_needed(*spec_fields(spec), target + 11) == terms
    assert context_for([(1, spec)], target) == PrecisionContext(target, guard)


MACHIN = [(16, formulas.arctan_recip_spec(5)), (-4, formulas.arctan_recip_spec(239))]


@settings(max_examples=100, deadline=None)
@given(stack=STACKS, target=st.integers(min_value=1, max_value=60))
# pi by Machin at 1 digit, and a stack whose weights are all 0
@example(stack=MACHIN, target=1)
@example(stack=[(0, SATURN_X1)], target=5)
def test_context_guard_is_the_least_that_leaves_8_spare_digits(stack, target):
    ctx = context_for(stack, target)
    assert eval_series(stack, ctx).guaranteed_digits == target + 8
    # the guard is the least, and one guard digit adds at most one certified
    # digit, so one fewer leaves exactly 7
    fewer = ctx._replace(guard_digits=ctx.guard_digits - 1)
    assert eval_series(stack, fewer).guaranteed_digits == target + 7


def test_context_for_no_series_takes_the_guard_floor():
    # no series, or only weight 0, certify to 0 ulps: the guard is the one
    # forfeited digit and the 8 spare
    assert context_for([], 5) == PrecisionContext(5, 9)
    assert context_for([(0, SATURN_X1)], 5) == PrecisionContext(5, 9)


@pytest.mark.parametrize(
    "weight,case,component,target",
    (
        (10**23, CaseId.X_QUARTER, Component.MARS, 20),
        (10**51, CaseId.X1, Component.SATURN, 60),
        (10**200, CaseId.X1, Component.SATURN, 5),
    ),
    ids=("weight_1e23", "weight_1e51", "weight_1e200"),
)
def test_heavy_weight_guard_keeps_its_spare_digits(weight, case, component, target):
    # guards above 30 digits: the certificate is planned at the scale the
    # guard gives, so the 8 spare digits still hold
    stack = [(weight, series_for_case(case, component))]
    ctx = context_for(stack, target)
    assert ctx.guard_digits > 30
    assert eval_series(stack, ctx).guaranteed_digits >= target + 8


# --- term ratios --------------------------------------------------------------


def test_consecutive_term_ratio_instances():
    assert consecutive_term_ratio(SeriesSpec(1, 1, 1, 4, 64), 0) == Fraction(1, 320)
    assert consecutive_term_ratio(SeriesSpec(1, 1, 3, 4, 4), 1) == Fraction(7, 44)


def test_consecutive_term_ratio_matches_oracle_and_bound():
    rng = random.Random(11)
    for _ in range(80):
        spec = SeriesSpec(
            rng.randrange(1, 9),
            rng.randrange(1, 33),
            rng.randrange(1, 9),
            rng.randrange(1, 9),
            rng.randrange(2, 300),
        )
        k = rng.randrange(0, 25)
        ratio = consecutive_term_ratio(spec, k)
        fields = spec_fields(spec)
        expected = abs(oracles.series_term(*fields, k + 1)) / abs(
            oracles.series_term(*fields, k)
        )
        assert ratio == expected
        assert ratio < Fraction(1, spec.q_den)


def test_consecutive_term_ratio_rejects_negative_k():
    with pytest.raises(ValueError):
        consecutive_term_ratio(SeriesSpec(1, 1, 1, 4, 4), -1)
