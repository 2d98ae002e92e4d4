import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from rationalpi.fixedpoint import ErrorLedger, PrecisionContext, fx_to_decimal_string
from rationalpi.series import (
    CASES,
    CaseId,
    CaseParams,
    Component,
    SeriesSpec,
    consecutive_term_ratio,
    context_for,
    eval_series,
    series_for_case,
    terms_needed,
)

import oracles


ALL_CASES = tuple(CASES.values())
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
        spec = series_for_case(CASES[case_id], component)
        assert spec_fields(spec) == expected, (case_id, component)


def test_case_registry():
    assert CASES[CaseId.X1].target_description == "arctan(1)"
    assert CASES[CaseId.X_HALF].target_description == "arctan(1/3)"
    assert CASES[CaseId.X_QUARTER].target_description == "arctan(1/7)"
    # ratio is x^4/4 exactly
    for case in ALL_CASES:
        assert case.q_den * case.x_num**4 == 4 * case.x_den**4


def test_case_params_ratio_invariant_enforced():
    with pytest.raises(ValueError):
        CaseParams(CaseId.X1, 1, 1, 8, "arctan(1)")


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
    (CASES[CaseId.X_HALF], "q_den", 8),
    (CASES[CaseId.X_HALF], "x_den", 1),
    (PrecisionContext(50, 10), "target_digits", 0),
    (PrecisionContext(50, 10), "guard_digits", 9),
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


@pytest.mark.parametrize(
    "duplicate",
    (copy.copy, copy.deepcopy, lambda record: pickle.loads(pickle.dumps(record))),
    ids=("copy", "deepcopy", "pickle"),
)
def test_records_copy_and_pickle_to_equal_records(duplicate):
    ctx = PrecisionContext(20, 10)
    spec = SeriesSpec(1, 4, 1, 4, 4)
    for record in (spec, CASES[CaseId.X_QUARTER], ctx, eval_series(spec, ctx)):
        twin = duplicate(record)
        assert twin == record and type(twin) is type(record)


# --- term counting ------------------------------------------------------------


def test_terms_needed_frozen_values():
    # brute-forced against the exact first-omitted-term rule
    assert terms_needed(SeriesSpec(1, 8, 1, 4, 1024), 128) == 42
    assert terms_needed(SeriesSpec(1, 1, 1, 4, 4), 1) == 1
    assert terms_needed(SeriesSpec(1, 4, 1, 4, 64), 10) == 5


def test_terms_needed_matches_brute_force():
    rng = random.Random(5)
    for _ in range(60):
        pn = rng.randrange(1, 17)
        pd = rng.randrange(1, 65)
        offset = rng.randrange(1, 13)
        step = rng.randrange(1, 13)
        q_den = rng.randrange(2, 2001)
        target = rng.randrange(1, 45)
        spec = SeriesSpec(pn, pd, offset, step, q_den)
        n = terms_needed(spec, target)
        assert n == oracles.brute_terms_needed(pn, pd, offset, step, q_den, target)


def test_terms_needed_is_minimal():
    # summing one fewer term leaves a first-omitted-term at or above the bound
    for _, _, spec in all_specs():
        for target in (1, 5, 17, 50, 128):
            n = terms_needed(spec, target)
            bound = Fraction(1, 10**target)
            assert spec.term_magnitude(n) < bound
            if n > 0:
                assert spec.term_magnitude(n - 1) >= bound


# --- evaluation ---------------------------------------------------------------


def test_eval_single_surviving_term():
    # ratio so extreme every power after the first underflows the scale
    spec = SeriesSpec(1, 1, 1, 4, 10**40)
    result = eval_series(spec, PrecisionContext(10, 10))
    assert result.terms_used == 1
    assert result.value.as_fraction() == 1  # prefactor / offset


def test_eval_jupiter_x1_closed_form_digits():
    # equals arctan(1/2)/4; reference digits from the exact-rational oracle
    spec = series_for_case(CASES[CaseId.X1], Component.JUPITER)
    result = eval_series(spec, context_for([spec], 30))
    digits = fx_to_decimal_string(result.value, ErrorLedger(result.error_ulps), 30)
    assert digits == "0.115911902250201529053564057865"


@pytest.mark.parametrize("digits", (10, 20, 50))
def test_eval_matches_exact_rational_oracle(digits):
    for _, _, spec in all_specs():
        ctx = context_for([spec], digits)
        result = eval_series(spec, ctx)
        assert result.guaranteed_digits >= digits
        value = result.value.as_fraction()
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
    ctx = context_for([spec], digits)
    result = eval_series(spec, ctx)
    ulp = Fraction(1, 10**ctx.scale)
    # the limit lies between the partial sum and the partial sum plus the
    # first omitted term, so both ends must sit within the certified error
    lo, hi = oracles.series_bracket(*spec_fields(spec), result.terms_used)
    value = result.value.as_fraction()
    assert max(abs(value - lo), abs(value - hi)) <= result.error_ulps * ulp


# weighted stacks: small offsets, steps and numerators so that series share
# denominators and numerators, with odd steps for even denominators
STACK_SPECS = st.builds(
    SeriesSpec,
    prefactor_num=st.integers(min_value=1, max_value=6),
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
# one series twice, so two terms share numerator, denominator and exponent
TWICE = [
    (3, SeriesSpec(2, 8, 1, 2, 4)),
    (-1, SeriesSpec(2, 8, 1, 2, 4)),
    (1, SeriesSpec(1, 2, 3, 4, 16)),
]


@settings(max_examples=100, deadline=None)
@given(stack=STACKS, digits=st.integers(min_value=1, max_value=120))
@example(stack=TWICE, digits=40)
def test_stack_equals_plain_integer_floor_sums(stack, digits):
    ctx = context_for([spec for _, spec in stack], digits)
    result = eval_series(stack, ctx)
    value, certificate, counts = oracles.stack_floor_sum(
        [(weight, spec_fields(spec)) for weight, spec in stack], ctx.scale
    )
    assert result.value.signed_units == value
    assert result.error_ulps == certificate
    assert result.component_terms == counts
    assert result.terms_used == sum(counts)


@settings(max_examples=100, deadline=None)
@given(stack=STACKS, digits=st.integers(min_value=5, max_value=150))
@example(stack=TWICE, digits=40)
def test_ledger_covers_exact_stack_value(stack, digits):
    ctx = context_for([spec for _, spec in stack], digits)
    result = eval_series(stack, ctx)
    ulp = Fraction(1, 10**ctx.scale)
    # the weighted limit lies between the weighted ends of each series' bracket
    lo = hi = Fraction(0)
    for (weight, spec), n in zip(stack, result.component_terms):
        ends = sorted(weight * end for end in oracles.series_bracket(*spec_fields(spec), n))
        lo += ends[0]
        hi += ends[1]
    value = result.value.as_fraction()
    assert max(abs(value - lo), abs(value - hi)) <= result.error_ulps * ulp


def test_alternating_remainder_bounded_by_first_omitted_term():
    for _, _, spec in all_specs():
        fields = spec_fields(spec)
        for n in (1, 3, 10, 27, 50):
            near_limit = oracles.series_partial_sum(*fields, n + 60)
            partial = oracles.series_partial_sum(*fields, n)
            assert abs(near_limit - partial) <= spec.term_magnitude(n)


def test_eval_error_budget_stays_modest():
    # two divisions per term plus the remainder charge
    spec = series_for_case(CASES[CaseId.X1], Component.SATURN)
    ctx = context_for([spec], 50)
    result = eval_series(spec, ctx)
    assert result.error_ulps <= 2 * result.terms_used + 2
    assert result.component_terms == (result.terms_used,)


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
