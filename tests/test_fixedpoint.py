import copy
import pickle
import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from rationalpi.fixedpoint import (
    BoundaryStraddleError,
    ErrorLedger,
    FixedPoint,
    InsufficientPrecisionError,
    PrecisionContext,
    fx_div_small,
    fx_to_decimal_string,
    guaranteed_digit_count,
)

import oracles


# --- construction -------------------------------------------------------------


def test_invalid_fields_rejected():
    # the units take any int and the scale any int of 0 or more, by the
    # constructor and by _replace alike
    valid = FixedPoint(-5, 6)
    for units, scale in ((True, 6), (5.0, 6), (-5, -1)):
        error = ValueError if scale < 0 else TypeError
        with pytest.raises(error):
            FixedPoint(units, scale)
        with pytest.raises(error):
            valid._replace(signed_units=units, scale=scale)


# --- object contract ----------------------------------------------------------


@pytest.mark.parametrize("field", ("signed_units", "scale"))
def test_fields_are_read_only(field):
    value = FixedPoint(5, 4)
    with pytest.raises(AttributeError):
        setattr(value, field, 2)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == FixedPoint(5, 4)


def test_equality_and_hash_follow_the_fields():
    assert FixedPoint(5, 4) == FixedPoint(5, 4)
    assert hash(FixedPoint(5, 4)) == hash(FixedPoint(5, 4))
    assert hash(fx_div_small(FixedPoint(10, 4), 2)) == hash(FixedPoint(5, 4))
    assert len({FixedPoint(5, 4), FixedPoint(5, 4), FixedPoint(-5, 4)}) == 2
    assert FixedPoint(5, 4) != FixedPoint(-5, 4)
    assert FixedPoint(5, 4) != FixedPoint(5, 5)
    assert FixedPoint(5, 4) != FixedPoint(6, 4)


def test_equal_to_its_field_tuple_but_no_tuple_arithmetic():
    a, b = FixedPoint(5, 4), FixedPoint(-3, 4)
    assert a == (5, 4) and (5, 4) == a
    assert hash(a) == hash((5, 4))
    assert FixedPoint(0, 4) != 0
    # a value is a number: tuple concatenation, repetition and ordering are refused
    for refused in (lambda: a + b, lambda: a * 2, lambda: 2 * a, lambda: a < b,
                    lambda: sorted([a, b])):
        with pytest.raises(TypeError):
            refused()


@pytest.mark.parametrize(
    "duplicate",
    (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))),
    ids=("copy", "deepcopy", "pickle"),
)
def test_copies_and_pickles_are_equal(duplicate):
    for value in (FixedPoint(5, 4), FixedPoint(0, 3), FixedPoint(-(10**5010) // 7, 5010)):
        twin = duplicate(value)
        assert twin == value and type(twin) is FixedPoint
        with pytest.raises(AttributeError):
            twin.signed_units = 0


# --- fx_div_small -------------------------------------------------------------


def test_div_truncates_toward_zero():
    assert fx_div_small(FixedPoint(10**6, 6), 3) == FixedPoint(333333, 6)


def test_div_by_one_is_the_operand():
    assert fx_div_small(FixedPoint(10**6, 6), 1) == FixedPoint(10**6, 6)


def test_div_quarter_by_64():
    # 0.25/64 = 0.00390625, truncated at scale 6
    assert fx_div_small(FixedPoint(250000, 6), 64) == FixedPoint(3906, 6)


def test_div_errors():
    with pytest.raises(ZeroDivisionError):
        fx_div_small(FixedPoint(1, 3), 0)
    with pytest.raises(ValueError):
        fx_div_small(FixedPoint(1, 3), -2)


def test_div_error_strictly_below_one_ulp():
    rng = random.Random(7)
    ulp = Fraction(1, 10**9)
    for _ in range(300):
        a = FixedPoint(rng.randrange(-(10**12), 10**12), 9)
        m = rng.randrange(1, 1000)
        stored = fx_div_small(a, m)
        assert abs(oracles.exact_value(stored) - oracles.exact_value(a) / m) < ulp


# --- arithmetic identities over random operands -------------------------------

MAGNITUDES = st.integers(min_value=0, max_value=10**3000)
SIGNS = st.sampled_from((-1, 1))
# every power of two up to 2**64 (the shift path), its neighbours and
# random non-powers
DIVISORS = st.one_of(
    st.integers(min_value=0, max_value=64).map(lambda s: 1 << s),
    st.builds(lambda s, offset: (1 << s) + offset, st.integers(2, 64), st.sampled_from((-1, 1))),
    st.integers(min_value=3, max_value=2**64).filter(lambda m: m & (m - 1)),
)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@PROPERTY_SETTINGS
@given(magnitude=MAGNITUDES, sign=SIGNS, m=DIVISORS)
def test_div_small_is_floor_division_with_one_ulp(magnitude, sign, m):
    a = FixedPoint(sign * magnitude, 7)
    result = fx_div_small(a, m)
    assert result == (sign * magnitude // m, 7)
    # a floor, negative dividends included: at or below the exact quotient,
    # by less than one ulp
    loss = oracles.exact_value(a) / m - oracles.exact_value(result)
    assert 0 <= loss < Fraction(1, 10**7)


@PROPERTY_SETTINGS
@given(
    s=st.integers(min_value=0, max_value=2 * 10**5),
    offset=st.sampled_from((-1, 0, 1)),
    sign=SIGNS,
    rng=st.randoms(use_true_random=False),
)
def test_div_small_by_huge_powers_of_two_and_neighbours(s, offset, sign, rng):
    # 2**s as large as the shifts of the shared series pass, and 2**s +- 1
    m = (1 << s) + offset
    assume(m >= 1)
    magnitude = rng.getrandbits(s + rng.randrange(0, 200))
    result = fx_div_small(FixedPoint(sign * magnitude, 7), m)
    assert result.signed_units == sign * magnitude // m


# --- results satisfy the public constructor's invariants ------------------------


def assert_valid(value: FixedPoint, scale: int) -> None:
    """``value`` satisfies every check the public constructor makes."""
    assert type(value) is FixedPoint
    assert type(value.signed_units) is int
    assert value.scale == scale
    assert FixedPoint(*value) == value


UNITS = st.one_of(st.just(0), st.integers(min_value=-(10**3000), max_value=10**3000))


@PROPERTY_SETTINGS
@given(a=UNITS, m=st.one_of(DIVISORS, st.integers(min_value=1, max_value=10**3001)))
def test_div_small_results_satisfy_invariants(a, m):
    # divisors above |a| floor to 0 or -1
    result = fx_div_small(FixedPoint(a, 9), m)
    assert_valid(result, 9)
    assert result.signed_units == a // m


# --- ledger -------------------------------------------------------------------


def test_ledger_monotone_contract():
    with pytest.raises(ValueError):
        ErrorLedger(-1)


# --- composed properties ------------------------------------------------------


def _random_walk(seed: int, ops: int, scale: int, check_every: int):
    """Mixed-op walk with an exact Fraction shadow; asserts the ledger bound."""
    rng = random.Random(seed)
    ulp = Fraction(1, 10**scale)
    value = FixedPoint(rng.randrange(1, 10**scale), scale)
    shadow = oracles.exact_value(value)
    ledger = ErrorLedger()
    for step in range(ops):
        kind = rng.random()
        if kind < 0.3:
            other = FixedPoint(rng.randrange(-(10**scale), 10**scale), scale)
            value = FixedPoint(value.signed_units + other.signed_units, scale)
            shadow += oracles.exact_value(other)
        elif kind < 0.5:
            m = rng.choice((-3, -2, -1, 1, 2, 3))
            value = FixedPoint(value.signed_units * m, scale)
            shadow *= m
            # the exact multiply scales the error carried so far by |m|
            ledger = ErrorLedger(ledger.ulps * abs(m))
        else:
            m = rng.randrange(1, 98)
            value = fx_div_small(value, m)
            shadow /= m
            # the truncating division adds less than one ulp
            ledger = ErrorLedger(ledger.ulps + 1)
        if step % check_every == 0:
            assert abs(oracles.exact_value(value) - shadow) <= ledger.ulps * ulp
    assert abs(oracles.exact_value(value) - shadow) <= ledger.ulps * ulp


def test_ledger_soundness_short_walks_every_step():
    for seed in range(12):
        _random_walk(seed, ops=200, scale=20, check_every=1)


def test_ledger_soundness_ten_thousand_ops():
    _random_walk(20260810, ops=10_000, scale=30, check_every=97)


# --- precision context --------------------------------------------------------


def test_context_scale_and_validation():
    ctx = PrecisionContext(50, 10)
    assert ctx.scale == 60
    with pytest.raises(ValueError):
        PrecisionContext(0, 10)
    # any guard of 0 or more builds; eval_series refuses one too small
    PrecisionContext(50, 9)
    with pytest.raises(ValueError):
        PrecisionContext(50, -1)


# --- digit emission -----------------------------------------------------------

PI_30 = "3.141592653589793238462643383279"


def test_decimal_string_certified_pi_prefix():
    value = FixedPoint(int(PI_30.replace(".", "")), 30)  # pi at scale 30
    assert fx_to_decimal_string(value, ErrorLedger(40), 20) == "3.14159265358979323846"


def test_decimal_string_exact_half():
    value = FixedPoint(5000, 4)  # 0.5 at scale 4
    assert fx_to_decimal_string(value, ErrorLedger(0), 3) == "0.500"


def test_decimal_string_insufficient_precision():
    value = FixedPoint(5 * 10**49, 50)
    with pytest.raises(InsufficientPrecisionError) as info:
        fx_to_decimal_string(value, ErrorLedger(0), 200)
    assert info.value.guaranteed == 49
    assert "49" in str(info.value)


def test_decimal_string_past_int_str_cap_leaves_cap_alone(int_str_cap):
    # 5000 digits is past CPython's default 4300-digit int/str limit, where
    # one exists; rendering must neither fail nor raise the process-wide cap
    value = FixedPoint(10**5010 // 7, 5010)
    text = fx_to_decimal_string(value, ErrorLedger(1), 5000)
    assert text == "0." + ("142857" * 834)[:5000]
    assert int_str_cap() in (None, 4300)


def test_repr_past_int_str_cap_leaves_cap_alone(int_str_cap):
    assert repr(FixedPoint(-250, 3)) == "FixedPoint(signed_units=-250, scale=3)"
    text = repr(FixedPoint(10**5010 // 7, 5010))
    assert text == f"FixedPoint(signed_units={'142857' * 835}, scale=5010)"
    assert int_str_cap() in (None, 4300)


def test_decimal_string_negative_value():
    assert fx_to_decimal_string(FixedPoint(-2500, 4), ErrorLedger(0), 3) == "-0.250"


def test_decimal_string_straddle_detected():
    # 0.49999999 +- 2 ulps spans the 0.5 boundary for any short prefix
    value = FixedPoint(49_999_999, 8)
    with pytest.raises(BoundaryStraddleError):
        fx_to_decimal_string(value, ErrorLedger(2), 3)
    # with zero error the truncation is honest
    assert fx_to_decimal_string(value, ErrorLedger(0), 3) == "0.499"


def test_decimal_string_straddle_at_zero():
    with pytest.raises(BoundaryStraddleError):
        fx_to_decimal_string(FixedPoint(1, 8), ErrorLedger(5), 2)


def test_decimal_string_reads_the_whole_ledger_at_a_digit_boundary():
    # 0.50000002 - 2 ulps touches 0.500 from above and renders; 0.50000001
    # - 2 ulps falls below it and straddles.  A renderer that read half the
    # ledger would render both
    ledger = ErrorLedger(2)
    assert fx_to_decimal_string(FixedPoint(50_000_002, 8), ledger, 3) == "0.500"
    with pytest.raises(BoundaryStraddleError):
        fx_to_decimal_string(FixedPoint(50_000_001, 8), ledger, 3)


@pytest.mark.parametrize("sign,rendered", ((1, "0.000"), (-1, "-0.000")))
def test_decimal_string_interval_touching_zero_renders(sign, rendered):
    # 2 ulps +- 2 ulps reaches zero from one side only: certifiable, not a
    # straddle of zero
    assert fx_to_decimal_string(FixedPoint(sign * 2, 8), ErrorLedger(2), 3) == rendered


def test_guaranteed_digit_count_formula():
    assert guaranteed_digit_count(30, 0) == 29
    assert guaranteed_digit_count(30, 40) == 27
    assert guaranteed_digit_count(30, 9) == 28
    assert guaranteed_digit_count(30, 10) == 27
    assert guaranteed_digit_count(5, 10**9) == 0


def test_emitted_digits_never_contradict_true_value():
    # every admissible true value (stored +- ledger) shares the emitted prefix
    rng = random.Random(99)
    for _ in range(400):
        scale = rng.randrange(6, 30)
        units = rng.randrange(1, 10**scale * 5)
        ulps = rng.randrange(0, 10 ** rng.randrange(0, scale // 2))
        value = FixedPoint(units, scale)
        ledger = ErrorLedger(ulps)
        want = rng.randrange(0, guaranteed_digit_count(scale, ulps) + 1)
        try:
            emitted = fx_to_decimal_string(value, ledger, want)
        except BoundaryStraddleError:
            continue
        shift = 10 ** (scale - want)
        for true_units in (units - ulps, units, units + ulps):
            assert true_units >= 0
            body = str(true_units // shift)
            if want:
                body = body.zfill(want + 1)
                body = f"{body[:-want]}.{body[-want:]}"
            assert body == emitted
