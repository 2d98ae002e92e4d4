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
    ScaleMismatchError,
    fx_add,
    fx_div_small,
    fx_mul_small,
    fx_to_decimal_string,
    guaranteed_digit_count,
)


def fp(units: int, scale: int) -> FixedPoint:
    return FixedPoint.from_scaled(units, scale)


# --- construction -------------------------------------------------------------


def test_zero_is_canonical():
    zero = fp(0, 6)
    assert zero.sign == 0 and zero.magnitude == 0
    with pytest.raises(ValueError):
        FixedPoint(1, 0, 6)
    with pytest.raises(ValueError):
        FixedPoint(0, 5, 6)


def test_invalid_fields_rejected():
    with pytest.raises(ValueError):
        FixedPoint(2, 1, 6)
    with pytest.raises(ValueError):
        FixedPoint(1, -1, 6)
    with pytest.raises(ValueError):
        FixedPoint(1, 1, -1)


def test_as_fraction_roundtrip():
    assert fp(-375, 3).as_fraction() == Fraction(-375, 1000)
    assert FixedPoint.from_int(7, 4).as_fraction() == 7


# --- object contract ----------------------------------------------------------


@pytest.mark.parametrize("field", ("sign", "magnitude", "scale"))
def test_fields_are_read_only(field):
    value = FixedPoint(1, 5, 4)
    with pytest.raises(AttributeError):
        setattr(value, field, 2)
    with pytest.raises(AttributeError):
        delattr(value, field)
    with pytest.raises(AttributeError):
        value.extra = 1
    assert value == FixedPoint(1, 5, 4)


def test_equality_and_hash_follow_the_fields():
    assert FixedPoint(1, 5, 4) == FixedPoint(1, 5, 4)
    assert hash(FixedPoint(1, 5, 4)) == hash(FixedPoint(1, 5, 4))
    assert hash(fx_add(fp(2, 4), fp(3, 4))) == hash(FixedPoint(1, 5, 4))
    assert len({FixedPoint(1, 5, 4), fp(5, 4), FixedPoint(-1, 5, 4)}) == 2
    assert FixedPoint(1, 5, 4) != FixedPoint(-1, 5, 4)
    assert FixedPoint(1, 5, 4) != FixedPoint(1, 5, 5)
    assert FixedPoint(1, 5, 4) != FixedPoint(1, 6, 4)


def test_equal_only_to_fixed_points():
    assert FixedPoint(1, 5, 4) != (1, 5, 4)
    assert (1, 5, 4) != FixedPoint(1, 5, 4)
    assert FixedPoint(0, 0, 4) != 0


@pytest.mark.parametrize(
    "duplicate",
    (copy.copy, copy.deepcopy, lambda value: pickle.loads(pickle.dumps(value))),
    ids=("copy", "deepcopy", "pickle"),
)
def test_copies_and_pickles_are_equal(duplicate):
    for value in (FixedPoint(1, 5, 4), fp(0, 3), fp(-(10**5010) // 7, 5010)):
        twin = duplicate(value)
        assert twin == value and type(twin) is FixedPoint
        with pytest.raises(AttributeError):
            twin.sign = 0


# --- fx_add -------------------------------------------------------------------


def test_add_exact_decimals():
    assert fx_add(fp(250, 3), fp(125, 3)) == fp(375, 3)  # 0.250 + 0.125 = 0.375


def test_add_identity():
    x = fp(123456, 6)
    assert fx_add(x, fp(0, 6)) == x


def test_add_carry_case():
    assert fx_add(fp(999, 3), fp(1, 3)) == fp(1000, 3)  # 0.999 + 0.001 = 1.000


def test_add_signed_cancellation():
    assert fx_add(fp(500, 3), fp(-500, 3)) == fp(0, 3)
    assert fx_add(fp(-750, 3), fp(250, 3)) == fp(-500, 3)


def test_add_scale_mismatch_rejected():
    with pytest.raises(ScaleMismatchError):
        fx_add(fp(1, 3), fp(1, 4))


# --- fx_mul_small -------------------------------------------------------------


def test_mul_small_exact_scaling():
    assert fx_mul_small(fp(785398, 6), 4) == fp(3141592, 6)


def test_mul_small_identity():
    x = fp(321750, 6)
    assert fx_mul_small(x, 1) == x


def test_mul_small_by_eight_matches_rational_oracle():
    result = fx_mul_small(fp(321750, 6), 8)
    assert result.as_fraction() == Fraction(321750, 10**6) * 8
    assert result == fp(2574000, 6)


def test_mul_small_sign_handling():
    assert fx_mul_small(fp(250, 3), -2) == fp(-500, 3)
    assert fx_mul_small(fp(-250, 3), -2) == fp(500, 3)
    assert fx_mul_small(fp(250, 3), 0) == fp(0, 3)


# --- fx_div_small -------------------------------------------------------------


def test_div_truncates_and_charges_one_ulp():
    ledger = ErrorLedger()
    assert fx_div_small(fp(10**6, 6), 3, ledger) == fp(333333, 6)
    assert ledger.ulps == 1


def test_div_by_one_still_charges():
    ledger = ErrorLedger()
    assert fx_div_small(fp(10**6, 6), 1, ledger) == fp(10**6, 6)
    assert ledger.ulps == 1


def test_div_quarter_by_64():
    ledger = ErrorLedger()
    # 0.25/64 = 0.00390625, truncated at scale 6
    assert fx_div_small(fp(250000, 6), 64, ledger) == fp(3906, 6)
    assert ledger.ulps == 1


def test_div_errors():
    with pytest.raises(ZeroDivisionError):
        fx_div_small(fp(1, 3), 0, ErrorLedger())
    with pytest.raises(ValueError):
        fx_div_small(fp(1, 3), -2, ErrorLedger())


def test_div_error_strictly_below_one_ulp():
    rng = random.Random(7)
    ulp = Fraction(1, 10**9)
    for _ in range(300):
        a = fp(rng.randrange(-(10**12), 10**12), 9)
        m = rng.randrange(1, 1000)
        stored = fx_div_small(a, m, ErrorLedger())
        assert abs(stored.as_fraction() - a.as_fraction() / m) < ulp


# --- arithmetic identities over random operands -------------------------------

MAGNITUDES = st.integers(min_value=0, max_value=10**3000)
SIGNS = st.sampled_from((-1, 1))
# every power of two up to 2**64 (the shift path) and random non-powers
DIVISORS = st.one_of(
    st.integers(min_value=0, max_value=64).map(lambda s: 1 << s),
    st.integers(min_value=3, max_value=2**64).filter(lambda m: m & (m - 1)),
)
PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


@PROPERTY_SETTINGS
@given(magnitude=MAGNITUDES, sign=SIGNS, m=DIVISORS)
def test_div_small_is_floor_division_with_one_ulp(magnitude, sign, m):
    ledger = ErrorLedger()
    result = fx_div_small(fp(sign * magnitude, 7), m, ledger)
    assert result.magnitude == magnitude // m
    assert result.signed_units == sign * (magnitude // m)
    assert result.scale == 7
    assert ledger.ulps == 1


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
    ledger = ErrorLedger()
    result = fx_div_small(fp(sign * magnitude, 7), m, ledger)
    assert result.signed_units == sign * (magnitude // m)
    assert ledger.ulps == 1


@PROPERTY_SETTINGS
@given(magnitude=MAGNITUDES, sign=SIGNS)
def test_signed_units_is_sign_times_magnitude(magnitude, sign):
    value = fp(sign * magnitude, 3)
    assert value.signed_units == value.sign * value.magnitude == sign * magnitude


@PROPERTY_SETTINGS
@given(
    magnitude=MAGNITUDES, sign=SIGNS, m=st.sampled_from((-3, -1, 0, 1, 2, 16))
)
def test_mul_small_is_exact_product(magnitude, sign, m):
    a = fp(sign * magnitude, 5)
    assert fx_mul_small(a, m) == fp(a.signed_units * m, 5)


# --- results satisfy the public constructor's invariants ------------------------


def assert_valid(value: FixedPoint, scale: int) -> None:
    """``value`` satisfies every check the public constructor makes."""
    assert type(value) is FixedPoint
    assert value.sign in (-1, 0, 1)
    assert value.magnitude >= 0
    assert (value.magnitude == 0) == (value.sign == 0)
    assert value.scale == scale
    assert FixedPoint(value.sign, value.magnitude, value.scale) == value


UNITS = st.one_of(st.just(0), st.integers(min_value=-(10**3000), max_value=10**3000))


@PROPERTY_SETTINGS
@given(a=UNITS, b=UNITS, cancel=st.booleans())
def test_add_results_satisfy_invariants(a, b, cancel):
    if cancel:
        b = -a  # mixed signs that cancel exactly
    for x, y in ((a, b), (b, a), (a, 0), (0, a)):
        result = fx_add(fp(x, 9), fp(y, 9))
        assert_valid(result, 9)
        assert result.signed_units == x + y


@PROPERTY_SETTINGS
@given(a=UNITS, m=st.one_of(st.sampled_from((-2, -1, 0, 1, 2)), st.integers(-(2**64), 2**64)))
def test_mul_small_results_satisfy_invariants(a, m):
    result = fx_mul_small(fp(a, 9), m)
    assert_valid(result, 9)
    assert result.signed_units == a * m


@PROPERTY_SETTINGS
@given(a=UNITS, m=st.one_of(DIVISORS, st.integers(min_value=1, max_value=10**3001)))
def test_div_small_results_satisfy_invariants(a, m):
    # divisors above the magnitude truncate to zero, which must be canonical
    result = fx_div_small(fp(a, 9), m, ErrorLedger())
    assert_valid(result, 9)
    assert result.magnitude == abs(a) // m


# --- ledger -------------------------------------------------------------------


def test_ledger_monotone_contract():
    with pytest.raises(ValueError):
        ErrorLedger(-1)


# --- composed properties ------------------------------------------------------


def test_exact_ops_stay_exact():
    # any mix of adds and small multiplies agrees exactly with rational
    # arithmetic and never needs an error charge
    rng = random.Random(42)
    for _ in range(50):
        scale = rng.randrange(1, 25)
        value = fp(rng.randrange(-(10**6), 10**6), scale)
        shadow = value.as_fraction()
        for _ in range(40):
            if rng.random() < 0.5:
                other = fp(rng.randrange(-(10**6), 10**6), scale)
                value = fx_add(value, other)
                shadow += other.as_fraction()
            else:
                m = rng.randrange(-9, 10)
                value = fx_mul_small(value, m)
                shadow *= m
        assert value.as_fraction() == shadow


def _random_walk(seed: int, ops: int, scale: int, check_every: int):
    """Mixed-op walk with an exact Fraction shadow; asserts the ledger bound."""
    rng = random.Random(seed)
    ulp = Fraction(1, 10**scale)
    value = fp(rng.randrange(1, 10**scale), scale)
    shadow = value.as_fraction()
    ledger = ErrorLedger()
    for step in range(ops):
        kind = rng.random()
        if kind < 0.3:
            other = fp(rng.randrange(-(10**scale), 10**scale), scale)
            value = fx_add(value, other)
            shadow += other.as_fraction()
        elif kind < 0.5:
            m = rng.choice((-3, -2, -1, 1, 2, 3))
            value = fx_mul_small(value, m)
            shadow *= m
            # the exact multiply scales the error carried so far by |m|
            ledger = ErrorLedger(ledger.ulps * abs(m))
        else:
            m = rng.randrange(1, 98)
            value = fx_div_small(value, m, ledger)
            shadow /= m
        if step % check_every == 0:
            assert abs(value.as_fraction() - shadow) <= ledger.ulps * ulp
    assert abs(value.as_fraction() - shadow) <= ledger.ulps * ulp


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
    with pytest.raises(ValueError):
        PrecisionContext(50, 9)


def test_context_for_op_count_guard_rule():
    assert PrecisionContext.for_op_count(10, 1).guard_digits == 10
    assert PrecisionContext.for_op_count(10, 999).guard_digits == 13
    assert PrecisionContext.for_op_count(10, 1000).guard_digits == 13
    assert PrecisionContext.for_op_count(10, 1001).guard_digits == 14


# --- digit emission -----------------------------------------------------------

PI_30 = "3.141592653589793238462643383279"


def test_decimal_string_certified_pi_prefix():
    magnitude = int(PI_30.replace(".", ""))  # pi at scale 30
    value = FixedPoint(1, magnitude, 30)
    assert fx_to_decimal_string(value, ErrorLedger(40), 20) == "3.14159265358979323846"


def test_decimal_string_exact_half():
    value = fp(5000, 4)  # 0.5 at scale 4
    assert fx_to_decimal_string(value, ErrorLedger(0), 3) == "0.500"


def test_decimal_string_insufficient_precision():
    value = fp(5 * 10**49, 50)
    with pytest.raises(InsufficientPrecisionError) as info:
        fx_to_decimal_string(value, ErrorLedger(0), 200)
    assert info.value.guaranteed == 49
    assert "49" in str(info.value)


def test_decimal_string_past_int_str_cap_leaves_cap_alone(int_str_cap):
    # 5000 digits is past CPython's default 4300-digit int/str limit, where
    # one exists; rendering must neither fail nor raise the process-wide cap
    value = fp(10**5010 // 7, 5010)
    text = fx_to_decimal_string(value, ErrorLedger(1), 5000)
    assert text == "0." + ("142857" * 834)[:5000]
    assert int_str_cap() in (None, 4300)


def test_repr_past_int_str_cap_leaves_cap_alone(int_str_cap):
    assert repr(fp(-250, 3)) == "FixedPoint(sign=-1, magnitude=250, scale=3)"
    text = repr(fp(10**5010 // 7, 5010))
    assert text == f"FixedPoint(sign=1, magnitude={'142857' * 835}, scale=5010)"
    assert int_str_cap() in (None, 4300)


def test_decimal_string_negative_value():
    assert fx_to_decimal_string(fp(-2500, 4), ErrorLedger(0), 3) == "-0.250"


def test_decimal_string_straddle_detected():
    # 0.49999999 +- 2 ulps spans the 0.5 boundary for any short prefix
    value = fp(49_999_999, 8)
    with pytest.raises(BoundaryStraddleError):
        fx_to_decimal_string(value, ErrorLedger(2), 3)
    # with zero error the truncation is honest
    assert fx_to_decimal_string(value, ErrorLedger(0), 3) == "0.499"


def test_decimal_string_straddle_at_zero():
    with pytest.raises(BoundaryStraddleError):
        fx_to_decimal_string(fp(1, 8), ErrorLedger(5), 2)


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
        value = fp(units, scale)
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
