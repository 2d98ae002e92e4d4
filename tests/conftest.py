import sys

import pytest


@pytest.fixture
def int_str_cap():
    """Hold CPython's int/str conversion cap at its 4300-digit default for
    one test, then restore the prior value.

    Yields a function reading the current cap, or ``None`` on interpreters
    without one, so a test can assert the code under test left it alone.
    """
    get_cap = getattr(sys, "get_int_max_str_digits", None)
    if get_cap is None:
        yield lambda: None
        return
    before = get_cap()
    sys.set_int_max_str_digits(4300)
    try:
        yield get_cap
    finally:
        sys.set_int_max_str_digits(before)
