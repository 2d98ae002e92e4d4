import sys

import pytest

from rationalpi import formulas
from rationalpi.series import CaseId, Component


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


@pytest.fixture
def jupiter_fault(monkeypatch):
    """Double the prefactor numerator of the JUPITER series at x = 1/2 in
    every stack the formulas layer builds, for one test.

    The fault reaches ``arctan(1/3)``, so the ``combined`` route and the
    identity read off it against ``case1``; ``verify`` must report it.  The
    doubled series is summed in blocks, not in the shared pass.
    """
    real = formulas.series_for_case

    def faulty(case, component):
        spec = real(case, component)
        if (case, component) == (CaseId.X_HALF, Component.JUPITER):
            spec = spec._replace(prefactor_num=2 * spec.prefactor_num)
        return spec

    monkeypatch.setattr(formulas, "series_for_case", faulty)
