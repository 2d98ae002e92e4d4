import contextlib
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import rationalpi
from rationalpi import cli, formulas
from rationalpi.cli import main
from rationalpi.fixedpoint import FixedPoint
from rationalpi.formulas import PiFormulaId

import oracles


def run_cli(argv, capsys):
    """In-process invocation; argparse usage errors surface as SystemExit."""
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    out, err = capsys.readouterr()
    return code, out, err


# --- digit output ---------------------------------------------------------------


def test_pi_thirty_digits(capsys):
    code, out, _ = run_cli(["pi", "--digits", "30", "--method", "combined"], capsys)
    assert code == 0
    assert out == "3.141592653589793238462643383279\n"


def test_pi_single_digit(capsys):
    code, out, _ = run_cli(["pi", "--digits", "1", "--method", "case1"], capsys)
    assert code == 0
    assert out == "3.1\n"


def test_pi_output_charset(capsys):
    code, out, _ = run_cli(["pi", "--digits", "45"], capsys)
    assert code == 0
    assert re.fullmatch(r"[0-9]+\.[0-9]+\n", out)
    assert out.count(".") == 1


@pytest.mark.parametrize(
    "case,expected",
    (
        ("1/2", "0.32175055439664219340"),
        ("1/4", "0.14189705460416392281"),
    ),
)
def test_arctan_twenty_digits(case, expected, capsys):
    code, out, _ = run_cli(["arctan", "--case", case, "--digits", "20"], capsys)
    assert code == 0
    assert out == expected + "\n"


def test_arctan_case_one(capsys):
    code, out, _ = run_cli(["arctan", "--case", "1", "--digits", "10"], capsys)
    assert code == 0
    assert out == "0.7853981633\n"


def test_pi_methods_agree_byte_for_byte(capsys):
    outputs = set()
    for method in ("case1", "combined", "machin"):
        code, out, _ = run_cli(["pi", "--digits", "60", "--method", method], capsys)
        assert code == 0
        outputs.add(out)
    assert len(outputs) == 1


def test_pi_emission_beyond_interpreter_str_cap(capsys):
    # digit counts past CPython's default 4300-digit int/str conversion
    # limit must still emit
    code, out, _ = run_cli(["pi", "--digits", "5000", "--method", "combined"], capsys)
    assert code == 0
    assert len(out) == 5003  # "3." + 5000 digits + newline
    assert out.startswith("3.14159265358979323846264338327950288419716939937510")


# --- exit-code contract -----------------------------------------------------------


@pytest.mark.parametrize(
    "argv",
    (
        ["pi", "--digits", "0"],
        ["pi", "--digits", "-3"],
        ["pi", "--digits", "ten"],
        ["pi", "--digits", "30", "--method", "bbp"],
        ["pi"],
        ["arctan", "--case", "1/3", "--digits", "10"],
        ["arctan", "--digits", "10"],
        # verify takes every --digits from 1 up, like the other subcommands
        ["verify", "--digits", "0"],
        ["compare", "--digits", "0"],
        ["compare", "--digits", "128", "--format", "xml"],
        ["nonsense"],
        # not an option: the tests inject the identity fault themselves
        ["verify", "--inject-fault"],
    ),
)
def test_argument_errors_exit_two(argv, capsys):
    code, _, _ = run_cli(argv, capsys)
    assert code == 2


def test_fixture_option_is_removed(capsys):
    # digits are checked against a reference by piping them into cmp
    code, out, err = run_cli(["pi", "--digits", "10", "--fixture", "x"], capsys)
    assert (code, out) == (2, "")
    assert "error: unrecognized arguments: --fixture x" in err


def test_repeat_option_is_removed(capsys):
    # bench times one run per route, so --digits alone sets its cost
    code, out, err = run_cli(["bench", "--digits", "10", "--repeat", "1"], capsys)
    assert (code, out) == (2, "")
    assert "error: unrecognized arguments: --repeat 1" in err


class PlanningReached(Exception):
    pass


def _refuse_to_plan(*args, **kwargs):
    raise PlanningReached


@pytest.fixture
def planning_blocked(monkeypatch):
    """Make every planner and evaluator the CLI calls raise
    :class:`PlanningReached`, so a test can tell a refusal made up front
    from one made after planning started."""
    for name in ("context_for_formula", "context_for_case", "context_for_verify",
                 "compute_pi", "sun", "cross_formula_agreement", "compare_convergence"):
        monkeypatch.setattr(cli, name, _refuse_to_plan)


@pytest.mark.parametrize(
    "argv",
    (
        ["pi", "--digits"],
        ["arctan", "--case", "1", "--digits"],
        ["verify", "--digits"],
        ["bench", "--digits"],
        ["compare", "--digits"],
    ),
)
def test_digit_cap_refuses_before_planning(argv, planning_blocked, capsys):
    # the argparse type refuses both ends of the range
    for bad in ("0", str(cli.DEFAULT_MAX_DIGITS + 1)):
        code, out, err = run_cli(argv + [bad], capsys)
        assert (code, out) == (2, "")
        assert f"argument --digits: not an integer from 1 to {cli.DEFAULT_MAX_DIGITS}: '{bad}'" in err
    # at the cap itself the request goes on to plan
    with pytest.raises(PlanningReached):
        main(argv + [str(cli.DEFAULT_MAX_DIGITS)])


@pytest.mark.parametrize("digits", (*range(1, 10), 3000))
def test_verify_checks_every_digit_count(digits, capsys):
    # verify takes every --digits the other subcommands take, and all five
    # checks pass at the smallest ones too, and at 3000, where Machin's
    # arctan(1/5) is summed in four blocks and the shared pass shifts and
    # re-bases its folded divisors
    code, out, err = run_cli(["verify", "--digits", str(digits)], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 5 and all(line.startswith("PASS  ") for line in lines)


def test_closed_stdout_exits_three_before_planning(planning_blocked, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["rationalpi", "pi", "--digits", "10"])
    monkeypatch.setattr(sys, "stdout", None)
    with pytest.raises(SystemExit) as info:
        cli.entrypoint()
    assert info.value.code == 3
    assert capsys.readouterr().err == "error: cannot write output: standard output is closed\n"


def test_closed_pipe_exits_three_silently_in_process(monkeypatch, capsys):
    # run in this process, so it checks the package the tests import, into a
    # pipe whose reader is gone
    read_end, write_end = os.pipe()
    os.close(read_end)
    monkeypatch.setattr(sys, "argv", ["rationalpi", "pi", "--digits", "10"])
    with open(write_end, "w") as stdout:
        monkeypatch.setattr(sys, "stdout", stdout)
        with pytest.raises(SystemExit) as info:
            cli.entrypoint()
    assert info.value.code == 3
    assert capsys.readouterr().err == ""


def test_happy_paths_exit_zero(capsys):
    for argv in (
        ["pi", "--digits", "12"],
        ["arctan", "--case", "1/2", "--digits", "12"],
        ["verify", "--digits", "50"],
        ["compare", "--digits", "10", "--format", "table"],
        ["compare", "--digits", "10", "--format", "csv"],
        ["compare", "--digits", "10", "--format", "json"],
        ["bench", "--digits", "40"],
    ):
        code, _, _ = run_cli(argv, capsys)
        assert code == 0, argv


def machin_off_by_one_unit(compute_pi):
    """``compute_pi`` with machin off by one unit in the 30th digit: fast,
    certified-looking, wrong."""

    def faulty(formula_id, ctx):
        result = compute_pi(formula_id, ctx)
        if formula_id is PiFormulaId.MACHIN_ORACLE:
            units = result.value.signed_units + 10 ** (ctx.scale - 30)
            result = result._replace(value=FixedPoint(units, ctx.scale))
        return result

    return faulty


def test_bench_prints_times_only_when_routes_agree(monkeypatch, capsys):
    code, out, err = run_cli(["bench", "--digits", "40"], capsys)
    assert code == 0 and err == ""
    rows = [line.split() for line in out.splitlines()[1:]]
    assert [row[:2] for row in rows] == [["case1", "40"], ["combined", "40"], ["machin", "40"]]
    # one request path: each row's terms are the series term counts that
    # pi --json reports for the same route and digits, summed
    for method, _, terms, _ in rows:
        _, report, _ = run_cli(["pi", "--method", method, "--digits", "40", "--json"], capsys)
        assert sum(json.loads(report)["terms_used"]) == int(terms)

    monkeypatch.setattr(cli, "compute_pi", machin_off_by_one_unit(cli.compute_pi))
    code, out, err = run_cli(["bench", "--digits", "40"], capsys)
    assert code == 1
    assert out == ""
    # the added unit carries into the 29th digit: ...327|9 becomes ...328|0
    assert err == (
        "pi routes disagree at digit 29 after the point: "
        "case1 has '7', combined has '7', machin has '8'\n"
    )


VERIFY_50 = """\
PASS  factorization 4+x^4: coefficients (4, 0, 0, 0, 1)
PASS  arctan identity: residual 10 ulps <= bound 490 ulps (scale 63)
PASS  pi case1 vs combined: diff 40 ulps <= bound 1960 ulps
PASS  pi case1 vs machin: diff 72 ulps <= bound 1420 ulps
PASS  pi combined vs machin: diff 32 ulps <= bound 1340 ulps
"""


def test_verify_fault_injection_exits_one(jupiter_fault, capsys):
    code, out, _ = run_cli(["verify", "--digits", "50"], capsys)
    assert code == 1
    assert out.splitlines()[1] == (
        "FAIL  arctan identity: residual "
        "124354994546761435031354849163871025573170191769804089915114098 ulps "
        "<= bound 490 ulps (scale 63)"
    )


def test_verify_prints_pass_lines(capsys):
    code, out, _ = run_cli(["verify", "--digits", "50"], capsys)
    assert code == 0
    assert out == VERIFY_50


def test_machin_prints_each_prefix_of_pi_up_to_400_digits(capsys):
    # every --digits from 1 to 400 through main, against a truncation of
    # case1's 400 digits: a block sum that strays past its certificate, or a
    # refusal, fails here
    code, reference, _ = run_cli(["pi", "--method", "case1", "--digits", "400"], capsys)
    assert code == 0
    for digits in range(1, 401):
        code, out, _ = run_cli(["pi", "--method", "machin", "--digits", str(digits)], capsys)
        assert (code, out) == (0, reference[:digits + 2] + "\n"), digits


def test_verify_sums_each_distinct_series_once(request, monkeypatch, capsys):
    # the identity is read off case1 vs combined, so verify sums the eleven
    # distinct series of the three routes, fault or not; an identity pass of
    # its own would sum the nine case series again, 20 in all
    summed = []
    real = formulas.eval_series

    def counting(stack, ctx):
        stack = list(stack)
        summed.extend(stack)
        return real(stack, ctx)

    monkeypatch.setattr(formulas, "eval_series", counting)
    assert run_cli(["verify", "--digits", "50"], capsys)[0] == 0
    assert len(summed) == 11
    summed.clear()
    request.getfixturevalue("jupiter_fault")
    assert run_cli(["verify", "--digits", "50"], capsys)[0] == 1
    assert len(summed) == 11


@pytest.mark.parametrize("digits", (3000, 4290, 4400, 5000))
def test_verify_prints_ulps_past_int_str_cap(digits, jupiter_fault, int_str_cap, capsys):
    # the fault fails the identity and both agreements with combined; from
    # 4290 digits their residual and diffs have more decimal digits than the
    # 4300-digit int/str cap, and a traceback there would also exit 1
    code, out, err = run_cli(["verify", "--digits", str(digits)], capsys)
    assert (code, err) == (1, "")
    lines = out.splitlines()
    assert [line.split(":")[0] for line in lines] == [
        "PASS  factorization 4+x^4", "FAIL  arctan identity", "FAIL  pi case1 vs combined",
        "PASS  pi case1 vs machin", "FAIL  pi combined vs machin",
    ]
    assert lines[1].startswith("FAIL  arctan identity: ")
    if digits >= 4290:
        printed = [re.search(r"(?:residual|diff) (\d+) ulps", lines[i])[1] for i in (1, 2, 4)]
        assert all(len(number) > 4300 for number in printed)
    assert int_str_cap() in (None, 4300)


def test_verify_prints_diff_ulps_past_int_str_cap(int_str_cap, monkeypatch, capsys):
    # at 4400 digits the diff between disagreeing routes has more decimal
    # digits than the 4300-digit int/str cap
    monkeypatch.setattr(formulas, "compute_pi", machin_off_by_one_unit(formulas.compute_pi))
    code, out, err = run_cli(["verify", "--digits", "4400"], capsys)
    assert (code, err) == (1, "")
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    assert [line.split(":")[0] for line in failed] == [
        "FAIL  pi case1 vs machin", "FAIL  pi combined vs machin",
    ]
    assert all(len(line.split()[6]) > 4300 for line in failed)
    assert int_str_cap() in (None, 4300)


@st.composite
def well_formed_argv(draw):
    """A subcommand with valid flags, and --digits near the edges: the small
    ones and those around the 4300-digit int/str cap."""
    command = draw(st.sampled_from(("pi", "arctan", "verify", "compare", "bench")))
    digits = draw(st.one_of(st.integers(1, 60), st.integers(4270, 4310), st.just(5000)))
    argv = [command, "--digits", str(digits)]
    if command == "pi":
        argv += ["--method", draw(st.sampled_from([f.value for f in PiFormulaId]))]
    if command == "arctan":
        argv += ["--case", draw(st.sampled_from(("1", "1/2", "1/4")))]
    if command in ("pi", "arctan") and draw(st.booleans()):
        argv.append("--json")
    if command == "compare":
        argv += ["--format", draw(st.sampled_from(("table", "csv", "json")))]
    return argv


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(argv=well_formed_argv())
def test_well_formed_argv_exits_with_a_status(argv, int_str_cap):
    # a request ends with 0, 1 or 2 and at most one line on stderr, never
    # with another exception
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2), (argv, code)
    assert err.getvalue().count("\n") <= 1, (argv, err.getvalue())


# --- determinism ------------------------------------------------------------------


def test_identical_invocations_are_byte_identical(capsys):
    argv = ["pi", "--digits", "40", "--method", "combined"]
    first = run_cli(argv, capsys)
    second = run_cli(argv, capsys)
    assert first == second


def test_json_deterministic_apart_from_elapsed(capsys):
    argv = ["pi", "--digits", "40", "--method", "machin", "--json"]
    _, out_a, _ = run_cli(argv, capsys)
    _, out_b, _ = run_cli(argv, capsys)
    payload_a, payload_b = json.loads(out_a), json.loads(out_b)
    payload_a.pop("elapsed_ms")
    payload_b.pop("elapsed_ms")
    assert payload_a == payload_b


def test_compare_output_deterministic(capsys):
    argv = ["compare", "--digits", "128", "--format", "csv"]
    first = run_cli(argv, capsys)
    second = run_cli(argv, capsys)
    assert first == second


# --- json schema ------------------------------------------------------------------


def test_pi_json_report_schema(capsys):
    code, out, _ = run_cli(["pi", "--digits", "30", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["method"] == "combined"
    assert payload["requested_digits"] == 30
    assert payload["guaranteed_digits"] >= 30
    assert isinstance(payload["terms_used"], list) and len(payload["terms_used"]) == 6
    assert payload["error_ulps"] > 0
    assert isinstance(payload["elapsed_ms"], int)
    assert payload["value"].startswith("3.")
    assert out.endswith("\n")


def test_arctan_json_report(capsys):
    code, out, _ = run_cli(["arctan", "--case", "1/4", "--digits", "25", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["guaranteed_digits"] >= payload["requested_digits"] == 25
    assert len(payload["terms_used"]) == 3


# (guaranteed_digits, terms_used, error_ulps) of the --json report per
# request.  The odd term counts pin the certificate's ceil(N/2) + 1 ulps per
# series: floor(N/2) + 1 is sound too, so only these counts tell the two
# apart.  Every guaranteed count is exactly 8 past the request, the spare
# digits of the guard rule.
GOLDEN_REPORTS = {
    ("pi", "case1"): {
        1: (9, [18, 18, 18], 200),
        21: (29, [50, 50, 50], 520),
        72: (80, [136, 136, 136], 1380),
        128: (136, [229, 229, 229], 2320),
        508: (516, [859, 859, 859], 8620),
    },
    ("pi", "combined"): {
        1: (9, [6, 6, 6, 4, 4, 4], 220),
        21: (29, [17, 17, 17, 11, 10, 10], 528),
        72: (80, [46, 46, 45, 28, 27, 27], 1260),
        128: (136, [77, 77, 76, 46, 46, 46], 2072),
        508: (516, [287, 287, 286, 172, 172, 172], 7532),
    },
    ("pi", "machin"): {
        1: (9, [8, 2], 88),
        21: (29, [22, 7], 212),
        72: (80, [59, 17], 536),
        128: (136, [99, 29], 880),
        508: (516, [371, 109], 3216),
    },
    ("arctan", "1"): {
        1: (9, [16, 16, 16], 45),
        21: (29, [50, 50, 50], 130),
        72: (80, [134, 134, 134], 340),
        128: (136, [227, 227, 227], 575),
        508: (516, [859, 859, 859], 2155),
    },
    ("arctan", "1/2"): {
        1: (9, [6, 6, 6], 20),
        21: (29, [17, 17, 16], 49),
        72: (80, [45, 45, 45], 120),
        128: (136, [76, 76, 76], 195),
        508: (516, [286, 286, 286], 720),
    },
    ("arctan", "1/4"): {
        1: (9, [4, 4, 3], 15),
        21: (29, [10, 10, 10], 30),
        72: (80, [27, 27, 27], 75),
        128: (136, [46, 46, 45], 120),
        508: (516, [172, 172, 171], 435),
    },
}


@pytest.mark.parametrize("digits", (1, 21, 72, 128, 508))
@pytest.mark.parametrize("command,choice", list(GOLDEN_REPORTS))
def test_json_report_golden(command, choice, digits, capsys):
    if command == "pi":
        argv = ["pi", "--method", choice]
        method, bracket = choice, oracles.pi_bracket(digits + 10)
    else:
        argv = ["arctan", "--case", choice]
        method = f"arctan case {choice}"
        bracket = oracles.case_target_bracket(choice, digits + 10)
    code, out, _ = run_cli([*argv, "--digits", str(digits), "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    payload.pop("elapsed_ms")
    guaranteed, terms, ulps = GOLDEN_REPORTS[command, choice][digits]
    assert payload == {
        "schema": 1,
        "method": method,
        "requested_digits": digits,
        "guaranteed_digits": guaranteed,
        "terms_used": terms,
        "error_ulps": ulps,
        "value": oracles.truncated_digits(bracket, digits),
    }


# SHA-256 of the 5000-digit --json report with elapsed_ms removed: pins the
# digits, term counts and certificate past the interpreter's int/str cap
GOLDEN_5000_SHA256 = {
    "case1": "c7c61963a33a706e7bbdf112b61517bc404a079258ee8346b214ee9772a667e9",
    "combined": "5be2442dd9d0417b90a54625bebe4515b7528cdc12bb320fe42d7dd5cbefb4cc",
    "machin": "064aa3ad13e89fdfe710a3171414a0bf3e38279ad255d8ad161d6932eb687e00",
}


@pytest.mark.parametrize("method", list(GOLDEN_5000_SHA256))
def test_json_report_golden_past_int_str_cap(method, capsys):
    code, out, _ = run_cli(["pi", "--method", method, "--digits", "5000", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    payload.pop("elapsed_ms")
    digest = hashlib.sha256(json.dumps(payload).encode()).hexdigest()
    assert digest == GOLDEN_5000_SHA256[method]


def test_combined_156_digits_certified(capsys):
    # a size between the golden pins: the digits are pi's, and the guard
    # rule certifies exactly 8 digits past them
    code, out, _ = run_cli(["pi", "--digits", "156", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == oracles.truncated_digits(oracles.pi_bracket(170), 156)
    assert payload["guaranteed_digits"] - 156 == 8


# the two tightest targets up to the 100,000-digit cap: pi's digits after
# position 761 are the Feynman point, 999999837..., and arctan(1)'s after
# position 17533 are 000000266...; no other target up to the cap is followed
# by six equal 0s or 9s
@pytest.mark.parametrize("method", ("case1", "combined", "machin"))
def test_pi_at_the_feynman_point(method, capsys):
    code, out, _ = run_cli(["pi", "--method", method, "--digits", "761"], capsys)
    assert code == 0
    assert out == oracles.truncated_digits(oracles.pi_bracket(770), 761) + "\n"


# SHA-256 of the output of arctan --case 1 --digits 17533, its newline
# included, from perfbench/refdigits.py (Chudnovsky, independent of the
# package); the Fraction oracle is far too slow at this size
ARCTAN_1_17533_SHA256 = "680eb56d80e8c4eeb3de465c4d9a711738f9ef46b81e0182a887380a3ff695f7"


def test_arctan_one_before_six_zeros(capsys):
    code, out, _ = run_cli(["arctan", "--case", "1", "--digits", "17533"], capsys)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == ARCTAN_1_17533_SHA256


# --- compare rendering ------------------------------------------------------------


def test_compare_csv_shape(capsys):
    code, out, _ = run_cli(["compare", "--digits", "128", "--format", "csv"], capsys)
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "method,ratio,terms_per_digit,terms_for_target,notes"
    row = {line.split(",")[0]: line for line in lines[1:]}
    assert row["euler_x_quarter"].startswith("euler_x_quarter,1/1024,~0.332,42,")
    assert row["euler_x_half"].startswith("euler_x_half,1/64,~0.554,70,")
    assert ",~5e127," in row["leibniz"]


def test_compare_table_has_symbolic_leibniz(capsys):
    code, out, _ = run_cli(["compare", "--digits", "10", "--format", "table"], capsys)
    assert code == 0
    assert "~5e9" in out
    header = out.splitlines()[0]
    for column in ("method", "ratio", "terms_per_digit", "terms_for_target", "notes"):
        assert column in header


def test_compare_json_rows(capsys):
    code, out, _ = run_cli(["compare", "--digits", "15", "--format", "json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["target_digits"] == 15
    assert [row["method"] for row in payload["rows"]][0] == "leibniz"
    assert payload["rows"][0]["terms_for_target"] is None


# the whole compare --digits 128 output of each format, bytes as printed:
# pins the table layout and the notes column, whose euler_* targets are
# derived from each case's x
GOLDEN_COMPARE_128 = {
    "table": (
        "method           ratio           terms_per_digit  terms_for_target  notes\n"
        "leibniz          ->1             -                ~5e127            alternating remainder 1/(2N); needs > 10^127 terms; not evaluated\n"
        "sharp_model      1/3             ~2.096           263               rate model only; irrational terms - not evaluated\n"
        "euler_x1         1/4             ~1.661           208               leading series of the arctan(1) assembly\n"
        "euler_x_half     1/64            ~0.554           70                leading series of the arctan(1/3) assembly\n"
        "euler_x_quarter  1/1024          ~0.332           42                leading series of the arctan(1/7) assembly\n"
        "machin           1/25 & 1/57121  ~0.926           117               16*arctan(1/5) - 4*arctan(1/239); terms summed over both series\n"
    ),
    "csv": (
        "method,ratio,terms_per_digit,terms_for_target,notes\n"
        "leibniz,->1,-,~5e127,alternating remainder 1/(2N); needs > 10^127 terms; not evaluated\n"
        "sharp_model,1/3,~2.096,263,rate model only; irrational terms - not evaluated\n"
        "euler_x1,1/4,~1.661,208,leading series of the arctan(1) assembly\n"
        "euler_x_half,1/64,~0.554,70,leading series of the arctan(1/3) assembly\n"
        "euler_x_quarter,1/1024,~0.332,42,leading series of the arctan(1/7) assembly\n"
        "machin,1/25 & 1/57121,~0.926,117,16*arctan(1/5) - 4*arctan(1/239); terms summed over both series\n"
    ),
    "json": (
        '{"schema": 1, "target_digits": 128, "rows": [{"method": "leibniz", "ratio": "->1", "terms_per_digit": null, "terms_for_target": null, "symbolic_terms": "~5e127", "notes": "alternating remainder 1/(2N); needs > 10^127 terms; not evaluated"}, '
        '{"method": "sharp_model", "ratio": "1/3", "terms_per_digit": 2.095903274289385, "terms_for_target": 263, "symbolic_terms": null, "notes": "rate model only; irrational terms - not evaluated"}, '
        '{"method": "euler_x1", "ratio": "1/4", "terms_per_digit": 1.660964047443681, "terms_for_target": 208, "symbolic_terms": null, "notes": "leading series of the arctan(1) assembly"}, '
        '{"method": "euler_x_half", "ratio": "1/64", "terms_per_digit": 0.5536546824812271, "terms_for_target": 70, "symbolic_terms": null, "notes": "leading series of the arctan(1/3) assembly"}, '
        '{"method": "euler_x_quarter", "ratio": "1/1024", "terms_per_digit": 0.3321928094887362, "terms_for_target": 42, "symbolic_terms": null, "notes": "leading series of the arctan(1/7) assembly"}, '
        '{"method": "machin", "ratio": "1/25 & 1/57121", "terms_per_digit": 0.9255638261584279, "terms_for_target": 117, "symbolic_terms": null, "notes": "16*arctan(1/5) - 4*arctan(1/239); terms summed over both series"}]}\n'
    ),
}


@pytest.mark.parametrize("fmt", list(GOLDEN_COMPARE_128))
def test_compare_golden(fmt, capsys):
    code, out, _ = run_cli(["compare", "--digits", "128", "--format", fmt], capsys)
    assert (code, out) == (0, GOLDEN_COMPARE_128[fmt])


# --- black box through the real interpreter ----------------------------------------

# the directory holding the package under test, so that subprocesses run
# the same code as this process whatever PYTHONPATH selected
SRC = Path(rationalpi.__file__).resolve().parent.parent


def test_cli_import_leaves_heavy_modules_unloaded():
    # -S skips the site module, whose .pth files may import any of these
    code = (
        "import sys; sys.path.insert(0, sys.argv[1]); import rationalpi.cli; "
        "print(sorted({'dataclasses', 'typing', 'json', 'csv', 'inspect'} & set(sys.modules)))"
    )
    result = subprocess.run(
        [sys.executable, "-S", "-c", code, str(SRC)],
        capture_output=True,
        text=True,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout == "[]\n"


def test_module_entrypoint_black_box():
    result = subprocess.run(
        [sys.executable, "-m", "rationalpi", "pi", "--digits", "25"],
        capture_output=True,
        text=True,
        env=_env(),
    )
    assert result.returncode == 0
    assert result.stdout == "3.1415926535897932384626433\n"

    result = subprocess.run(
        [sys.executable, "-m", "rationalpi", "pi", "--digits", "0"],
        capture_output=True,
        text=True,
        env=_env(),
    )
    assert result.returncode == 2


# --- output failures: exit 3, never a traceback ------------------------------------

# one request per subcommand and the JSON report, with the bytes a reader
# takes before it closes the pipe.  The first three print 5000 digits, more
# than a one-page pipe holds, so their writer is still blocked when the
# reader closes; the others fit, so their reader is gone before they start.
OUTPUT_REQUESTS = {
    "pi": (["pi", "--digits", "5000"], 16),
    "pi-json": (["pi", "--digits", "5000", "--json"], 16),
    "arctan": (["arctan", "--case", "1/2", "--digits", "5000"], 16),
    "verify": (["verify", "--digits", "50"], 0),
    "compare": (["compare", "--digits", "10"], 0),
    "bench": (["bench", "--digits", "40"], 0),
}


def _module_argv(name):
    return [sys.executable, "-m", "rationalpi", *OUTPUT_REQUESTS[name][0]]


def _env():
    return {**os.environ, "PYTHONPATH": str(SRC)}


def _one_page_pipe():
    """``(read_end, write_end)`` of a pipe holding one 4 KiB page, or a skip
    where the capacity cannot be set that low."""
    fcntl = pytest.importorskip("fcntl")
    if not hasattr(fcntl, "F_SETPIPE_SZ"):
        pytest.skip("pipe capacity cannot be set")
    read_end, write_end = os.pipe()
    if fcntl.fcntl(write_end, fcntl.F_SETPIPE_SZ, 4096) > 4096:
        os.close(read_end)
        os.close(write_end)
        pytest.skip("the smallest pipe holds more than 4 KiB")
    return read_end, write_end


@pytest.mark.parametrize("name", list(OUTPUT_REQUESTS))
def test_closed_pipe_exits_three_silently(name):
    keep = OUTPUT_REQUESTS[name][1]
    read_end, write_end = _one_page_pipe() if keep else os.pipe()
    if not keep:
        os.close(read_end)
    with subprocess.Popen(_module_argv(name), stdout=write_end, stderr=subprocess.PIPE,
                          env=_env()) as proc:
        os.close(write_end)
        if keep:
            assert os.read(read_end, keep)
            os.close(read_end)
        err = proc.stderr.read()
    assert (proc.returncode, err) == (3, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("name", list(OUTPUT_REQUESTS))
def test_full_device_exits_three_with_one_line(name):
    with open("/dev/full", "w") as full:
        proc = subprocess.run(_module_argv(name), stdout=full, stderr=subprocess.PIPE,
                              text=True, env=_env())
    assert proc.returncode == 3
    assert proc.stderr == "error: cannot write output: [Errno 28] No space left on device\n"


@pytest.mark.parametrize("name", list(OUTPUT_REQUESTS))
def test_closed_stdout_exits_three_with_one_line(name):
    # sh starts the interpreter with descriptor 1 closed, as `>&-` does
    proc = subprocess.run(["sh", "-c", 'exec "$@" >&-', "sh", *_module_argv(name)],
                          stderr=subprocess.PIPE, text=True, env=_env())
    assert proc.returncode == 3
    assert proc.stderr == "error: cannot write output: standard output is closed\n"
