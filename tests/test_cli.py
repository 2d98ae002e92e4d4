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
from hypothesis import HealthCheck, example, given, settings, strategies as st

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
        ["bench", "--repeat", "1", "--digits"],
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


def test_repeat_cap_refuses_before_planning(planning_blocked, capsys):
    for bad in ("0", str(cli.MAX_REPEAT + 1)):
        code, out, err = run_cli(["bench", "--digits", "10", "--repeat", bad], capsys)
        assert (code, out) == (2, "")
        assert f"argument --repeat: not an integer from 1 to {cli.MAX_REPEAT}: '{bad}'" in err
    # at the cap itself the request goes on to plan
    with pytest.raises(PlanningReached):
        main(["bench", "--digits", "10", "--repeat", str(cli.MAX_REPEAT)])


@pytest.mark.parametrize("digits", range(1, 10))
def test_verify_checks_every_digit_count(digits, capsys):
    # verify takes every --digits the other subcommands take, and all five
    # checks pass at the smallest ones too
    code, out, err = run_cli(["verify", "--digits", str(digits)], capsys)
    assert (code, err) == (0, "")
    lines = out.splitlines()
    assert len(lines) == 5 and all(line.startswith("PASS  ") for line in lines)


@pytest.mark.parametrize(
    "text,message",
    (
        (None, "error: cannot read fixture: [Errno 2] No such file or directory: '{path}'"),
        ("# no digits here\n", "error: fixture {path} contains no digits"),
        ("3.14\n", "error: fixture {path} has only 3 digits, output has 20001"),
        # long enough for the length check, but no digits to compare with
        ("x" * 20001, "error: fixture {path} holds the non-digit 'x'"),
    ),
    ids=("missing", "no-digits", "too-short", "non-digit"),
)
def test_fixture_refuses_before_planning(text, message, tmp_path, planning_blocked, capsys):
    path = tmp_path / "ref.txt"
    if text is not None:
        path.write_text(text)
    argv = ["pi", "--digits", "20000", "--method", "case1", "--fixture", str(path)]
    code, out, err = run_cli(argv, capsys)
    assert (code, out, err) == (2, "", message.format(path=path) + "\n")
    # a fixture with enough digits goes on to plan; only the comparison waits
    path.write_text("3." + "1" * 20000)
    with pytest.raises(PlanningReached):
        main(argv)


@pytest.mark.skipif(not os.path.exists("/dev/zero"), reason="no /dev/zero")
def test_endless_fixture_refuses_at_its_first_non_digit(planning_blocked, capsys):
    # read whole, an endless file would grow until memory runs out
    code, out, err = run_cli(["pi", "--digits", "10", "--fixture", "/dev/zero"], capsys)
    assert (code, out, err) == (2, "", "error: fixture /dev/zero holds the non-digit '\\x00'\n")


@pytest.mark.parametrize(
    "tail,detail",
    (
        (b"\xff\n", "byte 0xff in position 70002: invalid start byte"),
        (b"\xe2\x82", "bytes in position 70002-70003: unexpected end of data"),
    ),
    ids=("invalid-byte", "truncated"),
)
def test_undecodable_fixture_names_the_file_position(tail, detail, tmp_path, capsys):
    # an undecodable byte 70,002 bytes into the file, after a long comment
    # line, is named by its position counted from the start of the file
    path = tmp_path / "ref.txt"
    path.write_bytes(b"#" + b"x" * 70000 + b"\n" + tail)
    code, out, err = run_cli(["pi", "--digits", "10", "--fixture", str(path)], capsys)
    assert (code, out) == (2, "")
    assert err == f"error: cannot read fixture: 'utf-8' codec can't decode {detail}\n"


class EndlessFixture(io.BytesIO):
    """A fixture file whose reads never run dry: ``head``, then ``line``
    forever, recording the sizes asked for."""

    def __init__(self, head: bytes, line: bytes):
        super().__init__()
        self.head, self.line, self.sizes = head, line, []

    def read(self, size):
        self.sizes.append(size)
        return (self.head + self.line * (size // len(self.line) + 1))[:size]


def _fixture_budget(digits: int) -> int:
    # the output has one digit more than --digits: "3." and the digits
    return cli.FIXTURE_BYTES + cli.FIXTURE_BYTES_PER_DIGIT * (digits + 1)


_NO_DIGITS_IN_BUDGET = (2, "", f"error: fixture endless has only 0 digits in its first "
                               f"{_fixture_budget(10)} bytes, output has 11\n")


@pytest.mark.parametrize(
    "head,line,result",
    (
        # printf '3.1415926535\n'; yes 8
        (b"3.1415926535\n", b"8\n", (0, "3.1415926535\n", "")),
        # 13 bytes, then 2-byte no-break spaces: the budget is even, so the
        # read ends inside a character, after the digits
        (b"3.1415926535\n", "\u00a0".encode(), (0, "3.1415926535\n", "")),
        # yes 1
        (b"1\n", b"1\n",
         (1, "", "fixture mismatch at digit 0 after the point: fixture '1', computed '3'\n")),
        # yes '' and yes '# c': no digit comes, and the budget ends the read
        (b"", b"\n", _NO_DIGITS_IN_BUDGET),
        (b"", b"# c\n", _NO_DIGITS_IN_BUDGET),
        # the budget, not the file, cuts the last no-break space
        (b"\n", "\u00a0".encode(), _NO_DIGITS_IN_BUDGET),
    ),
    ids=("pi-then-8s", "cut-character", "ones", "blank-lines", "comment-lines",
         "cut-character-without-digits"),
)
def test_endless_fixture_of_digits_is_read_to_the_needed_digits(
    head, line, result, monkeypatch, capsys
):
    # read to its end, such a fixture would never return
    handle = EndlessFixture(head, line)
    monkeypatch.setattr(cli, "open", lambda path, mode: handle, raising=False)
    assert run_cli(["pi", "--digits", "10", "--fixture", "endless"], capsys) == result
    assert handle.sizes and all(0 <= size <= _fixture_budget(10) for size in handle.sizes)


@pytest.mark.parametrize(
    "pad,result",
    (
        # the last digit is the last byte of the budget
        (-12, (0, "3.1415926535\n", "")),
        # the last digit is the first byte past it
        (-11, (2, "", "error: fixture {path} has only 10 digits in its first {budget} "
                      "bytes, output has 11\n")),
        # and so is the first digit
        (0, (2, "", "error: fixture {path} has only 0 digits in its first {budget} "
                    "bytes, output has 11\n")),
    ),
    ids=("last-digit-inside", "last-digit-past", "first-digit-past"),
)
def test_fixture_digits_count_only_within_the_budget(pad, result, tmp_path, capsys):
    budget = _fixture_budget(10)
    path = tmp_path / "ref.txt"
    path.write_bytes(b"\n" * (budget + pad) + b"3.1415926535\n# more\n")
    code, out, err = run_cli(["pi", "--digits", "10", "--fixture", str(path)], capsys)
    assert (code, out, err) == (result[0], result[1], result[2].format(path=path, budget=budget))


@st.composite
def drawn_fixtures(draw):
    """pi's first ten digits after comment and blank lines with multi-byte
    characters, with separators or faults inside them, perhaps cut short
    anywhere, inside a character too, then anything."""
    lead = "".join(draw(st.lists(st.sampled_from(
        ("# " + "\u03c0" * 40 + "\n", "  # r\u00e9f\u00a0\n", "\n", " \u00a0\t\n", "\r# c\r9\n")),
        max_size=3)))
    body = list("3.1415926535")
    for _ in range(draw(st.integers(0, 2))):
        body.insert(draw(st.integers(1, len(body) - 1)),
                    draw(st.sampled_from((" ", "\u00a0", "\n", ".", "x", "\u03c0", "9"))))
    head = (lead + "".join(body)).encode()
    head = head[:draw(st.one_of(st.just(len(head)), st.integers(0, len(head))))]
    tail = draw(st.sampled_from((b"", b"x", b"\nx", b"\xff", b"\xe2\x82",
                                 "\u00a0\u03c0\n".encode(), b"8" * 9, b"\n# " + b"x" * 50)))
    return head + tail


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fixture=drawn_fixtures())
@example(fixture=b"3.1415926535x")
@example(fixture=b"3.1415926535\nx")
@example(fixture=b"# \xcf\n3.1415926535")
@example(fixture=b"3.14\xff15926535")
def test_fixture_verdict_does_not_depend_on_where_reads_end(fixture, monkeypatch, capsys):
    # the one bounded read gives the verdict of a reader that takes the
    # same bytes one line at a time, however the lines, characters and
    # faults fall around the last needed digit
    monkeypatch.setattr(cli, "open", lambda path, mode: io.BytesIO(fixture), raising=False)
    code, out, err = run_cli(["pi", "--digits", "10", "--fixture", "drawn"], capsys)
    pi = "31415926535"
    reference, undecodable = oracles.fixture_digits(fixture, len(pi))
    bad = reference.lstrip("0123456789")[:1]
    if undecodable is not None and not bad:
        # the codec may give another reason: it sees the bytes past the line
        assert (code, out) == (2, "")
        assert re.fullmatch(rf"error: cannot read fixture: 'utf-8' codec can't decode "
                            rf"(byte 0x..|bytes) in position {undecodable}(-\d+)?: .+\n", err)
        return
    if bad:
        expected = (2, "", f"error: fixture drawn holds the non-digit {bad!r}\n")
    elif not reference:
        expected = (2, "", "error: fixture drawn contains no digits\n")
    elif len(reference) < len(pi):
        expected = (2, "", f"error: fixture drawn has only {len(reference)} digits, "
                           f"output has 11\n")
    elif reference != pi:
        at = next(i for i, (a, b) in enumerate(zip(reference, pi)) if a != b)
        expected = (1, "", f"fixture mismatch at digit {at} after the point: "
                           f"fixture {reference[at]!r}, computed {pi[at]!r}\n")
    else:
        expected = (0, "3.1415926535\n", "")
    assert (code, out, err) == expected


@pytest.mark.parametrize(
    "text,result",
    (
        ("3.1415926535x", (0, "3.1415926535\n", "")),
        ("3.1415926535\nx", (0, "3.1415926535\n", "")),
        ("3.14x5926535", (2, "", "error: fixture {path} holds the non-digit 'x'\n")),
    ),
    ids=("after-the-digits", "line-after-the-digits", "among-the-digits"),
)
def test_fixture_is_examined_up_to_its_last_needed_digit(text, result, tmp_path, capsys):
    path = tmp_path / "ref.txt"
    path.write_text(text)
    code, out, err = run_cli(["pi", "--digits", "10", "--fixture", str(path)], capsys)
    assert (code, out, err) == (result[0], result[1], result[2].format(path=path))


def test_closed_stdout_exits_three_before_planning(planning_blocked, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["rationalpi", "pi", "--digits", "10"])
    monkeypatch.setattr(sys, "stdout", None)
    with pytest.raises(SystemExit) as info:
        cli.entrypoint()
    assert info.value.code == 3
    assert capsys.readouterr().err == "error: cannot write output: standard output is closed\n"


def test_happy_paths_exit_zero(capsys):
    for argv in (
        ["pi", "--digits", "12"],
        ["arctan", "--case", "1/2", "--digits", "12"],
        ["verify", "--digits", "50"],
        ["compare", "--digits", "10", "--format", "table"],
        ["compare", "--digits", "10", "--format", "csv"],
        ["compare", "--digits", "10", "--format", "json"],
        ["bench", "--digits", "40", "--repeat", "1"],
    ):
        code, _, _ = run_cli(argv, capsys)
        assert code == 0, argv


def machin_off_by_one_unit(compute_pi):
    """``compute_pi`` with machin off by one unit in the 30th digit: fast,
    certified-looking, wrong."""

    def faulty(formula_id, ctx):
        result = compute_pi(formula_id, ctx)
        if formula_id is PiFormulaId.MACHIN_ORACLE:
            # pi is positive, and one more unit keeps it so
            magnitude = result.value.magnitude + 10 ** (ctx.scale - 30)
            result = result._replace(value=FixedPoint(1, magnitude, ctx.scale))
        return result

    return faulty


def test_bench_prints_times_only_when_routes_agree(monkeypatch, capsys):
    code, out, err = run_cli(["bench", "--digits", "40", "--repeat", "1"], capsys)
    assert code == 0 and err == ""
    assert [line.split()[:2] for line in out.splitlines()[1:]] == [
        ["case1", "40"], ["combined", "40"], ["machin", "40"]
    ]

    monkeypatch.setattr(cli, "compute_pi", machin_off_by_one_unit(cli.compute_pi))
    code, out, err = run_cli(["bench", "--digits", "40", "--repeat", "1"], capsys)
    assert code == 1
    assert out == ""
    # the added unit carries into the 29th digit: ...327|9 becomes ...328|0
    assert err == (
        "pi routes disagree at digit 29 after the point: "
        "case1 has '7', combined has '7', machin has '8'\n"
    )


VERIFY_50 = """\
PASS  factorization 4+x^4: coefficients (4, 0, 0, 0, 1)
PASS  arctan identity: residual 4 ulps <= bound 1918 ulps (scale 64)
PASS  pi case1 vs combined: diff 16 ulps <= bound 7672 ulps
PASS  pi case1 vs machin: diff 0 ulps <= bound 5592 ulps
PASS  pi combined vs machin: diff 16 ulps <= bound 5144 ulps
"""


def test_verify_fault_injection_exits_one(jupiter_fault, capsys):
    code, out, _ = run_cli(["verify", "--digits", "50"], capsys)
    assert code == 1
    assert out.splitlines()[1] == (
        "FAIL  arctan identity: residual "
        "1243549945467614350313548491638710255731701917698040899151141192 ulps "
        "<= bound 1918 ulps (scale 64)"
    )


def test_verify_prints_pass_lines(capsys):
    code, out, _ = run_cli(["verify", "--digits", "50"], capsys)
    assert code == 0
    assert out == VERIFY_50


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
    if command == "bench":
        argv += ["--repeat", "1"]
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
# request.  Sizing the guard from weight-folded prefactors would add a guard
# digit to case1 at 72 digits and to machin at 21 and 508, so these counts
# also pin the planning rule: each series counted once at its own prefactor.
GOLDEN_REPORTS = {
    ("pi", "case1"): {
        1: (10, [20, 20, 20], 820),
        21: (29, [52, 52, 52], 2100),
        72: (80, [136, 136, 136], 5460),
        128: (137, [230, 230, 230], 9220),
        508: (516, [861, 861, 861], 34460),
    },
    ("pi", "combined"): {
        1: (10, [7, 7, 7, 4, 4, 4], 780),
        21: (29, [18, 18, 17, 11, 11, 10], 1916),
        72: (80, [46, 46, 45, 28, 27, 27], 4820),
        128: (136, [77, 77, 76, 46, 46, 46], 8044),
        508: (516, [287, 287, 287, 173, 172, 172], 29916),
    },
    ("pi", "machin"): {
        1: (9, [8, 3], 300),
        21: (29, [22, 7], 780),
        72: (80, [59, 18], 2052),
        128: (136, [99, 29], 3420),
        508: (515, [371, 109], 12764),
    },
    ("arctan", "1"): {
        1: (10, [20, 20, 20], 205),
        21: (30, [52, 52, 52], 525),
        72: (80, [136, 136, 136], 1365),
        128: (137, [230, 230, 230], 2305),
        508: (517, [861, 861, 861], 8615),
    },
    ("arctan", "1/2"): {
        1: (11, [7, 7, 7], 75),
        21: (30, [18, 18, 17], 183),
        72: (81, [46, 46, 45], 463),
        128: (137, [77, 77, 76], 773),
        508: (517, [287, 287, 287], 2875),
    },
    ("arctan", "1/4"): {
        1: (10, [4, 4, 4], 45),
        21: (30, [11, 11, 10], 113),
        72: (81, [28, 27, 27], 279),
        128: (137, [46, 46, 46], 465),
        508: (517, [173, 172, 172], 1729),
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
    "case1": "59fc716d52765a611f1ee445601ead0f0e2173c9c546d75c95caed5623858562",
    "combined": "0fdfc5c0dd4aeaab2694b414d7483fbb0ba96fe9596972f6e8ba0507c7e0e473",
    "machin": "bc8146154cced7272937a0ab8e2e2cfc8e2b7d01c15615a5b7f4c802958ed3a7",
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
    # combined plans one guard digit fewer here than the weight-folded rule
    # would, so pin only the digits and that they are certified
    code, out, _ = run_cli(["pi", "--digits", "156", "--json"], capsys)
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == oracles.truncated_digits(oracles.pi_bracket(170), 156)
    assert payload["guaranteed_digits"] >= 156


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


# --- fixtures ---------------------------------------------------------------------


def test_fixture_match(tmp_path, capsys):
    reference = oracles.truncated_digits(oracles.pi_bracket(60), 50)
    path = tmp_path / "pi50.txt"
    path.write_text(f"# reference digits\n{reference[:20]}\n  {reference[20:]}\n")
    code, out, _ = run_cli(
        ["pi", "--digits", "40", "--fixture", str(path)], capsys
    )
    assert code == 0
    assert out.startswith("3.14159")


def test_fixture_comment_longer_than_a_read_piece(tmp_path, capsys):
    # a comment line of 70,000 characters, far longer than the digits after
    # it, is skipped whole within the one bounded read
    path = tmp_path / "pi.txt"
    path.write_text("  # " + "x" * 70000 + "\n3.14159 26535\n# 0000\n")
    code, out, err = run_cli(["pi", "--digits", "10", "--fixture", str(path)], capsys)
    assert (code, out, err) == (0, "3.1415926535\n", "")


def test_fixture_mismatch_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3.15\n")
    code, out, err = run_cli(["pi", "--digits", "2", "--fixture", str(path)], capsys)
    # counted after the point, as bench counts a route disagreement
    assert (code, out, err) == (
        1, "", "fixture mismatch at digit 2 after the point: fixture '5', computed '4'\n"
    )


def test_fixture_too_short_is_an_argument_error(tmp_path, capsys):
    path = tmp_path / "short.txt"
    path.write_text("3.14\n")
    code, _, _ = run_cli(["pi", "--digits", "10", "--fixture", str(path)], capsys)
    assert code == 2


def test_fixture_missing_file(tmp_path, capsys):
    code, _, _ = run_cli(
        ["pi", "--digits", "5", "--fixture", str(tmp_path / "absent.txt")], capsys
    )
    assert code == 2


def test_fixture_not_utf8_is_an_argument_error(tmp_path, capsys):
    # an undecodable file is unusable, like a missing one: exit 2, not a
    # traceback with exit 1, which would read as a digit mismatch
    path = tmp_path / "utf16.txt"
    path.write_bytes(b"\xff\xfe3\x00.\x001\x00")
    code, out, err = run_cli(["pi", "--digits", "5", "--fixture", str(path)], capsys)
    assert code == 2
    assert out == ""
    assert err.startswith("error: cannot read fixture: ")


def test_pi_emission_beyond_interpreter_str_cap(capsys):
    # digit counts past CPython's default 4300-digit int/str conversion
    # limit must still emit
    code, out, _ = run_cli(["pi", "--digits", "5000", "--method", "combined"], capsys)
    assert code == 0
    assert len(out) == 5003  # "3." + 5000 digits + newline
    assert out.startswith("3.14159265358979323846264338327950288419716939937510")


# --- black box through the real interpreter ----------------------------------------

SRC = Path(__file__).resolve().parent.parent / "src"


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
    )
    assert result.returncode == 0
    assert result.stdout == "3.1415926535897932384626433\n"

    result = subprocess.run(
        [sys.executable, "-m", "rationalpi", "pi", "--digits", "0"],
        capture_output=True,
        text=True,
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
    "bench": (["bench", "--digits", "40", "--repeat", "1"], 0),
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
