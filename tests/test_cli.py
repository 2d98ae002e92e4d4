import hashlib
import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

from rationalpi import cli
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
        ["verify", "--digits", "5"],
        ["compare", "--digits", "0"],
        ["compare", "--digits", "128", "--format", "xml"],
        ["nonsense"],
    ),
)
def test_argument_errors_exit_two(argv, capsys):
    code, _, _ = run_cli(argv, capsys)
    assert code == 2


def test_pi_respects_configured_maximum(capsys):
    code, _, err = run_cli(["pi", "--digits", "51", "--max-digits", "50"], capsys)
    assert code == 2
    assert "maximum" in err


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
                 "compute_pi", "sun", "verify_arctan_identity", "compare_convergence"):
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
    over = str(cli.DEFAULT_MAX_DIGITS + 1)
    code, out, err = run_cli(argv + [over], capsys)
    assert code == 2
    assert out == ""
    assert f"--digits {over} exceeds the configured maximum" in err
    # at the cap itself the request goes on to plan
    with pytest.raises(PlanningReached):
        main(argv + [str(cli.DEFAULT_MAX_DIGITS)])


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


def test_bench_prints_times_only_when_routes_agree(monkeypatch, capsys):
    code, out, err = run_cli(["bench", "--digits", "40", "--repeat", "1"], capsys)
    assert code == 0 and err == ""
    assert [line.split()[:2] for line in out.splitlines()[1:]] == [
        ["case1", "40"], ["combined", "40"], ["machin", "40"]
    ]

    real = cli.compute_pi

    def faulty(formula_id, ctx):
        # machin off by one unit in the 30th digit: fast, certified-looking, wrong
        result = real(formula_id, ctx)
        if formula_id is PiFormulaId.MACHIN_ORACLE:
            units = result.value.signed_units + 10 ** (ctx.scale - 30)
            result = result._replace(value=FixedPoint.from_scaled(units, ctx.scale))
        return result

    monkeypatch.setattr(cli, "compute_pi", faulty)
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


def test_verify_fault_injection_exits_one(capsys):
    code, out, _ = run_cli(["verify", "--digits", "50", "--inject-fault"], capsys)
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


def test_fixture_mismatch_exits_one(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("3.15\n")
    code, _, err = run_cli(["pi", "--digits", "2", "--fixture", str(path)], capsys)
    assert code == 1
    assert "mismatch" in err


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
        "print(sorted({'dataclasses', 'typing', 'json', 'inspect'} & set(sys.modules)))"
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
