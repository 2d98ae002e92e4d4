"""Self-tests of the benchmark (run with ``python -m pytest perfbench``)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import run
import spans
import workgen
from child import TRACE_MARK
from refdigits import Reference

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "tests"))
import oracles  # noqa: E402  (the package's exact-rational test oracle)


@pytest.mark.parametrize(
    "target, bracket",
    [
        ("pi", lambda d: oracles.pi_bracket(d)),
        ("atan1", lambda d: oracles.case_target_bracket("1", d)),
        ("atan1/3", lambda d: oracles.case_target_bracket("1/2", d)),
        ("atan1/7", lambda d: oracles.case_target_bracket("1/4", d)),
    ],
)
def test_reference_agrees_with_fraction_oracle(target, bracket):
    ref = Reference()
    for digits in (1, 57, 200):
        assert ref.truncated(target, digits) == oracles.truncated_digits(bracket(digits), digits)


def test_reference_methods_agree_at_20k():
    ref = Reference()
    ref.ensure("pi", 20000)
    ref.self_check(5000)
    assert ref.truncated("pi", 20000).startswith("3.14159265358979323846")


@pytest.mark.parametrize("digits", [1, 30, 128])
def test_compare_term_counts_match_brute_force(digits):
    expected = checks.expected_compare_terms(digits)
    for method, series in checks._COMPARE_SERIES.items():
        brute = sum(oracles.brute_terms_needed(*s, digits) for s in series)
        assert expected[method] == str(brute)


def _outcome(req, code, stdout, ref):
    error = checks.check_cli(req, code, stdout, ref)
    return run.Outcome(req, 0.1, error, error is not None and code == 0, 16.0)


def test_flipped_digit_and_nonzero_exit_count_as_failed():
    ref = Reference()
    req = workgen.Request("pi.machin", 40, "plain")
    good = ref.truncated("pi", 40)
    flipped = good[:-1] + str((int(good[-1]) + 1) % 10)
    outcomes = [
        _outcome(req, 0, good + "\n", ref),
        _outcome(req, 0, flipped + "\n", ref),
        _outcome(req, 1, "", ref),
        _outcome(workgen.Request("pi.case1", 40, "json"), 0, json.dumps(
            {"requested_digits": 40, "guaranteed_digits": 45, "value": flipped}), ref),
    ]
    assert run.count_failures(outcomes) == (3, 2)
    assert checks.check_value(workgen.Request("arctan.x_half", 40, "plain"), flipped, ref)


def test_verify_and_compare_checks():
    ref = Reference()
    passing = "".join(f"PASS  check {i}: ok\n" for i in range(5))
    assert checks.check_cli(workgen.Request("verify", 50, "plain"), 0, passing, ref) is None
    failing = passing.replace("PASS", "FAIL", 1)
    assert checks.check_cli(workgen.Request("verify", 50, "plain"), 1, failing, ref)
    expected = checks.expected_compare_terms(20)
    csv_out = "method,ratio,terms_per_digit,terms_for_target,notes\n" + "".join(
        f"{m},r,~1,{expected[m]},n\n" for m in checks._COMPARE_METHODS
    )
    req = workgen.Request("compare", 20, "csv")
    assert checks.check_cli(req, 0, csv_out, ref) is None
    assert checks.check_cli(req, 0, csv_out.replace(f",{expected['machin']},", ",1,"), ref)


def test_generator_is_seed_deterministic_and_balanced():
    for name, workload in workgen.WORKLOADS.items():
        first = workgen.generate(name, 7, 20)
        assert first == workgen.generate(name, 7, 20)
        assert first != workgen.generate(name, 8, 20) or name == "pi-20k"
        for block in first:
            assert sorted(r.kind for r in block) == sorted(workload.kinds)
    digits = [r.digits for block in workgen.generate("cli-small", 3, 100) for r in block]
    assert min(digits) >= 10 and max(digits) <= 1000
    digits = [r.digits for block in workgen.generate("lib-2k", 3, 100) for r in block]
    assert min(digits) >= 1500 and max(digits) <= 2500


def test_span_self_times_add_up_to_the_parent():
    tracer = spans.Tracer()

    def leaf(n):
        return sum(i * i for i in range(n))

    def middle(n):
        return tracer.span("series", "leaf", leaf, n) + leaf(n)

    def top(n):
        return sum(tracer.span("formulas", "middle", middle, n) for _ in range(3))

    tracer.span("bench", "request", top, 20000)
    own = spans.self_times(tracer.spans)
    root = tracer.spans[0]
    assert len(tracer.spans) == 7
    assert sum(own.values()) == pytest.approx(root[5] - root[4], rel=1e-9, abs=1e-12)
    assert all(value >= -1e-9 for value in own.values())


def test_layer_metrics_attribute_self_time_by_layer_and_route():
    # request -> compute_pi(case1) -> [context_for -> terms_needed, eval_series -> terms_needed]
    trace = [
        [0, -1, "bench", "request", 0.0, 10.0, None],
        [1, 0, "formulas", "compute_pi", 1.0, 9.0, {"tag": "case1", "terms": 50}],
        [2, 1, "formulas", "context_for_formula", 1.0, 2.0, {"guard": 14}],
        [3, 2, "series", "terms_needed", 1.5, 2.0, None],
        [4, 1, "series", "eval_series", 2.0, 8.0, {"terms": 50}],
        [5, 4, "series", "terms_needed", 2.0, 3.0, None],
        [6, 0, "fixedpoint", "fx_to_decimal_string", 9.0, 9.5, None],
    ]
    m = spans.layer_metrics([trace])
    assert m["plan.ms"] == pytest.approx(2000.0)
    assert m["plan.terms_needed_calls"] == 2
    assert m["plan.guard_digits"] == 14
    assert m["series.eval_ms"] == pytest.approx(5000.0)
    assert m["series.terms"] == 50
    assert m["series.eval_ms.case1"] == pytest.approx(5000.0)
    assert m["series.us_per_term.case1"] == pytest.approx(1e5)
    assert m["series.eval_ms.machin"] == 0.0
    assert m["compose.self_ms"] == pytest.approx(1000.0)
    assert m["render.ms"] == pytest.approx(500.0)


def _env():
    return {**os.environ, "PYTHONPATH": str(ROOT / "src")}


def test_traced_cli_wraps_names_where_callers_look_them_up():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "cli",
         "pi", "--digits", "60", "--method", "combined"],
        capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0
    assert proc.stdout == Reference().truncated("pi", 60) + "\n"
    trace = json.loads(proc.stderr.rpartition(TRACE_MARK)[2])["spans"]
    names = [s[3] for s in trace]
    # entrypoint via __main__, compute_pi via cli's own binding, eval_series
    # via formulas' binding, fx_to_decimal_string via cli's binding
    for name in ("entrypoint", "main", "cmd_pi", "context_for_formula", "compute_pi",
                 "sun", "eval_series", "terms_needed", "fx_to_decimal_string"):
        assert name in names
    assert "fx_div_small" not in names
    m = spans.layer_metrics([trace])
    assert m["series.terms.combined"] > 0 and m["cli.self_ms"] > 0


def test_exact_counts_worker_reports_every_route():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"), "exact", "100"],
        capture_output=True, text=True, env=_env(), cwd=ROOT, timeout=60,
    )
    assert proc.returncode == 0
    out = json.loads(proc.stdout)
    assert sorted(out) == sorted(workgen.ROUTES)
    for rec in out.values():
        assert rec["guaranteed_digits"] >= 100
        assert 3 < rec["arithmetic_calls"] / rec["terms"] < 5


def test_fails_without_the_package_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-small", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
