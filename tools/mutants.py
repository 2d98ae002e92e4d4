"""Mutation audit of the tier-1 suite.

Each mutant replaces one exact string, found once, in one file of the
package.  For each, ``src/``, ``tests/`` and ``README.md`` (which
``tests/test_package.py`` reads) are copied to a temporary directory, the
replacement is made there, and tier-1 runs there with ``-x`` under a time
limit.  One verdict line per mutant: ``killed`` when a test fails or the
run outlasts the limit, with the first failing test, ``survived`` when
tier-1 passes.  Three mutants are marked equivalent: they change no result,
so they are expected to survive.

    python tools/mutants.py

Exits 1 if any verdict differs from the expected one, or a replacement no
longer matches its file exactly once.  A run takes several minutes, so the
tool is kept out of tier-1 and CI.
"""

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
CLI, FIXEDPOINT, FORMULAS, SERIES = (
    f"src/rationalpi/{name}.py" for name in ("cli", "fixedpoint", "formulas", "series"))

# (what the mutant breaks, file, old, new)
MUTANTS = [
    ("certificate without its + 1", SERIES,
     "((n + 1) // 2 + 1)", "((n + 1) // 2)"),
    ("floor(N/2) for ceil(N/2)", SERIES, "((n + 1) // 2 + 1)", "(n // 2 + 1)"),
    ("7 spare digits", SERIES, "target_digits + 8 - ", "target_digits + 7 - "),
    ("5 spare digits", SERIES, "target_digits + 8 - ", "target_digits + 5 - "),
    ("shared pass for any numerator", SERIES,
     "if spec.prefactor_num == 1 and (", "if ("),
    ("terms planned 30 digits ahead", SERIES,
     "_certify(stack, target_digits + guard)", "_certify(stack, target_digits + 30)"),
    ("flipped merge sign", SERIES,
     "t_left - t_right if (mid - lo) & 1 else t_left + t_right",
     "t_left + t_right if (mid - lo) & 1 else t_left - t_right"),
    ("q_den**hi for q_den**(hi-1)", SERIES,
     "spec.q_den ** (hi - 1))", "spec.q_den ** hi)"),
    ("one-term blocks", SERIES, "if bits >= target and k > lo:", "if bits >= target:"),
    ("block sign dropped", SERIES, "units += -block if lo & 1 else block", "units += block"),
    ("full-width bit target", SERIES,
     "3 * numerator.bit_length() // 4", "numerator.bit_length()"),
    ("SATURN over 2k+1", SERIES,
     "Component.SATURN: (lambda x: x / 4, 1, 4)", "Component.SATURN: (lambda x: x / 4, 1, 2)"),
    ("MARS over 4k+1", SERIES,
     "Component.MARS: (lambda x: x**3 / 4, 3, 4)", "Component.MARS: (lambda x: x**3 / 4, 1, 4)"),
    ("q_den 1 accepted", SERIES, "_least = (1, 1, 1, 1, 2)", "_least = (1, 1, 1, 1, 1)"),
    ("term ratio without the step", SERIES,
     "spec.q_den * spec.denominator(k + 1))", "spec.q_den * spec.denominator(k))"),
    ("ceiling division", FIXEDPOINT,
     "_fixed(a.signed_units // m, a.scale)", "_fixed(-(-a.signed_units // m), a.scale)"),
    ("negative divisor taken", FIXEDPOINT,
     "type(m) is not int or m < 1:", "type(m) is not int or m == 0:"),
    ("power of two shifted one bit too far", FIXEDPOINT,
     "_fixed(a.signed_units >> shift, a.scale)", "_fixed(a.signed_units >> shift + 1, a.scale)"),
    ("scale without the guard", FIXEDPOINT,
     "return self.target_digits + self.guard_digits", "return self.target_digits"),
    ("bool taken as an int", FIXEDPOINT,
     "if type(value) is not int:", "if not isinstance(value, int):"),
    ("negative scale taken", FIXEDPOINT, "_least = (None, 0)", "_least = (None, None)"),
    ("negative ledger taken", FIXEDPOINT, "_least = (0,)", "_least = (None,)"),
    ("target of 0 digits taken", FIXEDPOINT, "_least = (1, 0)", "_least = (0, 0)"),
    ("no zfill before the point", FIXEDPOINT,
     "body.zfill(want_digits + 1)", "body.zfill(want_digits)"),
    ("str past the int/str cap", FIXEDPOINT,
     "body = str(Decimal(prefix_lo))", "body = str(prefix_lo)"),
    ("identity always passes", FORMULAS,
     "IdentityCheck(residual <= bound,", "IdentityCheck(True,"),
    ("agreement always passes", FORMULAS, "diff <= bound, diff", "True, diff"),
    ("Machin row counts one series", FORMULAS,
     "sum(terms_needed(s, t) for s in specs)", "terms_needed(specs[0], t)"),
    ("ratios joined without spaces", FORMULAS, 'ratio=" & ".join(', 'ratio="&".join('),
    ("Leibniz note one decade high", FORMULAS, "needs > 10^{t - 1} terms", "needs > 10^{t} terms"),
    ("Leibniz count one decade high", FORMULAS, 'f"~5e{t - 1}"', 'f"~5e{t}"'),
    ("identity residual as a ceiling", FORMULAS,
     "residual = abs(combined.value.signed_units - case1.value.signed_units) // 4",
     "residual = -(-abs(combined.value.signed_units - case1.value.signed_units) // 4)"),
    ("identity bound as a ceiling", FORMULAS,
     "bound = (case1.error_ulps + combined.error_ulps) // 4",
     "bound = -(-(case1.error_ulps + combined.error_ulps) // 4)"),
    ("inner * weight", FORMULAS,
     "(weight * inner, series_for_case", "(inner * weight, series_for_case"),
    ("case1 by default", CLI, 'default="combined"', 'default="case1"'),
    ("verify at 51 digits by default", CLI, "default=50,", "default=51,"),
    ("bench at 2001 digits by default", CLI, "default=2000,", "default=2001,"),
    ("CSV lines end in CRLF", CLI, 'lineterminator="\\n"', 'lineterminator="\\r\\n"'),
    ("rate column to 2 places", CLI, "{row.terms_per_digit:.3f}", "{row.terms_per_digit:.2f}"),
    ("JSON terms as one total", CLI,
     '"terms_used": list(result.component_terms)', '"terms_used": [result.terms_used]'),
]
# combined - case1 and its certificate are multiples of 4, so the identity's
# // 4 is exact, and int products commute
EQUIVALENT = {"identity residual as a ceiling", "identity bound as a ceiling", "inner * weight"}


def run(file: str, old: str, new: str) -> str:
    """The verdict on one mutant, after its tier-1 run in a scratch copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as scratch:
        work = Path(scratch)
        for tree in ("src", "tests"):
            shutil.copytree(ROOT / tree, work / tree, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "README.md", work)
        target = work / file
        text = target.read_text()
        if text.count(old) != 1:
            return f"no match ({text.count(old)} occurrences)"
        target.write_text(text.replace(old, new))
        paths = os.environ.get("PYTHONPATH")
        env = {**os.environ, "PYTHONPATH": "src" + (os.pathsep + paths if paths else "")}
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                 "--continue-on-collection-errors", "tests"],
                cwd=work, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return f"killed (over {TIMEOUT_S} s)"
    if proc.returncode == 0:
        return "survived"
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return f"killed by {failed[0] if failed else f'exit {proc.returncode}'}"


def main() -> int:
    missed = 0
    for number, (name, file, old, new) in enumerate(MUTANTS, 1):
        verdict = run(file, old, new)
        expected = "survived" if name in EQUIVALENT else "killed"
        missed += not verdict.startswith(expected)
        mark = " (equivalent)" if name in EQUIVALENT else ""
        print(f"{number:2} {name}{mark}: {verdict}", flush=True)
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
