"""rationalpi benchmark: three workloads, checked outputs, one JSON result line.

    python3 perfbench/run.py --workload {cli-small,lib-2k,pi-20k} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout; the package is imported from ``src``.
Requests run one at a time (closed loop, one client): ``cli-small`` and
``pi-20k`` start one ``python -m rationalpi`` per request, ``lib-2k`` runs its
library calls in one worker process with no start-up inside the timed
region.  Every output is checked against independently computed digits
(:mod:`refdigits`, :mod:`checks`) before its time counts; a request that
exits non-zero, is refused or prints wrong output counts in ``failed``.
Every pi-20k output equals the reference byte for byte, so the three routes
agree byte for byte.

Times are CPU time (user + system) of the process doing the request: the
child's own from ``os.wait4``, or ``time.process_time`` around a library
call.  The program is single-threaded, so on an idle machine this is its
wall time; on a shared one, wall time also counts other tenants' load and
swings twice as wide between runs, while CPU time stays within a few per
cent.  Wall time of each loop is printed for information.

End-to-end metrics (``--trace 0``).  Every workload reports the same names,
so the workload picks the meaning:

- ``setup_s``: median of 11 fresh interpreters finishing ``import rationalpi.cli``.
- ``cpu_p50_ms``, ``cpu_p90_ms``: per-request time (``cli_p50_ms`` and
  ``cli_p90_ms`` on ``cli-small``, ``lib2k_p90_ms`` on ``lib-2k``).
- ``ops_per_cpu_s``: completed requests per second of request time
  (``lib2k_ops_per_s`` on ``lib-2k``).
- ``case1_cpu_s``, ``combined_cpu_s``, ``machin_cpu_s``: mean time of the pi
  requests of one route (``pi20k_<route>_s`` on ``pi-20k``); a mean, because
  pi-20k has only three or four requests per route in a run.
- ``peak_rss_mb``: largest peak RSS of any process running the program, per
  child from ``os.wait4`` (``pi20k_peak_rss_mb`` on ``pi-20k``).

``failed_share`` is ``failed / attempted`` in the result line; it is 0 when
the program is sound, so it is not a bounded metric.

Per-layer metrics (``--trace 1``) come from a separate run in which every
request runs untraced and then traced; :mod:`spans` defines the layers, and
the CPU time of the two passes gives the tracing overhead.  The ledger
figures compare each pi route's stored value at the workload's ladder rung
(128, 2000 or 20000 digits) with the reference at 20 digits past the
working scale.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

import checks
import spans
import workgen
from child import TRACE_MARK
from refdigits import Reference

ROOT = Path.cwd()
SRC = ROOT / "src"
CHILD = str(Path(__file__).resolve().parent / "child.py")
SPAWNER = str(Path(__file__).resolve().parent / "spawner.py")
WORK = ROOT / ".perfbench-work"  # the children's output files
PY = sys.executable
RUN_LIMIT_S = 170.0  # a run must end within 180 s
SETUP_SAMPLES = 11
IMPORT_MODULES = (
    "rationalpi",
    "rationalpi.fixedpoint",
    "rationalpi.series",
    "rationalpi.formulas",
    "rationalpi.cli",
)
TIGHTNESS_EXTRA_DIGITS = 20
LAYER_UNITS = {
    "interp.bare_ms": "ms",
    "import.ms": "ms",
    "import.self_ms": "ms",
    "cli.self_ms": "ms",
    "plan.ms": "ms",
    "plan.terms_needed_calls": "count",
    "plan.guard_digits": "digits",
    "series.eval_ms": "ms",
    "series.terms": "count",
    "series.us_per_term": "us",
    "compose.self_ms": "ms",
    "render.ms": "ms",
    "fixedpoint.ops_per_term": "count",
    "ledger.certified_ulps": "ulps",
    "ledger.actual_ulps": "ulps",
    "ledger.slack_digits": "digits",
    "certify.margin_digits": "digits",
    "trace.overhead_pct": "%",
}


class Child(NamedTuple):
    code: int | None  # None: killed at the deadline
    stdout: str
    stderr: str
    cpu_s: float
    rss_mb: float


class Outcome(NamedTuple):
    req: workgen.Request
    cpu_s: float
    error: str | None  # why the request failed, None when it succeeded
    wrong: bool  # it failed by printing wrong output, not by exit or refusal
    rss_mb: float


class Loop(NamedTuple):
    outcomes: list[Outcome]
    traced: list[Outcome]  # the same requests run again traced, traced runs only
    blocks: int
    wall_s: float
    span_lists: list[list]  # one span list per traced request
    rss_mb: float


class Spawner:
    """Runs children one at a time through ``spawner.py``, whose small
    footprint keeps the children's peak RSS their own."""

    def __init__(self, env: dict):
        WORK.mkdir(exist_ok=True)
        self.out = WORK / f"{os.getpid()}.stdout"
        self.err = WORK / f"{os.getpid()}.stderr"
        self.proc = subprocess.Popen(
            [PY, "-S", "-I", SPAWNER], stdin=subprocess.PIPE, stdout=subprocess.PIPE,
            env=env, cwd=ROOT, text=True,
        )

    def run(self, argv: list[str], timeout: float) -> Child:
        job = {"argv": argv, "stdout": str(self.out), "stderr": str(self.err), "timeout": timeout}
        self.proc.stdin.write(json.dumps(job) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process ended early")
        reply = json.loads(line)
        return Child(
            reply["code"],
            self.out.read_text(encoding="utf-8"),
            self.err.read_text(encoding="utf-8"),
            reply["cpu_s"],
            reply["rss_kb"] / 1024,
        )

    def close(self) -> None:
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()
        self.out.unlink(missing_ok=True)
        self.err.unlink(missing_ok=True)


class Bench:
    """One benchmark run: environment, deadline, reference and tallies."""

    def __init__(self, workload: workgen.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.deadline = time.perf_counter() + RUN_LIMIT_S
        self.spawner = Spawner({**os.environ, "PYTHONPATH": str(SRC)})
        self.ref = Reference()
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def child(self, argv: list[str]) -> Child:
        return self.spawner.run(argv, self.deadline - time.perf_counter())

    def tally(self, outcomes: list[Outcome]) -> None:
        failed, wrong = count_failures(outcomes)
        self.attempted += len(outcomes)
        self.failed += failed
        self.wrong += wrong

    # -- set-up ----------------------------------------------------------

    def interpreters(self, code: str, samples: int, *flags: str) -> list[Child]:
        """``samples`` fresh interpreters running ``python [flags] -c code``."""
        out = []
        for _ in range(samples):
            child = self.child([PY, *flags, "-c", code])
            if child.code != 0:
                raise RuntimeError(f"`python -c {code!r}` failed: {child.stderr.strip()}")
            out.append(child)
        return out

    def median_cpu(self, code: str) -> float:
        return statistics.median(c.cpu_s for c in self.interpreters(code, SETUP_SAMPLES))

    def setup_s(self) -> float:
        self.interpreters("import rationalpi.cli", 1)  # fills __pycache__
        return self.median_cpu("import rationalpi.cli")

    def prepare_reference(self, blocks: list[list[workgen.Request]]) -> None:
        top = {}
        for block in blocks:
            for req in block:
                target = workgen.REFERENCE_TARGET.get(req.kind)
                if target:
                    top[target] = max(top.get(target, 0), req.digits)
        for target, digits in top.items():
            self.ref.ensure(target, digits)
        self.ref.self_check(1000)

    # -- workloads -------------------------------------------------------

    def run(self, blocks: list[list[workgen.Request]], seconds: float, traced: bool) -> Loop:
        """Run the workload's closed loop for ``seconds`` in whole blocks.

        When ``traced``, each request runs untraced and then traced, back to
        back, so the tracing overhead is measured under the same load.
        """
        if self.workload.child == "lib":
            return self._run_lib(seconds, traced)
        span_lists: list[list] = []

        def run_cli(req: workgen.Request, argv: list[str]) -> tuple[Outcome, Child]:
            child = self.child(argv)
            if child.code is None:
                return Outcome(req, child.cpu_s, "timed out", False, child.rss_mb), child
            error = checks.check_cli(req, child.code, child.stdout, self.ref)
            wrong = error is not None and child.code == 0
            return Outcome(req, child.cpu_s, error, wrong, child.rss_mb), child

        def one(req: workgen.Request) -> tuple[Outcome, Outcome | None]:
            args = workgen.cli_argv(req)
            plain, _ = run_cli(req, [PY, "-m", "rationalpi", *args])
            if not traced:
                return plain, None
            shadow, child = run_cli(req, [PY, CHILD, "cli", *args])
            if child.code is not None:
                span_lists.append(json.loads(child.stderr.rpartition(TRACE_MARK)[2])["spans"])
            return plain, shadow

        min_blocks = 1 if traced else self.workload.min_blocks
        pairs, done, wall_s = workgen.run_blocks(blocks, seconds, min_blocks, one, self.deadline)
        outcomes = [p for p, _ in pairs]
        return Loop(outcomes, [t for _, t in pairs if t], done, wall_s, span_lists,
                    max(o.rss_mb for o in outcomes))

    def _run_lib(self, seconds: float, traced: bool) -> Loop:
        child = self.child([PY, CHILD, "lib", str(self.seed), repr(seconds), str(int(traced))])
        if child.code != 0:
            raise RuntimeError(f"library worker failed: {child.stderr.strip()[-2000:]}")
        payload = json.loads(child.stdout)

        def outcomes(rows: list[list]) -> list[Outcome]:
            out = []
            for kind, digits, cpu_s, value, refusal in rows:
                req = workgen.Request(kind, digits, "plain")
                if refusal is None:
                    error = checks.check_value(req, value, self.ref)
                    out.append(Outcome(req, cpu_s, error, error is not None, child.rss_mb))
                else:
                    out.append(Outcome(req, cpu_s, f"{kind}: refused ({refusal})", False, child.rss_mb))
            return out

        return Loop(outcomes(payload["results"]), outcomes(payload["traced"]), payload["blocks"],
                    payload["wall_s"], payload["spans"], child.rss_mb)

    # -- metrics ---------------------------------------------------------

    def end_to_end(self, loop: Loop) -> dict:
        ok = [o for o in loop.outcomes if o.error is None]
        if not ok:
            raise RuntimeError("no request succeeded")
        cpu = sorted(o.cpu_s for o in ok)
        metrics = {
            "cpu_p50_ms": (1e3 * statistics.median(cpu), "ms"),
            "cpu_p90_ms": (1e3 * p90(cpu), "ms"),
            "ops_per_cpu_s": (len(ok) / sum(o.cpu_s for o in loop.outcomes), "1/s"),
        }
        for route in workgen.ROUTES:
            times = [o.cpu_s for o in ok if o.req.kind == f"pi.{route}"]
            if not times:
                raise RuntimeError(f"no successful pi.{route} request")
            metrics[f"{route}_cpu_s"] = (statistics.fmean(times), "s")
        metrics["peak_rss_mb"] = (loop.rss_mb, "MB")
        return metrics

    def import_split(self) -> dict:
        """``-X importtime`` self time per package module, median of 5."""
        samples: dict[str, list[float]] = {m: [] for m in IMPORT_MODULES}
        for child in self.interpreters("import rationalpi.cli", 5, "-X", "importtime"):
            for line in child.stderr.splitlines():
                if not line.startswith("import time:") or "|" not in line:
                    continue
                fields = [f.strip() for f in line[len("import time:"):].split("|")]
                if fields[2] in samples and fields[0].isdigit():
                    samples[fields[2]].append(int(fields[0]) / 1e3)
        return {f"import.self_ms.{m}": statistics.median(v) if v else 0.0 for m, v in samples.items()}

    def exact_counts(self) -> dict:
        """Certified against actual error of each pi route at the ladder rung,
        and fixed-point arithmetic calls per series term."""
        digits = self.workload.ladder_digits
        child = self.child([PY, CHILD, "exact", str(digits)])
        if child.code != 0:
            raise RuntimeError(f"exact-count worker failed: {child.stderr.strip()[-2000:]}")
        extra = TIGHTNESS_EXTRA_DIGITS
        metrics = {}
        for route, rec in json.loads(child.stdout).items():
            true_units, slop = self.ref.scaled("pi", rec["scale"] + extra)
            stored = int(rec["units_hex"], 16) * 10**extra
            actual = max(abs(stored - true_units), slop) / 10**extra
            certified = rec["error_ulps"]
            metrics[f"ledger.certified_ulps.{route}"] = float(certified)
            metrics[f"ledger.actual_ulps.{route}"] = actual
            metrics[f"ledger.slack_digits.{route}"] = math.log10(certified / actual)
            metrics[f"certify.margin_digits.{route}"] = float(rec["guaranteed_digits"] - digits)
            metrics[f"fixedpoint.ops_per_term.{route}"] = rec["arithmetic_calls"] / rec["terms"]
        return metrics


def count_failures(outcomes: list[Outcome]) -> tuple[int, int]:
    """(failed, wrong) among ``outcomes``; each failure is also logged."""
    failed = [o for o in outcomes if o.error is not None]
    for o in failed:
        print(f"FAILED {o.req.kind} --digits {o.req.digits}: {o.error}", file=sys.stderr)
    return len(failed), sum(o.wrong for o in failed)


def p90(sorted_values: list[float]) -> float:
    """90th percentile, interpolated inside the sample range."""
    if len(sorted_values) < 2:
        return sorted_values[0]
    return statistics.quantiles(sorted_values, n=10, method="inclusive")[-1]


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric: that of its family, the name up to a
    route, case or module suffix."""
    while name not in LAYER_UNITS:
        name = name.rpartition(".")[0]
    return LAYER_UNITS[name]


def measure(bench: Bench, args: argparse.Namespace) -> dict:
    workload = bench.workload
    t0 = time.perf_counter()
    setup_s = bench.setup_s()
    blocks = workgen.generate(workload.name, args.seed)
    bench.prepare_reference(blocks)
    print(f"set-up: {time.perf_counter() - t0:.2f} s wall")

    loop = bench.run(blocks, args.seconds, traced=bool(args.trace))
    bench.tally(loop.outcomes)
    bench.tally(loop.traced)
    cpu = sum(o.cpu_s for o in loop.outcomes)
    print(f"{workload.name}: {len(loop.outcomes)} requests in {loop.blocks} blocks, "
          f"{loop.wall_s:.2f} s wall, {cpu:.2f} s CPU untraced")
    if not args.trace:
        return {"setup_s": (setup_s, "s"), **bench.end_to_end(loop)}

    traced_cpu = sum(o.cpu_s for o in loop.traced)
    bare = bench.median_cpu("pass")
    layer = {
        "interp.bare_ms": 1e3 * bare,
        "import.ms": 1e3 * (setup_s - bare),
        **bench.import_split(),
        **spans.layer_metrics(loop.span_lists),
        **bench.exact_counts(),
        "trace.overhead_pct": 100.0 * (traced_cpu / cpu - 1.0),
    }
    return {name: (value, layer_unit(name)) for name, value in layer.items()}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workgen.WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "rationalpi" / "cli.py").is_file():
        print(f"error: no rationalpi sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    bench = Bench(workgen.WORKLOADS[args.workload], args.seed)
    try:
        metrics = measure(bench, args)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        bench.spawner.close()
    for name, (value, unit) in metrics.items():
        print(f"{name:40s} {value:14.6g} {unit}")
    print(f"failed_share {bench.failed / bench.attempted:.6g} "
          f"({bench.failed} of {bench.attempted} requests)")
    print(json.dumps({
        "correct": bench.wrong == 0,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
