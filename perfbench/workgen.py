"""Seeded request lists for the three workloads.

A request is ``(kind, digits, fmt)``.  Kinds name what the program is asked
for: ``pi.<route>`` for the three pi routes, ``arctan.<case>`` for the three
series arguments, and ``verify`` / ``compare``.  Requests come in blocks
that hold every kind of the workload once, in a seeded order, so any whole
number of blocks is balanced across kinds.  Digit counts are stratified:
each run of ``STRATA`` requests of one kind draws once from each of
``STRATA`` equal slices of the kind's digit range, in a seeded order and at
a seeded point near the slice's middle.  A short run then still covers the
range evenly, and two seeds differ in the order of the work and in little
else, which keeps a run's medians and tails steady from seed to seed.
"""

from __future__ import annotations

import math
import random
import time
from typing import Callable, NamedTuple

ROUTES = ("case1", "combined", "machin")
CASES = {"x1": "1", "x_half": "1/2", "x_quarter": "1/4"}  # kind suffix -> --case
REFERENCE_TARGET = {
    "pi.case1": "pi",
    "pi.combined": "pi",
    "pi.machin": "pi",
    "arctan.x1": "atan1",
    "arctan.x_half": "atan1/3",
    "arctan.x_quarter": "atan1/7",
}
VALUE_KINDS = tuple(REFERENCE_TARGET)
CLI_KINDS = VALUE_KINDS + ("verify", "compare")

STRATA = 16
# generous upper bound on blocks any run can use; the runner stops on time
MAX_BLOCKS = 4000


class Request(NamedTuple):
    kind: str
    digits: int
    fmt: str  # "plain" or "json" for values, "csv" or "json" for compare


class Workload(NamedTuple):
    name: str
    kinds: tuple[str, ...]
    min_blocks: int  # run at least this many blocks whatever the time
    ladder_digits: int  # digit rung the ledger tightness is measured at
    child: str  # "cli": one `python -m rationalpi` per request; "lib": one worker


WORKLOADS = {
    # 16 blocks of 8 = 128 requests, so at least ten samples lie beyond p90
    "cli-small": Workload("cli-small", CLI_KINDS, STRATA, 128, "cli"),
    "lib-2k": Workload("lib-2k", VALUE_KINDS, 2, 2000, "lib"),
    # at least three rounds, so every route has three samples
    "pi-20k": Workload("pi-20k", tuple(f"pi.{r}" for r in ROUTES), 3, 20000, "cli"),
}


def _digits(name: str, frac: float) -> int:
    """Digit count at fraction ``frac`` of the workload's range."""
    if name == "cli-small":  # log-uniform in 10..1000
        return min(1000, int(10 ** (1 + 2 * frac)))
    if name == "lib-2k":  # uniform in 1500..2500
        return 1500 + int(1001 * frac)
    return 20000


def _stratified(rng: random.Random):
    """Endless fractions in [0, 1), one from each of ``STRATA`` slices per
    ``STRATA`` draws, in seeded order, within a quarter slice of the middle."""
    while True:
        order = list(range(STRATA))
        rng.shuffle(order)
        for s in order:
            yield (s + 0.5 + rng.uniform(-0.25, 0.25)) / STRATA


def generate(name: str, seed: int, blocks: int = MAX_BLOCKS) -> list[list[Request]]:
    """The first ``blocks`` request blocks of workload ``name`` for ``seed``."""
    workload = WORKLOADS[name]
    rng = random.Random(f"{name}:{seed}")
    fracs = {kind: _stratified(random.Random(f"{name}:{seed}:{kind}")) for kind in workload.kinds}
    out = []
    for _ in range(blocks):
        order = list(workload.kinds)
        rng.shuffle(order)
        block = []
        for kind in order:
            if kind == "compare":
                fmt = rng.choice(("csv", "json"))
            elif kind == "verify" or workload.child == "lib":
                fmt = "plain"
            else:
                fmt = rng.choice(("plain", "json"))
            block.append(Request(kind, _digits(name, next(fracs[kind])), fmt))
        out.append(block)
    return out


def cli_argv(req: Request) -> list[str]:
    """Arguments after ``python -m rationalpi`` for one request."""
    digits = ["--digits", str(req.digits)]
    if req.kind == "verify":
        return ["verify", *digits]
    if req.kind == "compare":
        return ["compare", *digits, "--format", req.fmt]
    group, which = req.kind.split(".")
    json_flag = ["--json"] if req.fmt == "json" else []
    if group == "pi":
        return ["pi", *digits, "--method", which, *json_flag]
    return ["arctan", "--case", CASES[which], *digits, *json_flag]


def run_blocks(
    blocks: list[list[Request]],
    seconds: float,
    min_blocks: int,
    run_one: Callable[[Request], object],
    deadline: float = math.inf,
) -> tuple[list, int, float]:
    """Closed loop, one request at a time, over whole blocks.

    A block starts only if, at the mean block time so far, it would end
    within ``seconds``; the first ``min_blocks`` always run.  Nothing starts
    after the ``perf_counter`` ``deadline``.  Returns the results, the number
    of blocks run and the loop's wall time.
    """
    results = []
    start = time.perf_counter()
    done = 0
    for block in blocks:
        now = time.perf_counter()
        elapsed = now - start
        if now >= deadline or (
            done >= max(min_blocks, 1) and elapsed * (done + 1) / done > seconds
        ):
            break
        results.extend(run_one(req) for req in block)
        done += 1
    return results, done, time.perf_counter() - start
