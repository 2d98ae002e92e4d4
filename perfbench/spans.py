"""Span tracing of the package from outside, and per-layer aggregation.

:func:`install` wraps the public functions of ``rationalpi.cli``,
``formulas``, ``series`` and ``fixedpoint`` without touching the package's
files.  Names bound by ``from ... import`` are copies, so the wrapper is
written into every ``rationalpi`` module (and the package) that holds the
original function: a caller's lookup then finds the wrapper wherever it
looks.  The per-term arithmetic (``fx_add``, ``fx_mul_small``,
``fx_div_small``) gets no span, because a span per term would swamp what
it measures; it is counted only when asked, in a pass that is not timed.

A span is ``[id, parent, module, name, start, end, attrs]`` with start and
end in process CPU seconds; spans of one request form a tree under the
root span the caller opens.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict
from enum import Enum

import workgen

PACKAGE = "rationalpi"
LAYER_MODULES = ("cli", "formulas", "series", "fixedpoint")
COUNTED = frozenset({"fx_add", "fx_mul_small", "fx_div_small"})
PLAN_NAMES = ("context_for", "terms_needed", "compare_convergence")
ROUTE_SPANS = frozenset({"compute_pi", "sun"})
TAGS = workgen.ROUTES + tuple(workgen.CASES)
_CASE_TAGS = {arg: tag for tag, arg in workgen.CASES.items()}


def _tag_of(arg) -> str | None:
    """Route or case tag of a ``compute_pi``/``sun`` first argument."""
    for value in (arg, getattr(arg, "formula_id", None), getattr(arg, "case_id", None)):
        if isinstance(value, Enum):
            return _CASE_TAGS.get(value.value, value.value)
    return None


class Tracer:
    """In-memory span recorder for one process, single-threaded."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []

    def span(self, module: str, name: str, fn, /, *args, **kwargs):
        """Call ``fn`` inside a span and return its result."""
        record = [len(self.spans), self._stack[-1] if self._stack else -1, module, name, 0.0, 0.0, None]
        self.spans.append(record)
        self._stack.append(record[0])
        record[4] = time.process_time()
        try:
            result = fn(*args, **kwargs)
        finally:
            record[5] = time.process_time()
            self._stack.pop()
        attrs = {}
        if name in ROUTE_SPANS and args:
            attrs["tag"] = _tag_of(args[0])
        terms = getattr(result, "terms_used", None)
        if isinstance(terms, int):
            attrs["terms"] = terms
        guard = getattr(result, "guard_digits", None)
        if isinstance(guard, int):
            attrs["guard"] = guard
        record[6] = attrs or None
        return result

    def wrap(self, module: str, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(module, name, fn, *args, **kwargs)

        return traced

    def count(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


class Hooks:
    """The bindings :func:`install` replaced, switchable between the
    wrappers and the package's own functions."""

    def __init__(self, bindings: list[tuple]):
        self.bindings = bindings  # (module, name, original, wrapper)

    def set(self, traced: bool) -> None:
        for module, name, original, wrapper in self.bindings:
            setattr(module, name, wrapper if traced else original)


def install(tracer: Tracer, count_arithmetic: bool = False) -> Hooks:
    """Wrap the layer modules' public functions everywhere they are bound:
    spans for all but the per-term arithmetic, which is counted when
    ``count_arithmetic`` is set and left alone otherwise."""
    __import__(f"{PACKAGE}.cli")
    wrappers = {}
    for short in LAYER_MODULES:
        module = sys.modules[f"{PACKAGE}.{short}"]
        for name, obj in vars(module).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            if obj.__module__ != module.__name__:
                continue
            if name in COUNTED:
                if count_arithmetic:
                    wrappers[id(obj)] = (obj, tracer.count(name, obj))
            else:
                wrappers[id(obj)] = (obj, tracer.wrap(short, name, obj))
    bindings = []
    for modname, module in list(sys.modules.items()):
        if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
            continue
        for name, obj in list(vars(module).items()):
            hit = wrappers.get(id(obj))
            if hit is not None and hit[0] is obj:
                bindings.append((module, name, obj, hit[1]))
    hooks = Hooks(bindings)
    hooks.set(True)
    return hooks


# ---------------------------------------------------------------------------
# aggregation


def self_times(spans: list[list]) -> dict[int, float]:
    """Span duration minus the part its direct children cover.

    Children of a span run inside it one after another, so their durations
    never overlap and the covered part is their sum.
    """
    own = {s[0]: s[5] - s[4] for s in spans}
    for s in spans:
        if s[1] >= 0:
            own[s[1]] -= s[5] - s[4]
    return own


def _layer(span: list, parent_layer: str | None) -> str:
    module, name = span[2], span[3]
    if name.startswith(PLAN_NAMES):
        return "plan"
    if name == "fx_to_decimal_string":
        return "render"
    if module == "formulas":
        return "compose"
    if module in ("cli", "series"):
        return module
    if module == "fixedpoint" and parent_layer is not None:
        return parent_layer  # e.g. guaranteed_digit_count inside eval_series
    return module


def layer_metrics(requests: list[list[list]]) -> dict[str, float]:
    """Per-layer metrics over traced requests, as means per request.

    ``requests`` holds one span list per request; every list's first span is
    the request's root.
    """
    n = max(1, len(requests))
    layer_s: dict[str, float] = defaultdict(float)
    tag_s: dict[str, float] = defaultdict(float)
    tag_terms: dict[str, int] = defaultdict(int)
    tag_calls: dict[str, int] = defaultdict(int)
    terms = terms_needed = 0
    guards = []
    for spans in requests:
        by_id = {s[0]: s for s in spans}
        own = self_times(spans)
        layers: dict[int, str] = {}
        tags: dict[int, str | None] = {}
        for s in spans:  # parents precede children
            parent = by_id.get(s[1])
            layer = _layer(s, layers.get(s[1])) if parent is not None else "bench"
            layers[s[0]] = layer
            attrs = s[6] or {}
            tag = tags.get(s[1])
            if s[3] in ROUTE_SPANS and tag is None and attrs.get("tag") in TAGS:
                tag = attrs["tag"]
                tag_calls[tag] += 1
            tags[s[0]] = tag
            layer_s[layer] += own[s[0]]
            if s[3] == "terms_needed":
                terms_needed += 1
            if "guard" in attrs:
                guards.append(attrs["guard"])
            if layer == "series":
                if tag is not None:
                    tag_s[tag] += own[s[0]]
                if "terms" in attrs and layers.get(s[1]) != "series":
                    terms += attrs["terms"]
                    if tag is not None:
                        tag_terms[tag] += attrs["terms"]
    metrics = {
        "cli.self_ms": 1e3 * layer_s["cli"] / n,
        "plan.ms": 1e3 * layer_s["plan"] / n,
        "plan.terms_needed_calls": terms_needed / n,
        "plan.guard_digits": sum(guards) / len(guards) if guards else 0.0,
        "series.eval_ms": 1e3 * layer_s["series"] / n,
        "series.terms": terms / n,
        "series.us_per_term": 1e6 * layer_s["series"] / terms if terms else 0.0,
        "compose.self_ms": 1e3 * layer_s["compose"] / n,
        "render.ms": 1e3 * layer_s["render"] / n,
    }
    for tag in TAGS:
        calls = tag_calls[tag]
        metrics[f"series.eval_ms.{tag}"] = 1e3 * tag_s[tag] / calls if calls else 0.0
        metrics[f"series.terms.{tag}"] = tag_terms[tag] / calls if calls else 0.0
        metrics[f"series.us_per_term.{tag}"] = (
            1e6 * tag_s[tag] / tag_terms[tag] if tag_terms[tag] else 0.0
        )
    return metrics
