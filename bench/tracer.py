"""Spans and call capture around the package's public functions.

Nothing inside the package is edited. A wrapper replaces a function under
every name it is bound to in the loaded ``intervalcolor`` modules, which
covers both the benchmark's own calls and the package's internal calls
through ``from .x import f`` bindings, and is removed again afterwards.

A span is (name, start, end, parent index). A span's self time is its
duration minus the durations of its direct children; a layer's time is the
sum of the self times of its spans, so nested calls are never counted twice.
"""

from __future__ import annotations

import importlib
import sys
from collections import Counter
from time import perf_counter

# (module, function, span name). The layer is the span name's first part.
SPANNED = (
    ("catalog", "generate_connected_catalog", "catalog.generate"),
    ("graph", "parse_graph6", "graph.parse"),
    ("graph", "write_graph6", "graph.write"),
    ("graph", "classify", "graph.classify"),
    ("bounds", "applicable_bounds", "bounds.applicable"),
    ("bounds", "best_upper_bound", "bounds.best"),
    ("bounds", "audit", "bounds.audit"),
    ("solver", "compute_W", "solver.compute_W"),
    ("solver", "find_interval_coloring", "solver.find"),
    ("coloring", "validate_interval", "coloring.validate"),
    ("coloring", "coloring_from_json", "coloring.json"),
    ("coloring", "coloring_to_json", "coloring.json"),
    ("coloring", "validation_report_to_json", "coloring.json"),
    ("doubling", "double_graph", "doubling.build"),
    ("doubling", "lift_coloring", "doubling.lift"),
    ("doubling", "finalize_recolor", "doubling.recolor"),
    ("doubling", "certificate_to_json", "doubling.cert_json"),
    ("doubling", "double_with_certificate", "doubling.pipeline"),
    ("survey", "survey_graph", "survey.graph"),
    ("survey", "write_survey_csv", "survey.csv"),
)
# Called too often to time one by one; only counted.
COUNTED = (("catalog", "minimum_adjacency_encoding", "catalog.encodings"),)
# Generator functions: the span covers producing every item.
EAGER = {"generate_connected_catalog"}


def install(wrappers: dict[tuple[str, str], object]):
    """Replace each (module, function) of the package by ``wrap(original)``
    wherever it is bound; returns a function that restores the originals."""
    undo = []
    modules = [m for k, m in sys.modules.items() if k == "intervalcolor" or k.startswith("intervalcolor.")]
    for (module, name), wrap in wrappers.items():
        original = getattr(importlib.import_module(f"intervalcolor.{module}"), name)
        replacement = wrap(original)
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, replacement)
                    undo.append((mod, attr, original))

    def restore() -> None:
        for mod, attr, original in reversed(undo):
            setattr(mod, attr, original)

    return restore


class Recorder:
    """Keeps every compute_W outcome and doubling certificate of a pass, so
    the independent checker can see what the program produced."""

    def __init__(self) -> None:
        self.solves: list[tuple[object, object, object]] = []  # (g, limits, outcome)
        self.certs: list[tuple[object, object, object]] = []  # (g, alpha, certificate)

    def wrappers(self) -> dict:
        def solve(fn):
            def compute_W(g, limits=None):
                outcome = fn(g, limits)
                self.solves.append((g, limits, outcome))
                return outcome

            return compute_W

        def double(fn):
            def double_with_certificate(g, alpha):
                cert = fn(g, alpha)
                self.certs.append((g, alpha, cert))
                return cert

            return double_with_certificate

        return {("solver", "compute_W"): solve, ("doubling", "double_with_certificate"): double}


class Tracer:
    """Records spans and call counts in memory while installed."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack: list[int] = []

    def _span(self, name: str, fn, eager: bool):
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                return iter(list(result)) if eager else result
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)

        return traced

    def _count(self, name: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def wrappers(self, inner: dict | None = None) -> dict:
        """Span and count wrappers, each applied on top of ``inner``'s
        wrapper for the same function when there is one."""
        inner = inner or {}
        out = dict(inner)
        for module, name, span in SPANNED:
            under = inner.get((module, name), lambda fn: fn)
            out[(module, name)] = lambda fn, s=span, u=under, e=name in EAGER: self._span(s, u(fn), e)
        for module, name, counter in COUNTED:
            out[(module, name)] = lambda fn, c=counter: self._count(c, fn)
        return out

    def self_times(self) -> tuple[dict[str, float], Counter[str]]:
        """Self seconds and call count per span name."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            name, start, end, parent = span
            if parent >= 0:
                child_time[parent] += end - start
        seconds: dict[str, float] = {}
        calls: Counter[str] = Counter()
        for span, inner in zip(self.spans, child_time):
            name, start, end, _ = span
            seconds[name] = seconds.get(name, 0.0) + (end - start - inner)
            calls[name] += 1
        calls.update(self.counts)
        return seconds, calls
