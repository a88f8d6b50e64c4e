"""Edge colorings, their JSON documents, and the interval-coloring validity check.

A coloring with declared palette size t is *valid* when three conditions
hold: adjacent edges carry distinct colors, the colors at each vertex of
positive degree form a set of consecutive integers whose size equals the
degree, and every color in 1..t appears on some edge. Degree-0 vertices
impose no constraint, which keeps the validator total on subgraphs and
certificates even though the solver itself rejects edgeless graphs. Unused
colors are reported one by one while there are at most m + 1 of them, else
as maximal runs, so a report stays O(m) for any t.

The kernel's ``interval_ok`` (``solver._native``) gives the verdict first,
so that a valid coloring costs no Python loop over its vertices, and
``_report`` builds the report of every other coloring. ``EdgeColoring``'s
range check is the kernel's ``in_palette`` first, and
``_check_colors_py``, the reference, wherever it declines the colors, so
that every error message is the Python loop's; t and the colors are plain
ints either way.

``Failure`` and ``ValidationReport`` are ``NamedTuple``s (see the package
docstring); ``EdgeColoring`` is a frozen dataclass.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import NamedTuple

from .errors import DomainError, ParseError
from .graph import Graph


@dataclass(frozen=True, slots=True)
class EdgeColoring:
    """One positive color per edge, indexed like ``Graph.edges``, plus t.

    A dataclass, not a ``NamedTuple``, because construction checks the
    palette (``in_palette`` or ``_check_colors_py``) and keeps plain ints."""

    t: int
    colors: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "colors", tuple(self.colors))
        if not solver._native().in_palette(self.t, self.colors):
            t, colors = _check_colors_py(self.t, self.colors)
            object.__setattr__(self, "t", t)
            object.__setattr__(self, "colors", colors)


def _check_colors_py(t: int, colors: tuple) -> tuple[int, tuple[int, ...]]:
    """``EdgeColoring``'s range check in Python: the reference for the
    kernel's ``in_palette``, and the source of every error. The kernel
    declines all but exact ints in 1..t, t <= 2**63 - 1; this loop takes
    the rest through ``operator.index`` (so a float raises TypeError) and
    returns t and the colors as plain ints."""
    t = operator.index(t)
    if t < 1:
        raise ValueError(f"palette size must be >= 1, got {t}")
    plain = tuple(map(operator.index, colors))
    for k, c in enumerate(plain):
        if not 1 <= c <= t:
            raise ValueError(f"color {c} at edge index {k} outside 1..{t}")
    return t, plain


class Failure(NamedTuple):
    kind: str  # "proper" | "interval" | "surjective"
    subject: int  # vertex for proper/interval, color for surjective
    detail: str


class ValidationReport(NamedTuple):
    proper: bool
    interval_at_every_vertex: bool
    surjective: bool
    verdict: bool
    failures: tuple[Failure, ...]


def _check_sized(g: Graph, c: EdgeColoring) -> None:
    if len(c.colors) != g.m:
        raise DomainError(f"coloring has {len(c.colors)} colors but graph has {g.m} edges")


# The report of every valid coloring: nothing failed.
_VALID = ValidationReport(True, True, True, True, ())


def validate_interval(g: Graph, c: EdgeColoring) -> ValidationReport:
    """Full validity check; failures accumulate instead of short-circuiting.

    The kernel's ``interval_ok`` gives the verdict first, and a valid
    coloring gets the shared all-true report. Any other coloring, and a t
    above the edge count (never surjective, and possibly too large for C),
    get ``_report``, whose verdict ``interval_ok`` equals.
    """
    _check_sized(g, c)
    if c.t <= g.m and solver._native().interval_ok(g.n, g.edges, c.colors, c.t):
        return _VALID
    return _report(g, c)


def _report(g: Graph, c: EdgeColoring) -> ValidationReport:
    """``validate_interval`` in Python, for a coloring sized to g: the
    reference for the kernel's verdict, and the builder of every failure
    report."""
    failures: list[Failure] = []
    proper = True
    interval_ok = True
    for v in range(g.n):
        raw = [c.colors[k] for k in g.incidence[v]]
        if not raw:
            continue
        distinct = sorted(set(raw))
        if len(distinct) < len(raw):
            proper = False
            dupes = sorted({x for x in distinct if raw.count(x) > 1})
            failures.append(Failure("proper", v, f"repeated colors {dupes} at vertex {v}"))
        deg = len(raw)
        lo, hi = distinct[0], distinct[-1]
        if len(distinct) != deg or hi - lo + 1 != deg:
            interval_ok = False
            failures.append(
                Failure(
                    "interval",
                    v,
                    f"spectrum {distinct} at vertex {v} is not {deg} consecutive integers",
                )
            )
    used = set(c.colors)
    surjective = len(used) == c.t
    if c.t - len(used) <= g.m + 1:
        for color in range(1, c.t + 1):
            if color not in used:
                failures.append(Failure("surjective", color, f"color {color} is unused"))
    else:
        # Too many unused colors to list (t may be huge): one failure per
        # maximal run of them, at most m + 1 runs since m colors bound them.
        start = 1
        for color in sorted(used) + [c.t + 1]:
            if color > start:
                last = color - 1
                run = f"color {start} is" if last == start else f"colors {start}..{last} are"
                failures.append(Failure("surjective", start, f"{run} unused"))
            start = color + 1
    verdict = proper and interval_ok and surjective
    return ValidationReport(proper, interval_ok, surjective, verdict, tuple(failures))


# --------------------------------------------------------------------------
# JSON coloring document: {"t": T, "edges": [{"u": i, "v": j, "color": c}, ...]}
# --------------------------------------------------------------------------


def coloring_to_json(g: Graph, c: EdgeColoring) -> dict:
    _check_sized(g, c)
    return {
        "t": c.t,
        "edges": [
            {"u": i, "v": j, "color": color} for (i, j), color in zip(g.edges, c.colors)
        ],
    }


def coloring_from_json(g: Graph, doc: dict) -> EdgeColoring:
    """Accepts edges in any order but requires exactly the graph's edge set."""
    if not isinstance(doc, dict) or "t" not in doc or "edges" not in doc:
        raise ParseError("coloring document must have 't' and 'edges' keys")
    t = doc["t"]
    # type() rather than isinstance(): JSON true/false are bools, a subclass of int.
    if type(t) is not int:
        raise ParseError(f"'t' must be an integer, got {t!r}")
    if not isinstance(doc["edges"], list):
        raise ParseError(f"'edges' must be a list, got {doc['edges']!r}")
    assigned: dict[tuple[int, int], int] = {}
    for k, entry in enumerate(doc["edges"]):
        try:
            u, v, color = entry["u"], entry["v"], entry["color"]
        except (TypeError, KeyError):
            raise ParseError(f"edge entry {k} must have 'u', 'v', 'color'") from None
        if not all(type(x) is int for x in (u, v, color)):
            raise ParseError(f"edge entry {k} has non-integer fields")
        pair = (u, v) if u < v else (v, u)
        if pair in assigned:
            raise ParseError(f"duplicate edge {pair} in coloring document")
        assigned[pair] = color
    edge_set = set(g.edges)
    missing = [e for e in g.edges if e not in assigned]
    unknown = [e for e in assigned if e not in edge_set]
    if missing or unknown:
        raise ParseError(f"edge set mismatch: missing {missing}, unknown {unknown}")
    colors = tuple(assigned[e] for e in g.edges)
    try:
        return EdgeColoring(t, colors)
    except ValueError as exc:
        raise ParseError(str(exc)) from None


def validation_report_to_json(report: ValidationReport) -> dict:
    return {
        "proper": report.proper,
        "interval_at_every_vertex": report.interval_at_every_vertex,
        "surjective": report.surjective,
        "verdict": report.verdict,
        "failures": [
            {"kind": f.kind, "subject": f.subject, "detail": f.detail} for f in report.failures
        ],
    }


# Last, since solver imports this module and needs the names above.
from . import solver  # noqa: E402
