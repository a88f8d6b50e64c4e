"""Batch survey pipeline: classify, bound, solve, audit, and optionally
double every graph in a stream, emitting one CSV record per input.

Per-record problems (disconnected or edgeless inputs) are recorded as blank
fields, never abort the stream. A computed W that exceeds an applicable
bound, or a doubling certificate that fails validation, is escalated as an
internal defect instead, because those are correctness bugs. Output is
deterministic: records appear in input order and booleans render as
lowercase true/false. ``SurveyRecord`` is a ``NamedTuple`` (see the
package docstring) whose fields are the CSV columns, in order.
"""

from __future__ import annotations

import csv
from typing import IO, Iterable, Iterator, NamedTuple

from .bounds import _registry, applicable_bounds, audit
from .doubling import double_with_certificate
from .errors import InternalInvariantError
from .graph import Graph, _domain_fault, classify, write_graph6
from .solver import _NO_LIMITS, SearchLimits, SolveStatus, compute_W

NOT_COLORABLE = "not-colorable"
ABORTED = "aborted"


class SurveyRecord(NamedTuple):
    graph6: str
    n: int
    m: int
    delta: int
    connected: bool
    bipartite: bool
    regular_r: int | None
    triangle_free: bool
    w: int | str | None  # int, "not-colorable", "aborted", or None when skipped
    best_bound: int | None
    slack: int | None
    tight_theorems: tuple[str, ...]
    doubling_ok: bool | None


CSV_COLUMNS = tuple("W" if f == "w" else f for f in SurveyRecord._fields)


def survey_graph(
    g: Graph, limits: SearchLimits | None = None, with_doubling: bool = False
) -> SurveyRecord:
    limits = limits or _NO_LIMITS
    cls = classify(g)
    graph6 = write_graph6(g)
    w: int | str | None = None
    best: int | None = None
    slack: int | None = None
    tight: tuple[str, ...] = ()
    doubling_ok: bool | None = None
    if _domain_fault(g, cls.connected) is None:
        # Each theorem's id and bound: the row needs no claim.
        bounds = [(theorem_id, bound) for theorem_id, bound, _ in _registry(g.n, cls, False)]
        best = g.m
        for _, bound in bounds:
            if bound < best:
                best = bound
        outcome = compute_W(g, limits)
        if outcome.status is SolveStatus.ABORTED:
            w = ABORTED
        elif outcome.status is SolveStatus.INFEASIBLE:
            w = NOT_COLORABLE
        else:
            w = outcome.w
            assert w is not None and outcome.witness is not None
            # best is at most every bound, so only w > best can violate
            # one; only then are the claims and their report built.
            if w > best and (violations := audit(g, w, applicable_bounds(g, cls)).violations):
                raise InternalInvariantError(
                    f"W={w} for {graph6} violates "
                    + ", ".join(f"{c.theorem_id} (bound {c.bound})" for c in violations)
                )
            slack = best - w
            tight = tuple(theorem_id for theorem_id, bound in bounds if bound == w)
            if with_doubling:
                doubling_ok = double_with_certificate(g, outcome.witness).validation.verdict
    return SurveyRecord(
        graph6=graph6,
        n=g.n,
        m=g.m,
        delta=cls.max_degree,
        connected=cls.connected,
        bipartite=cls.bipartition is not None,
        regular_r=cls.regular_degree,
        triangle_free=cls.triangle_free,
        w=w,
        best_bound=best,
        slack=slack,
        tight_theorems=tight,
        doubling_ok=doubling_ok,
    )


def run_survey(
    graphs: Iterable[Graph],
    limits: SearchLimits | None = None,
    with_doubling: bool = False,
) -> Iterator[SurveyRecord]:
    for g in graphs:
        yield survey_graph(g, limits, with_doubling)


_FLAG = {True: "true", False: "false", None: ""}  # the text of a bool | None column


def record_to_row(rec: SurveyRecord) -> list[str]:
    """rec's CSV row, each column rendered by the type SurveyRecord declares:
    None as empty, a bool as true/false, the theorems joined by ";"."""
    regular, w, best, slack = rec.regular_r, rec.w, rec.best_bound, rec.slack
    return [
        rec.graph6,
        str(rec.n),
        str(rec.m),
        str(rec.delta),
        _FLAG[rec.connected],
        _FLAG[rec.bipartite],
        "" if regular is None else str(regular),
        _FLAG[rec.triangle_free],
        "" if w is None else str(w),
        "" if best is None else str(best),
        "" if slack is None else str(slack),
        ";".join(rec.tight_theorems),
        _FLAG[rec.doubling_ok],
    ]


def write_survey_csv(records: Iterable[SurveyRecord], stream: IO[str]) -> None:
    writer = csv.writer(stream, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for rec in records:
        writer.writerow(record_to_row(rec))
