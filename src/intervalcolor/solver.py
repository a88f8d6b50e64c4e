"""Exact decision and optimization for interval colorings.

Both entry points run one descent (``_descend``) over palette sizes t,
stopping at the first feasible one: ``compute_W`` from the tightest
registered upper bound down to the maximum degree, so the first feasible t
is W, and ``find_interval_coloring`` over its one t. The descent sets up
once per graph and makes one search call, which decides the layers by
backtracking, one after another, with one node budget shared across them.
The testing oracle that enumerates every assignment lives in ``oracle``.

The set-up is an overfull test (``_overfull``), then the search plan
(``_reference._Plan``) and a ceiling proven for the instance. An overfull
graph has no interval coloring at all, so it is decided with no plan, and
no interval coloring uses more than 1 + max D colors (D below), so layers
above the ceiling are infeasible at a cost of 0 nodes.

Search strategy (deterministic): edges are ordered by a breadth-first
traversal from a maximum-degree vertex (ties broken by lowest vertex index)
so consecutive edges share endpoints; colors are tried ascending, in one loop
over the depth (no recursion, so the depth is unbounded). Four rules prune
each assignment: the colors at each endpoint v stay distinct (distinct) and
span at most deg(v) (spread), a branch is cut when fewer uncolored edges
remain than colors not yet used anywhere (surjectivity), and the distance
rule below. No window rule is needed: with lo and hi the least and greatest
color at v, a window of deg(v) consecutive colors in [1, t] holding them
starts at some s with max(1, hi - deg(v) + 1) <= s <= min(lo, t - deg(v) + 1).
Of the four inequalities this asks for, 1 <= lo, hi <= t and deg(v) <= t
always hold (both callers search only t >= max degree); hi - deg(v) + 1 <= lo
is spread.

Distance rule (forward checking; Haralick and Elliott, AI 1980). Let a step
between two edges that share a vertex v cost deg(v) - 1, and let D(e, f) be
the cheapest path from edge e to edge f, D(e, e) = 0. Every interval
coloring c has |c(e) - c(f)| <= D(e, f): the colors of two edges at v lie
in one window of deg(v) consecutive integers, so they differ by at most
deg(v) - 1, and the differences add up along a path. So each uncolored edge
f keeps a range [lo_f, hi_f], at first [1, t], and once edge k holds color
c, f's range is cut to within D(k, f) of c. A candidate x for edge k is cut
when it would empty some range, which is exactly when x < lo_f - D(k, f) or
x > hi_f + D(k, f) for an uncolored f. Edge k's own range (f = k) decides
this: with edges j < k colored x_j, lo_f = max(1, max_j x_j - D(j, f)), and
D is a metric (``test_the_matrix_is_a_metric``), so lo_f - D(k, f) <=
max(1, max_j x_j - D(j, k)) = lo_k, and likewise hi_f + D(k, f) >= hi_k.
It is also cut when color 1 is on no edge yet and no range would still reach
it: every color is used, so some uncolored f ends up with color 1, which
asks x = 1 or x <= 1 + D(k, f) for an f with lo_f = 1; color t likewise
asks x = t or x >= t - D(k, f) for an f with hi_f = t. An interval
t-coloring that extends the partial coloring keeps every range nonempty
and reaches 1 and t, so these tests cut no partial coloring that has a
completion, and change no verdict and no witness. Each test is a bound on
x, so the first entry into depth k narrows the ranges by edge k - 1's color
and computes edge k's candidate interval in one pass over the uncolored
edges, and a row of ranges per depth lets a backtrack reuse both. The
edges colored 1 and t differ by t - 1, hence the ceiling t <= 1 + max D.
The kernel keeps the ranges in int32: it caps t at m, and D <= 2m - n (a
cheapest path passes each vertex at most once), so t + D < 3m.

The plan holds D as an m x m matrix for graphs of at most
``DISTANCE_MAX_M`` edges. Larger graphs (long paths, big complete graphs)
get no matrix: the distance rule is off and ``_proven_ceiling`` runs a
Dijkstra from one edge after another until the ceiling reaches the largest
t asked about.

Two cuts skip colorings that a symmetry maps to a smaller one. A symmetry s
here maps interval t-colorings to interval t-colorings, and each cut removes
only colorings c with s(c) <lex c, comparing colors in BFS edge order. So
neither removes the lexicographically least interval t-coloring, and the two
hold together for it. That coloring is the one the search meets first, since
colors are tried in lexicographic order
(``test_first_witness_is_lexicographically_smallest`` checks it). So no cut
changes a witness or makes a feasible layer infeasible.

Reversal cut: s(c) = t+1-c. If c(e0) > (t+1)//2 on the first edge e0, then
s(c)(e0) = t+1-c(e0) < c(e0), so the first edge tries only colors up to
(t+1)//2.

Twin cut (a lex-leader constraint; Crawford, Ginsberg, Luks and Roy, KR
1996): vertices x and y are twins when N(x) - y = N(y) - x, and then
swapping them is an automorphism that moves exactly the edges at x or y
other than xy; s(c) is c with those edges' colors swapped. Let e_k be the
first moved edge in BFS order and e_j its image. Every edge before e_k is
fixed, so s(c) agrees with c there and has c(e_j) at e_k: s(c) <lex c when
c(e_j) < c(e_k). e_k = (x, u) and e_j = (y, u) share u, so their colors
differ, and the cut asks for c(e_k) < c(e_j). The plan records it as
after[j] = k, and the search starts edge j's colors above edge k's color.
Where several twin pairs name the same j it keeps the latest k only: keeping
fewer constraints is always sound. K2 has twins but no moved edge.

The loop has two implementations that read the same plan and visit the
same nodes in the same order, so status, node count, last t and colors
(the witness, or an aborted layer's partial coloring) agree on every range
of layers. ``_search.c`` is the loop in C, compiled on first use by
``_native``; on the same search calls (``compute_W`` over the n = 6
catalog, 200 graphs of n = 7 and the doubled graphs) it expands 90 to 150
times as many nodes per second as the Python loop. It takes a node's least
candidate a word at a time, from the two ends' color masks and a mask of
the colors on any edge, which surjectivity consults. ``_descend`` runs it
when it loads. The reference, ``_search_py``, lives in ``_reference``,
which ``_descend`` imports only where the kernel does not load (no
compiler, no headers, a read-only install) and runs there instead. The
plan has two implementations too: one routine in C that the kernel's
``search`` runs first, so one call plans, caps the palette at the ceiling
and searches, and no plan crosses into Python, and ``_reference._plan_py``,
the reference and the Python loop's plan; the tests check the C plan
through ``search``'s results. Both group twins in memory linear in n + m.
"""

from __future__ import annotations

import contextlib
import functools
import heapq
import importlib.machinery
import importlib.util
import operator
import os
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Iterator

from . import bounds as bounds_mod
from .coloring import EdgeColoring, coloring_to_json, validate_interval
from .errors import DomainError, InternalInvariantError
from .graph import Graph, require_connected_with_edge

# Graphs with more edges get no distance matrix: its m * m int32 entries,
# and the kernel's two rows of ranges per depth, stay within 3 MB.
DISTANCE_MAX_M = 512


class SolveStatus(Enum):
    FOUND = "found"
    INFEASIBLE = "infeasible"
    ABORTED = "aborted"


@dataclass(frozen=True, slots=True)
class SearchLimits:
    """node_limit caps backtracking nodes (0 = unlimited); t_override caps
    the palette sizes compute_W will consider.

    A dataclass, not a ``NamedTuple``, because ``__post_init__`` checks the
    fields and takes both through ``operator.index``: each is a plain int
    (t_override may be None), and a float raises TypeError."""

    node_limit: int = 0
    t_override: int | None = None

    def __post_init__(self) -> None:
        node_limit = operator.index(self.node_limit)
        if node_limit < 0:
            raise ValueError(f"node_limit must be >= 0, got {node_limit}")
        object.__setattr__(self, "node_limit", node_limit)
        if self.t_override is not None:
            object.__setattr__(self, "t_override", operator.index(self.t_override))


# The limits of a call given none: no node limit and no t_override. Shared,
# since SearchLimits is frozen.
_NO_LIMITS = SearchLimits()


@dataclass(frozen=True, slots=True)
class SolveOutcome:
    """The answer of ``compute_W`` or ``find_interval_coloring``.

    A dataclass, not a ``NamedTuple``, because ``bench/selftest.py``, which
    CI runs, derives tampered outcomes from it with ``dataclasses.replace``."""

    status: SolveStatus
    witness: EdgeColoring | None = None
    nodes_expanded: int = 0
    w: int | None = None
    interval_colorable: bool | None = None
    feasible_t_set: tuple[int, ...] = ()
    last_explored_t: int | None = None


def _overfull(g: Graph, max_degree: int) -> bool:
    """Whether m > Delta * floor(n/2), Delta = ``max_degree``, which rules
    out every interval coloring.

    Taking an interval coloring's colors mod Delta gives a proper
    Delta-edge-coloring, since the colors at a vertex are at most Delta
    consecutive integers and so stay distinct mod Delta. Each of its Delta
    color classes is a matching of at most floor(n/2) edges, so m is at most
    Delta * floor(n/2) (interval colorable implies class 1; Asratian and
    Kamalian, JCTB 1994).
    """
    return g.m > max_degree * (g.n // 2)


def _proven_ceiling(g: Graph, longest: int | None, cap: int) -> int:
    """Largest palette size the path ceiling leaves for g.

    Every interval t-coloring has t <= 1 + max D (module docstring).
    ``longest`` is max D from the plan's matrix, or None when the plan has
    none; then the distances are computed one edge at a time, stopping once
    the ceiling reaches ``cap``, the largest t the caller asks about, so the
    result is exact below cap and at least cap otherwise.
    """
    if longest is None:
        longest = 0
        for row in _distance_rows(g.adjacency, g.degrees(), g.edges):
            longest = max(longest, max(row))
            if longest + 1 >= cap:
                break
    return 1 + longest


def _distance_rows(adjacency, deg, pairs) -> Iterator[list[int]]:
    """Row e: D(e, f) for every edge f, the edges listed as vertex pairs.

    A path from edge e to edge f steps through a walk of vertices from an
    end of e to an end of f, so one Dijkstra over the vertices from both
    ends of e, each vertex costing deg(v) - 1, gives e's whole row.
    """
    for e, (a, b) in enumerate(pairs):
        # reach[v]: cheapest walk from a or b to v, each vertex on it (ends
        # included) costing deg - 1.
        reach = [-1] * len(adjacency)
        heap = [(deg[a] - 1, a), (deg[b] - 1, b)]
        while heap:
            d, u = heapq.heappop(heap)
            if reach[u] >= 0:
                continue
            reach[u] = d
            for v in adjacency[u]:
                if reach[v] < 0:
                    heapq.heappush(heap, (d + deg[v] - 1, v))
        row = [min(reach[x], reach[y]) for x, y in pairs]
        row[e] = 0
        yield row


def _include_dir() -> str:
    """The interpreter's C headers: sysconfig's ``include`` path, derived as
    sysconfig derives it on POSIX, since importing sysconfig would hold a
    quarter megabyte for the rest of the process."""
    version = f"python{sys.version_info.major}.{sys.version_info.minor}"
    return os.path.join(sys.base_prefix, "include", version + getattr(sys, "abiflags", ""))


def _build_command(source: Path) -> list[str]:
    """The compiler command that builds the kernel from ``source``, less
    its output file. On the benchmark's search calls -O3 runs 10 to 14%
    slower than -O2, and -march=native is from 8% faster to 11% slower, no
    gain either way (2-core Xeon)."""
    return ["cc", "-O2", "-shared", "-fPIC", "-I", _include_dir(), str(source)]


def _build_target(source: Path, command: list[str]) -> Path:
    """Where the kernel that ``command`` builds from ``source`` is kept:
    ``_search-<source digest>-<command digest>``, the command's taking in the
    interpreter's extension suffix too, so that a changed source, flag or
    header directory never loads an earlier build."""
    import hashlib  # here, not at the top: only the first use needs it

    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    code = hashlib.sha256(source.read_bytes()).hexdigest()[:16]
    how = hashlib.sha256("\0".join([*command, suffix]).encode()).hexdigest()[:16]
    return source.parent / "__pycache__" / f"_search-{code}-{how}{suffix}"


@functools.cache
def _native():
    """The compiled module ``_search.c`` (the search kernel, which plans, the
    coloring check, the doubling, ``Graph``'s fields, ``EdgeColoring``'s
    range check, ``classify``'s ``GraphClass`` and the catalog's
    ``extend``), or None where it cannot run.

    It is built on first use into the package's ``__pycache__``, under the
    name ``_build_target`` gives, and written to a private file renamed
    into place, so concurrent first uses never load a partial file; a build
    removes those of other sources. Without a compiler, headers or a
    writable directory the Python code runs instead.
    """
    source = Path(__file__).with_name("_search.c")
    try:
        command = _build_command(source)
        target = _build_target(source, command)
        if not target.is_file():
            import subprocess  # only a build needs it

            target.parent.mkdir(exist_ok=True)
            partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
            try:
                subprocess.run(
                    [*command, "-o", str(partial)], capture_output=True, check=True, timeout=120
                )
                os.replace(partial, target)
            except subprocess.SubprocessError:
                return None
            finally:
                partial.unlink(missing_ok=True)
            code = target.name.split("-", 2)[1]  # this source's other builds stay
            for old in target.parent.glob(f"_search-*{target.suffix}"):
                if old.name.split("-", 2)[1] != code:
                    with contextlib.suppress(OSError):  # gone already, or not ours
                        old.unlink()
        spec = importlib.util.spec_from_file_location(f"{__package__}._search", target)
        kernel = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kernel)
    except (OSError, ImportError):
        return None
    return kernel


_STATUS = (SolveStatus.INFEASIBLE, SolveStatus.FOUND, SolveStatus.ABORTED)


def _descend(
    g: Graph, max_degree: int, top: int, bottom: int, node_limit: int
) -> tuple[SolveStatus, EdgeColoring | None, int, int | None]:
    """Decide palette sizes top, top - 1, ..., bottom until one is feasible,
    for g of maximum degree ``max_degree``.

    Returns (status, witness, nodes, last_explored): FOUND with the
    re-validated witness of the first feasible t, INFEASIBLE when every
    layer is, or ABORTED once the node limit (0 = unlimited), shared by all
    layers, runs out. ``last_explored`` is the last t fully decided. Layers
    above the ceiling are infeasible at 0 nodes; the rest take one search
    call: the kernel's ``search``, which plans and caps top at its matrix's
    ceiling (``_proven_ceiling`` caps it first for a graph without one), or
    ``_reference._search_py`` on ``_reference._plan_py``'s plan, capped
    here. Both give the same status, nodes, last t and colors. An overfull
    graph gets no plan.
    """
    kernel = _native()
    if _overfull(g, max_degree):
        high = 0
    elif kernel is None:
        from . import _reference  # only a process without the kernel needs it

        plan = _reference._plan_py(g)
        search, args = _reference._search_py, (g.n, *plan[:5])
        high = min(top, _proven_ceiling(g, plan.longest, cap=top))
    else:
        search, args = kernel.search, (g.n, g.edges, DISTANCE_MAX_M)
        high = top if g.m <= DISTANCE_MAX_M else min(top, _proven_ceiling(g, None, cap=top))
    if high < bottom:  # every layer, if any, lies above the ceiling
        return SolveStatus.INFEASIBLE, None, 0, bottom if bottom <= top else None
    # No search reaches 2**63 - 1 nodes, the kernel's largest budget.
    code, nodes, last, colors = search(*args, high, bottom, min(node_limit, 2**63 - 1))
    if code != 1:
        return _STATUS[code], None, nodes, last if last <= top else None
    witness = EdgeColoring(last, tuple(colors))
    if not validate_interval(g, witness).verdict:
        raise InternalInvariantError(f"search returned a non-validating witness for t={last}")
    return SolveStatus.FOUND, witness, nodes, last


def find_interval_coloring(g: Graph, t: int, limits: SearchLimits | None = None) -> SolveOutcome:
    """Decide whether g has an interval t-coloring; exhaustive unless aborted."""
    limits = limits or _NO_LIMITS
    t = operator.index(t)  # a plain int on both search paths and in the outcome
    delta = require_connected_with_edge(g).max_degree
    if not delta <= t <= g.m:
        raise DomainError(f"t={t} outside the feasible range [{delta}, {g.m}]")
    status, witness, nodes, _ = _descend(g, delta, t, t, limits.node_limit)
    if witness is None:
        return SolveOutcome(status, nodes_expanded=nodes)
    return SolveOutcome(status, witness, nodes, interval_colorable=True, feasible_t_set=(t,))


def compute_W(g: Graph, limits: SearchLimits | None = None) -> SolveOutcome:
    """Maximum feasible palette size, or proof that none exists.

    Descends from min(|E|, tightest theorem bound) to the maximum degree; the
    first feasible t is W. The node budget, when set, is shared across the
    whole descent; on exhaustion the outcome reports the last t that was
    fully decided. A ``t_override`` below the theorem bound caps the descent,
    and then an exhausted descent leaves colorability open (None).
    """
    limits = limits or _NO_LIMITS
    cls = require_connected_with_edge(g)
    cutoff = bounds_mod.best_upper_bound(g, cls)
    capped = limits.t_override is not None and limits.t_override < cutoff
    if capped:
        cutoff = limits.t_override
    delta = cls.max_degree
    status, witness, nodes, last = _descend(g, delta, cutoff, delta, limits.node_limit)
    if witness is None:
        colorable = None if capped or status is SolveStatus.ABORTED else False
        return SolveOutcome(
            status, nodes_expanded=nodes, interval_colorable=colorable, last_explored_t=last
        )
    w = witness.t
    return SolveOutcome(
        status, witness, nodes, w=w, interval_colorable=True, feasible_t_set=(w,),
        last_explored_t=w,
    )


def outcome_to_json(outcome: SolveOutcome, g: Graph) -> dict:
    witness_doc = None
    if outcome.witness is not None:
        witness_doc = coloring_to_json(g, outcome.witness)
    return {
        "status": outcome.status.value,
        "witness": witness_doc,
        "nodes_expanded": outcome.nodes_expanded,
        "W": outcome.w,
        "interval_colorable": outcome.interval_colorable,
        "feasible_t_set": list(outcome.feasible_t_set),
        "last_explored_t": outcome.last_explored_t,
    }
