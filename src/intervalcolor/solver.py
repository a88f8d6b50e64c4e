"""Exact decision and optimization for interval colorings.

Both entry points run one descent (``_descend``) over palette sizes t,
stopping at the first feasible one: ``compute_W`` from the tightest
registered upper bound down to the maximum degree, so the first feasible t
is W, and ``find_interval_coloring`` over its one t. The descent sets up
once per graph and makes one search call, which decides the layers by
backtracking, one after another, with one node budget shared across them.

The set-up is an overfull test (``_overfull``), then, in the search call,
the search plan and a ceiling proven for the instance. An overfull graph has
no interval coloring at all, so it is decided with no plan, and no interval
coloring uses more than 1 + max D colors (D below), so layers above the
ceiling are infeasible at a cost of 0 nodes.

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
get no matrix and no distance rule, and ``search``, which applies the
ceiling either way, reads D a row at a time until the ceiling reaches the
largest t asked about.

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

Anchor sweep (the ceiling's argument as a branching rule). An interval
t-coloring c puts 1 on some edge and t on some edge; let e be the first edge
colored 1 and f the first colored t, in BFS order. Then t - 1 = c(f) - c(e)
<= D(e, f), so (e, f) is an anchor pair of the layer: an ordered pair of
edges with D(e, f) >= t - 1, e != f as D(e, e) = 0, or for t = 1 the pair
(e, e). A run for the pair colors e with 1 and f with t at no node, allows no
1 on an edge before e and no t on one before f, starts every other edge g's
range at [max(1, t - D(f, g)), min(t, 1 + D(e, g))] (the distance rule from
the pair) and colors the other edges as the loop does. So every coloring lies
in exactly one run. The two cuts above stay as plain constraints on each
coloring, not as an order: edge 0 holds at most (t+1)//2, which rules out a
pair with f = 0 for t >= 2; c(after[j]) < c(j) for every j, which rules out a
pair with after[e] >= 0 (no color lies below 1), holds at j = f by itself
(edges after[f] and f meet, so after[f] holds a color other than t), and is
checked for the other edges as in the loop, a colored after[j] being
pre-colored or not. So the runs together cover exactly the colorings the
static loop searches, each once. A run meets its colorings in lexicographic
order too, so the first it finds is its least. Once one has been found,
best, every later run searches only below it: at a depth whose positions so
far, pre-colored ones included, match best, a candidate is at most best's
color, and a pre-colored position holding more than best's ends the run, as
every earlier position then sits at its cap; so does a first free position
before e where best holds 1, as it may hold no 1 itself. No later run can
meet best itself, which lies in another run, so whatever it finds is
smaller. The least coloring found is then the least coloring of the union,
the static loop's witness, and a layer whose runs find none is infeasible.
A layer above the ceiling has no anchor pair. The node budget runs on
across the runs, and a run that spends it aborts the layer.

A layer is swept when its anchor pairs number at most 2m, and searched in
one run otherwise, and always in one run without the matrix. The rule reads
only t and D, so that ``find_interval_coloring`` and the descent search each
layer alike. Search nodes against the static loop alone, with the rules
pairs <= m, 2m, 3m, 4m and every layer swept: x0.851, 0.811, 0.830, 0.996
and 1.316 on the n = 6 survey, x0.874, 0.832, 0.850, 0.902 and 1.027 on the
n = 7 survey capped at 2,000 nodes per graph, and x0.793, 0.531, 0.560,
0.723 and 0.724 on the doubled graphs of n <= 5.

The search is the kernel's ``search`` (``_native``), one call that plans,
caps the palette at the ceiling and searches, so no plan crosses into
Python. Its C loop and the Python twin's (``_reference._plan_py`` and
``_search_py``) read the same plan and visit the same nodes in the same
order, so status, node count, last t and colors (the witness, or an
aborted layer's partial coloring) agree on every range of layers. On the
same search calls (``compute_W`` over the n = 6 catalog, 200 graphs of
n = 7 and the doubled graphs) the C loop expands 90 to 150 times as many
nodes per second. It takes a node's least candidate a word at a time, from
the two ends' color masks and a mask of the colors on any edge, which
surjectivity consults. Both plans group twins in memory linear in n + m.
"""

from __future__ import annotations

import contextlib
import functools
import importlib.machinery
import importlib.util
import operator
import os
import sys
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

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
    """The kernel: the compiled module ``_search.c``, or its Python twin
    ``_reference`` where that cannot be built or loaded.

    This is where the package chooses, once per process. Both modules have
    the same seven entries, with the same arguments and results: ``search``
    (which plans), ``classify``, ``extend``, ``index_graph``,
    ``in_palette``, ``interval_ok`` and ``double``. Every caller runs
    ``_native().<entry>(...)``, and where an entry declines (None or
    False), its own Python code. The C module is built on first use into
    the package's ``__pycache__``, under the name ``_build_target`` gives,
    and written to a private file renamed into place, so concurrent first
    uses never load a partial file; a build removes those of other sources.
    Without a compiler, headers or a writable directory, ``_reference`` is
    imported instead, so a process with the C module never imports it.
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
            except subprocess.SubprocessError as failed:
                raise ImportError("the kernel did not build") from failed
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
        return kernel
    except (OSError, ImportError):
        from . import _reference

        return _reference


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
    above the ceiling are infeasible at 0 nodes, and an overfull graph gets
    no plan. Every other graph takes one ``search`` call, which plans and
    caps top at the ceiling, with or without the matrix.
    """
    if top < bottom or _overfull(g, max_degree):  # no layer, or none below the ceiling
        return SolveStatus.INFEASIBLE, None, 0, bottom if bottom <= top else None
    # No search reaches 2**63 - 1 nodes, the kernel's largest budget.
    code, nodes, last, colors = _native().search(
        g.n, g.edges, DISTANCE_MAX_M, top, bottom, min(node_limit, 2**63 - 1)
    )
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
