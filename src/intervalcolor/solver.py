"""Exact decision and optimization for interval colorings.

Both entry points run one descent (``_descend``) over palette sizes t,
stopping at the first feasible one: ``compute_W`` from the tightest
registered upper bound down to the maximum degree, so the first feasible t
is W, and ``find_interval_coloring`` over its one t. The descent sets up
once per graph and makes one search call, which decides the layers by
backtracking, one after another, with one node budget shared across them.

The set-up, in the search call, is the search plan, with a ceiling proven
for the instance: 0 where the degrees do not halve (the halving test
below), as such a graph has no interval coloring at all, and otherwise
1 + max D (D below), as no interval coloring uses more colors. Layers
above the ceiling are infeasible at a cost of 0 nodes.

Halving test. The degrees halve when some sub-multiset of them sums to m,
and those of a graph with an interval t-coloring c do. Vertex v's colors
fill its window [s_v, s_v + deg(v) - 1]; draw it as an edge s_v -> s_v +
deg(v) on the points 1 .. t + 1. A color p lies in the windows of the two
ends of each edge colored p, so in an even number N(p) of windows, and
N(0) = N(t + 1) = 0. The windows that start at p, less those that end at
p - 1, number N(p) - N(p - 1), an even number, so every point meets an
even number of the drawn edges, which therefore split into closed
circuits (Euler). Orient each circuit: it moves right by the degrees of
the vertices whose edge it runs forward and left by those of the others,
and returns to its start, so the two sums agree. Over all circuits, the
forward vertices' degrees sum to half of 2m, which is m. The search tests
it by a subset sum over the distinct degrees (``_reference._halves`` and
the kernel's ``halves``) before it computes any distance. Of the
connected graphs it rejects 1 with n = 3 (K3), 6 with n = 5, 8 with
n = 6, and 67 with n = 7, of the 81 there that have no interval coloring.
A graph whose degrees are all even and whose m is odd is one: no sum of
even degrees is odd.

It subsumes the overfull test, m > Delta * floor(n/2) (Asratian and
Kamalian, JCTB 1994). Overfull n is odd, since for even n, Delta * n/2 is
at least half the degree sum, m. A split of odd n has a side of at most
floor(n/2) vertices, whose degrees sum to at most Delta * floor(n/2) < m,
so an overfull graph's degrees do not halve. A bipartite graph's always
do: each edge has one end on each side, so either side sums to m. The
doubled graphs, all bipartite, are therefore always searched.

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
edges, and a row of ranges per depth lets a backtrack reuse both. That
first entry takes the cheap bounds first (spread, the symmetry rules' floors
and caps, the cap below best of the anchor sweep, surjectivity and edge k's
own range, which row k - 1 gives in O(1)) and runs the pass only when they
leave a candidate, since the pass can only narrow edge k's interval further:
this changes no node. The bounds it finds hold until a depth before k changes
its color, so a backtrack to depth k reuses them too. The
edges colored 1 and t differ by t - 1, hence the ceiling t <= 1 + max D.
The kernel keeps the ranges in int32: it caps t at m, and D <= 2m - n (a
cheapest path passes each vertex at most once), so t + D < 3m.

The plan holds D as an m x m matrix for graphs of at most
``DISTANCE_MAX_M`` edges. Larger graphs (long paths, big complete graphs)
get no matrix and no distance rule, and ``search``, which applies the
ceiling either way, reads D a row at a time until the ceiling reaches the
largest t asked about.

Symmetry rules (lex-leader constraints; Crawford, Ginsberg, Luks and Roy,
KR 1996). An automorphism sigma of the graph maps edges to edges and
interval t-colorings to interval t-colorings: c^sigma(sigma(e)) = c(e). So
does the reversal, c -> t + 1 - c. The least interval t-coloring L, comparing
colors in BFS edge order, is the one the search meets first, since colors are
tried in lexicographic order (``test_first_witness_is_lexicographically_
smallest`` checks it). No image of L under these maps is smaller than L, so
every constraint below holds for L, all of them at once, and the rules cut
only colorings that are not the least: no rule changes a witness or makes a
feasible layer infeasible.

Orbit rule. Let i be the first BFS position that sigma moves and j the
position of the edge sigma sends onto edge i. Every edge before i is fixed,
so L^sigma agrees with L there and holds L(j) at i; as L^sigma is not
smaller, L(j) >= L(i), and L(j) > L(i) when edges i and j share a vertex,
whose colors differ. j > i, as the positions before i are fixed. The plan
records it as the floor (i, step) on edge j, step 1 or 0, and the search
starts edge j's colors at c(i) + step. A twin swap, x <-> y for twins
(N(x) - y = N(y) - x), is one case: it moves exactly the edges at x or y
other than xy, and its first moved edge (x, u) receives (y, u), which shares
u with it. The plan swaps each twin after the first of its class, in BFS
vertex order, with the twin just before it and with the first: 2c - 3 swaps
in a class of c, which keeps the floors linear in n, where all c(c - 1)/2
swaps gave the same node totals over n <= 7, the doubled graphs and K8.

Reversal rule. For every edge j != 0 in edge 0's orbit, take sigma with
sigma(j) = 0 and compose it with the reversal: the image of L holds
t + 1 - L(j) at position 0, so L(0) <= t + 1 - L(j), that is
L(j) <= t + 1 - L(0). For j = 0 itself (sigma the identity) this is
L(0) <= (t + 1)//2, the cut on the first edge.

The automorphisms come from the harvest in the plan (``_reference._harvest``
and the kernel's ``harvest``, which find the same list). It walks the BFS
vertex order b_0, b_1, ..., deepest level first. At level i it takes each w
in ascending order that is not yet in b_i's orbit under the swaps and
automorphisms fixing b_0 .. b_i-1 found so far, and keeps the least
automorphism that fixes b_0 .. b_i-1 and sends b_i to w, images chosen
vertex by vertex in BFS order, smallest first: each among the neighbours of
its BFS parent's image, with the vertex's degree and walk total and the same
walk cost to every vertex mapped before. The walk cost from u to v is the
cheapest walk from u to v, each vertex on it (ends included) costing
deg - 1, from which the plan reads D (above), and the walk total is the sum
of a vertex's walk costs. Both are invariant under automorphisms, and
between distinct vertices of known degrees the cost tells whether they are
adjacent (a path through a third vertex, of degree at least 2, costs at
least one more), so every complete map is an automorphism. The twin swaps,
which the neighbourhood sort finds for free, join their twins' orbits from
the earlier twin's level on. As in Schreier-Sims, each level then ends with
b_i's whole orbit under the stabiliser of b_0 .. b_i-1, so the harvest with
the swaps generates the whole group (``test_every_harvested_permutation_is_
an_automorphism`` checks it against networkx). It stops after 2^22 walk
comparisons, keeping what it has, since any subset of the automorphisms
leaves every rule sound; on a 512-edge spider that takes the kernel about
10 ms, and the kernel lets Python handle signals every 2^16. A graph without
the matrix gets the twin swaps alone, and edge 0's orbit is taken under the
group that all of them generate.

Anchor sweep (the ceiling's argument as a branching rule). An interval
t-coloring c puts 1 on some edge and t on some edge; let e be the first edge
colored 1 and f the first colored t, in BFS order. Then t - 1 = c(f) - c(e)
<= D(e, f), so (e, f) is an anchor pair of the layer: an ordered pair of
edges with D(e, f) >= t - 1, e != f as D(e, e) = 0, or for t = 1 the pair
(e, e). The run for the pair is the loop with other first ranges, row 0:
edge g starts at [max(1, t - D(f, g)), min(t, 1 + D(e, g))], the distance
rule from c(e) = 1 and c(f) = t, raised to at least 2 for g < e and lowered
to at most t - 1 for g < f, as no 1 lies before e and no t before f; every
later depth narrows these as before. The symmetry rules stay as plain
constraints on each coloring, not as an order, checked at every edge as in
the loop, and they rule out pairs. An edge e with a floor (i, step) holds at
least c(i), and c(i) >= 2 when e is the first edge colored 1, as i < e: so e
is not. If the first t lies at f in edge 0's orbit, the reversal rule asks
c(0) <= t + 1 - t = 1 for f != 0, and t <= (t+1)//2, so t = 1, for f = 0:
either way edge 0 holds 1, so e = 0. The sweep skips every e with a floor
and every pair (e, f) with f in edge 0's orbit and e != 0. So every coloring
the rules keep lies in exactly one run, and the runs together cover exactly
the colorings the static loop searches.

Row 0 forces the pair: e's range is [max(1, t - D(f, e)), min(t, 1 + 0)]
= [1, 1], as D(f, e) = D(e, f) >= t - 1, and f's is [max(1, t - 0),
min(t, 1 + D(e, f))] = [t, t]. The floor of 2 and the cap of t - 1 leave
both alone: for t = 1, e = f and neither applies, and for t >= 2, e < f caps
e's range at t - 1 >= 1 and f < e raises f's to 2 <= t.

Edge k's own range still bounds every other range, so the one pass per depth
still decides the distance rule. Row 0's terms on g are new bounds to check,
but k's own range implies each: for g != k, D(k, g) >= 1, so a floor of 2 on
g asks x >= 2 - D(k, g), at most 1, and a cap of t - 1 asks x <= t - 1 +
D(k, g), at least t, both of which [1, t] gives; and by the triangle
inequality t - D(f, g) - D(k, g) <= t - D(f, k) and 1 + D(e, g) + D(k, g) >=
1 + D(e, k), which are k's own row 0 bounds.

The reach tests for colors 1 and t cut nothing in a run for a pair. The
test for 1 runs at the depths k <= e, where color 1 is on no edge, and there
e's range is still [1, 1], as no candidate empties a range; so f = e lets
color 1 be reached up to x <= 1 + D(k, e), a cap row 0 already puts on k.
Likewise the test for t at the depths k <= f, with f. In a run without a
pair, the tests stop once colors 1 and t are both on some edge. So the
kernel's pass computes where 1 and t can still go only in a run without a
pair while one of them is on no edge, and otherwise only narrows the
ranges, which changes no node.

The placements at e and f are forced, so they count no node and check no
budget, and a run's nodes are its placements on the other edges. These see
the same candidates as with e and f colored before the first edge. Before
f, f's t at a shared end v would bar x = t, which the cap of t - 1 bars,
and ask x >= t - deg(v) + 1 (spread), which row 0's floor t - D(f, k)
asks, as a step through v costs deg(v) - 1 >= D(f, k); before e, e's 1
likewise. Surjectivity counts e and f among the edges left exactly where it
counts 1 and t among the colors not yet used. A forced placement never
fails but on the cap below best (next): its range stays nonempty; an edge
j before e at an end v of e holds at most 1 + D(e, j) <= deg(v), and one
before f at an end v of f at least t - deg(v) + 1, so spread and distinct
allow 1 at e and t at f; the floors and caps allow them too, since e has
no floor and its cap, (t+1)//2 at edge 0 or t + 1 - c(0) elsewhere in edge
0's orbit, is at least 1, each floor (i, step) on f asks at most
c(i) + 1 <= t, as i < f holds at most t - 1, and f gets a cap only in edge
0's orbit, where e = 0 holds 1 and the cap is t, or where f = 0, t = 1 and
e = f; and the surjectivity count, kept at the depth before, leaves room for
a new color.

A run meets its colorings in lexicographic order too, so the first it finds
is its least. Once one has been found, best, every later run searches only
below it: at a depth whose positions so far match best, a candidate is at
most best's color. Where a forced color exceeds best's there, or a floor of
2 meets best's 1, every earlier depth sits at its cap, so the run backtracks
to its start with no node. No later run can meet best itself, which lies in
another run, so whatever it finds is smaller. The least coloring found is
then the least coloring of the union, the static loop's witness, and a
layer whose runs find none is infeasible. A layer above the ceiling has no
anchor pair. The node budget runs on across the runs, and a run that spends
it aborts the layer.

A layer is swept when its anchor pairs number at most 2m, and searched in
one run otherwise, and always in one run without the matrix. The rule reads
only t and D, so that ``find_interval_coloring`` and the descent search each
layer alike. Search nodes against the static loop alone, with the rules
pairs <= m, 2m, 3m, 4m and every layer swept: x0.851, 0.811, 0.830, 0.996
and 1.316 on the n = 6 survey, x0.874, 0.832, 0.850, 0.902 and 1.027 on the
n = 7 survey capped at 2,000 nodes per graph, and x0.793, 0.531, 0.560,
0.723 and 0.724 on the doubled graphs of n <= 5.

The search is the kernel's ``search`` (``_native``), one call that tests
the degrees, plans, caps the palette at the ceiling and searches, so no
plan crosses into Python. Its C loop and the Python twin's
(``_reference._plan_py`` and ``_search_py``) read the same plan and visit
the same nodes in the same order, so status, node count, last t and
colors (the witness, or an aborted layer's partial coloring) agree on
every range of layers. On the same search calls (``compute_W`` over the
n = 6 catalog, 200 graphs of n = 7 and the doubled graphs) the C loop
expands 90 to 150 times as many nodes per second. It takes a node's least
candidate a word at a time, from the two ends' color masks and a mask of
the colors on any edge, which surjectivity consults. Both plans group
twins in memory linear in n + m.
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
    g: Graph, top: int, bottom: int, node_limit: int
) -> tuple[SolveStatus, EdgeColoring | None, int, int | None]:
    """Decide palette sizes top, top - 1, ..., bottom of g until one is
    feasible.

    Returns (status, witness, nodes, last_explored): FOUND with the
    re-validated witness of the first feasible t, INFEASIBLE when every
    layer is, or ABORTED once the node limit (0 = unlimited), shared by all
    layers, runs out. ``last_explored`` is the last t fully decided. A
    nonempty range takes one ``search`` call, which plans and caps top at
    the plan's ceiling, 0 where the degrees do not halve, with or without
    the matrix: layers above it are infeasible at 0 nodes.
    """
    if top < bottom:
        return SolveStatus.INFEASIBLE, None, 0, None
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
    status, witness, nodes, _ = _descend(g, t, t, limits.node_limit)
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
    status, witness, nodes, last = _descend(g, cutoff, delta, limits.node_limit)
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
