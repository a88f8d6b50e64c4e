"""Exact decision and optimization for interval colorings.

``find_interval_coloring`` decides one palette size t by backtracking;
``compute_W`` finds the maximum feasible t by iterating downward from the
tightest registered upper bound. Both run the same per-t decision. The
testing oracle that enumerates every assignment lives in ``oracle``.

Before searching, the decision compares t with a ceiling proven for the
instance (``_proven_ceiling``): an overfull graph has no interval coloring at
all, and no interval coloring uses more than one plus the longest weighted
distance between two edges. Layers above the ceiling are infeasible at a cost
of 0 nodes.

Search strategy (deterministic): edges are ordered by a breadth-first
traversal from a maximum-degree vertex (ties broken by lowest vertex index)
so consecutive edges share endpoints; colors are tried ascending, in one loop
over the depth (no recursion, so the depth is unbounded). Three rules prune
each assignment: the colors at each endpoint v stay distinct (distinct) and
span at most deg(v) (spread), and a branch is cut when fewer uncolored edges
remain than colors not yet used anywhere (surjectivity). No window rule is
needed: with lo and hi the least and greatest color at v, a window of deg(v)
consecutive colors in [1, t] holding them starts at some s with
max(1, hi - deg(v) + 1) <= s <= min(lo, t - deg(v) + 1). Of the four
inequalities this asks for, 1 <= lo, hi <= t and deg(v) <= t always hold
(both callers search only t >= max degree); hi - deg(v) + 1 <= lo is spread.

The first edge only tries colors up to (t+1)//2: reversing an interval
t-coloring (c -> t+1-c) gives another one, so if any exists, one exists with
the first edge's color in the lower half. The search meets colorings in
lexicographic order, and the smallest feasible first color is at most
(t+1)//2, so this cut changes no witness.

The loop has two implementations that visit the same nodes in the same
order, so status, node count and witness agree on every layer. ``_search_py``
is the reference, in Python. ``_search.c`` is the same loop in C, compiled on
first use by ``_native``; it expands 15 to 65 times as many nodes per second
on the benchmark's workloads. ``_search`` runs it when it loads and the
Python loop otherwise (no compiler, no headers, a read-only install).
"""

from __future__ import annotations

import functools
import heapq
import importlib.machinery
import importlib.util
import os
import sys
from collections import deque
from dataclasses import dataclass
from enum import Enum
from pathlib import Path

from . import bounds as bounds_mod
from .coloring import EdgeColoring, coloring_to_json, validate_interval
from .errors import DomainError, InternalInvariantError
from .graph import Graph, classify, is_connected


class SolveStatus(Enum):
    FOUND = "found"
    INFEASIBLE = "infeasible"
    ABORTED = "aborted"


@dataclass(frozen=True, slots=True)
class SearchLimits:
    """node_limit caps backtracking nodes (0 = unlimited); t_override caps
    the palette sizes compute_W will consider."""

    node_limit: int = 0
    t_override: int | None = None

    def __post_init__(self) -> None:
        if self.node_limit < 0:
            raise ValueError(f"node_limit must be >= 0, got {self.node_limit}")


@dataclass(frozen=True, slots=True)
class SolveOutcome:
    status: SolveStatus
    witness: EdgeColoring | None = None
    nodes_expanded: int = 0
    w: int | None = None
    interval_colorable: bool | None = None
    feasible_t_set: tuple[int, ...] = ()
    last_explored_t: int | None = None


def _bfs_edge_order(g: Graph) -> list[int]:
    degs = g.degrees()
    delta = max(degs)
    start = min(v for v in range(g.n) if degs[v] == delta)
    order: list[int] = []
    edge_seen = [False] * g.m
    visited = [False] * g.n
    visited[start] = True
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for eid in g.incidence[u]:
            a, b = g.edges[eid]
            v = b if a == u else a
            if not edge_seen[eid]:
                edge_seen[eid] = True
                order.append(eid)
            if not visited[v]:
                visited[v] = True
                queue.append(v)
    return order


def _require_solvable_input(g: Graph) -> None:
    if g.m == 0:
        raise DomainError("graph has no edges; an interval coloring needs at least color 1")
    if not is_connected(g):
        raise DomainError("graph is disconnected")


def _proven_ceiling(g: Graph, cap: int) -> int:
    """Largest palette size not ruled out for g by two proofs; 0 if none is left.

    Overfull test: if m > Delta * floor(n/2), g has no interval coloring.
    Taking an interval coloring's colors mod Delta gives a proper
    Delta-edge-coloring, since the colors at a vertex are at most Delta
    consecutive integers and so stay distinct mod Delta. Each of its Delta
    color classes is a matching of at most floor(n/2) edges, so m is at most
    Delta * floor(n/2) (interval colorable implies class 1; Asratian and
    Kamalian, JCTB 1994).

    Path ceiling: let a step between two edges that share a vertex v cost
    deg(v) - 1, and let D be the largest shortest-path length between two
    edges. Then every interval t-coloring has t <= 1 + D. The colors of two
    edges at v lie in one window of deg(v) consecutive integers, so they
    differ by at most deg(v) - 1; summed along a shortest path, the colors
    of any two edges differ by at most D. The edges colored 1 and t differ
    by t - 1.

    A path from edge e to edge f steps through a walk of vertices from an
    end of e to an end of f, so one Dijkstra over the vertices, with each
    vertex v costing deg(v) - 1, gives the distances from e to every edge.
    The sources stop once the ceiling reaches ``cap``, the largest t the
    caller asks about, so the result is exact below cap and at least cap
    otherwise; uncapped, K62 takes seconds.
    """
    degs = g.degrees()
    if g.m > max(degs) * (g.n // 2):
        return 0
    longest = 0
    for a, b in g.edges:
        # reach[v]: cheapest walk from a or b to v, each vertex on it (ends
        # included) costing deg - 1; an edge (x, y) other than (a, b) lies
        # min(reach[x], reach[y]) away from (a, b).
        reach = [-1] * g.n
        heap = [(degs[a] - 1, a), (degs[b] - 1, b)]
        while heap:
            d, u = heapq.heappop(heap)
            if reach[u] >= 0:
                continue
            reach[u] = d
            for v in g.adjacency[u]:
                if reach[v] < 0:
                    heapq.heappush(heap, (d + degs[v] - 1, v))
        # (a, b) itself scores min(deg(a), deg(b)) - 1 instead of 0, which is
        # harmless: that is 0, or some edge meets (a, b) at that distance.
        longest = max(longest, max(min(reach[x], reach[y]) for x, y in g.edges))
        if longest + 1 >= cap:
            break
    return 1 + longest


def _include_dir() -> str:
    """The interpreter's C headers: sysconfig's ``include`` path, derived as
    sysconfig derives it on POSIX, since importing sysconfig would hold a
    quarter megabyte for the rest of the process."""
    version = f"python{sys.version_info.major}.{sys.version_info.minor}"
    return os.path.join(sys.base_prefix, "include", version + getattr(sys, "abiflags", ""))


@functools.cache
def _native():
    """The compiled module ``_search.c`` (the search kernel and the catalog's
    ``min_code``), or None where it cannot run.

    It is built on first use into the package's ``__pycache__``, under a
    name keyed by the source and the interpreter, and written to a private
    file renamed into place, so concurrent first uses never load a partial
    file; a build then removes this interpreter's builds of earlier sources.
    Without a compiler, headers or a writable directory the Python loops run
    instead.
    """
    import hashlib  # here, not at the top: only the first use needs it

    source = Path(__file__).with_name("_search.c")
    suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
    try:
        digest = hashlib.sha256(source.read_bytes() + suffix.encode()).hexdigest()[:16]
        target = source.parent / "__pycache__" / f"_search-{digest}{suffix}"
        if not target.is_file():
            import subprocess  # only a build needs it

            target.parent.mkdir(exist_ok=True)
            partial = target.with_name(f"{target.name}.{os.getpid()}.tmp")
            command = ["cc", "-O2", "-shared", "-fPIC", "-I", _include_dir(), str(source)]
            try:
                subprocess.run(
                    [*command, "-o", str(partial)], capture_output=True, check=True, timeout=120
                )
                os.replace(partial, target)
            except subprocess.SubprocessError:
                return None
            finally:
                partial.unlink(missing_ok=True)
            # Builds of earlier sources for this interpreter: same suffix and
            # name length. Other interpreters' builds and other processes'
            # partial files do not match.
            for stale in target.parent.glob(f"_search-*{suffix}"):
                if len(stale.name) == len(target.name) and stale != target:
                    stale.unlink(missing_ok=True)
        spec = importlib.util.spec_from_file_location(f"{__package__}._search", target)
        kernel = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(kernel)
    except (OSError, ImportError):
        return None
    return kernel


_STATUS = (SolveStatus.INFEASIBLE, SolveStatus.FOUND, SolveStatus.ABORTED)


def _search(g: Graph, t: int, node_budget: int) -> tuple[SolveStatus, list[int] | None, int]:
    """Exhaustive backtracking for one t. Returns (status, colors, nodes).

    Runs the compiled kernel when it loads and ``_search_py`` otherwise;
    both give the same status, nodes and colors.
    """
    kernel = _native()
    if kernel is None:
        return _search_py(g, t, node_budget)
    order = _bfs_edge_order(g)
    ends = [v for eid in order for v in g.edges[eid]]
    # No search reaches 2**63 - 1 nodes, the kernel's largest budget.
    code, nodes, picked = kernel.search(g.n, ends, g.degrees(), t, min(node_budget, 2**63 - 1))
    status = _STATUS[code]
    if status is not SolveStatus.FOUND:
        return status, None, nodes
    colors = [0] * g.m
    for eid, c in zip(order, picked):
        colors[eid] = c
    return SolveStatus.FOUND, colors, nodes


def _search_py(g: Graph, t: int, node_budget: int) -> tuple[SolveStatus, list[int] | None, int]:
    """The search loop in Python: the reference for the kernel, and its fallback.

    ``picked[k]`` is the color of the k-th edge in BFS order, 0 for none. A
    depth entered with a color picked was backtracked to: that color comes
    off and the next one is tried.
    """
    m = g.m
    order = _bfs_edge_order(g)
    ends = [g.edges[eid] for eid in order]
    deg = g.degrees()
    mask = [0] * g.n  # bit c set: some edge at the vertex has color c
    color_count = [0] * (t + 1)
    picked = [0] * m
    unused = t  # colors on no edge yet
    nodes = 0
    first_top = (t + 1) // 2  # reversal symmetry, see the module docstring
    k = 0
    while 0 <= k < m:
        a, b = ends[k]
        c = picked[k]
        if c:
            bit = 1 << c
            mask[a] ^= bit
            mask[b] ^= bit
            color_count[c] -= 1
            if not color_count[c]:
                unused += 1
        mask_a, mask_b = mask[a], mask[b]
        # Spread: a new color at v lies in [hi - deg(v) + 1, lo + deg(v) - 1],
        # lo and hi being v's least and greatest color (hi + 1 = bit_length).
        lo_a = (mask_a & -mask_a).bit_length() - 1 if mask_a else t
        lo_b = (mask_b & -mask_b).bit_length() - 1 if mask_b else t
        c = max(c + 1, mask_a.bit_length() - deg[a], mask_b.bit_length() - deg[b])
        top = min(t if k else first_top, lo_a + deg[a] - 1, lo_b + deg[b] - 1)
        taken = mask_a | mask_b
        spare = m - k - 1 - unused  # surjectivity: uncolored edges left over
        while c <= top:
            if not (taken >> c) & 1 and (spare >= 0 or (spare == -1 and not color_count[c])):
                break
            c += 1
        else:
            picked[k] = 0
            k -= 1
            continue
        if node_budget and nodes >= node_budget:
            return SolveStatus.ABORTED, None, nodes
        nodes += 1
        bit = 1 << c
        mask[a] |= bit
        mask[b] |= bit
        if not color_count[c]:
            unused -= 1
        color_count[c] += 1
        picked[k] = c
        k += 1
    if k < 0:
        return SolveStatus.INFEASIBLE, None, nodes
    colors = [0] * m
    for eid, c in zip(order, picked):
        colors[eid] = c
    return SolveStatus.FOUND, colors, nodes


def _decide(
    g: Graph, t: int, budget: int, ceiling: int
) -> tuple[SolveStatus, EdgeColoring | None, int]:
    """Decide one palette size t; returns (status, re-validated witness, nodes).

    ``ceiling`` comes from ``_proven_ceiling``: above it t is infeasible unsearched.
    """
    if t > ceiling:
        return SolveStatus.INFEASIBLE, None, 0
    status, colors, nodes = _search(g, t, budget)
    if colors is None:
        return status, None, nodes
    witness = EdgeColoring(t, tuple(colors))
    if not validate_interval(g, witness).verdict:
        raise InternalInvariantError(f"search returned a non-validating witness for t={t}")
    return status, witness, nodes


def find_interval_coloring(g: Graph, t: int, limits: SearchLimits | None = None) -> SolveOutcome:
    """Decide whether g has an interval t-coloring; exhaustive unless aborted."""
    limits = limits or SearchLimits()
    _require_solvable_input(g)
    delta = g.max_degree
    if not delta <= t <= g.m:
        raise DomainError(f"t={t} outside the feasible range [{delta}, {g.m}]")
    status, witness, nodes = _decide(g, t, limits.node_limit, _proven_ceiling(g, cap=t))
    if witness is None:
        return SolveOutcome(status, nodes_expanded=nodes)
    return SolveOutcome(
        status,
        witness=witness,
        nodes_expanded=nodes,
        interval_colorable=True,
        feasible_t_set=(t,),
    )


def compute_W(g: Graph, limits: SearchLimits | None = None) -> SolveOutcome:
    """Maximum feasible palette size, or proof that none exists.

    Iterates t downward from min(|E|, tightest theorem bound) to the maximum
    degree; the first feasible t is W. The node budget, when set, is shared
    across the whole descent; on exhaustion the outcome reports the last t
    that was fully decided.
    """
    limits = limits or SearchLimits()
    _require_solvable_input(g)
    cls = classify(g)
    cutoff = bounds_mod.best_upper_bound(g, cls, planar_asserted=False)
    if limits.t_override is not None:
        cutoff = min(cutoff, limits.t_override)
    delta = g.max_degree
    ceiling = _proven_ceiling(g, cap=cutoff)
    total_nodes = 0
    last_explored: int | None = None
    for t in range(cutoff, delta - 1, -1):
        budget = limits.node_limit - total_nodes if limits.node_limit else 0
        if limits.node_limit and budget <= 0:
            # Spent exactly; passing 0 on would mean an unlimited search.
            status, witness, nodes = SolveStatus.ABORTED, None, 0
        else:
            status, witness, nodes = _decide(g, t, budget, ceiling)
        total_nodes += nodes
        if status is SolveStatus.ABORTED:
            return SolveOutcome(
                SolveStatus.ABORTED,
                nodes_expanded=total_nodes,
                last_explored_t=last_explored,
            )
        last_explored = t
        if status is SolveStatus.FOUND:
            return SolveOutcome(
                SolveStatus.FOUND,
                witness=witness,
                nodes_expanded=total_nodes,
                w=t,
                interval_colorable=True,
                feasible_t_set=(t,),
                last_explored_t=t,
            )
    return SolveOutcome(
        SolveStatus.INFEASIBLE,
        nodes_expanded=total_nodes,
        interval_colorable=False,
        feasible_t_set=(),
        last_explored_t=last_explored,
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
