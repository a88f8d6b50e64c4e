"""The Python references of the compiled kernel's loops, and their fallbacks.

This module holds only code that never runs when the kernel
(``solver._native``) loads: the search plan and loop (``_plan_py``,
``_search_py``), the classification (``_classify_py``) and a catalog level
(``_extend_py``, with its canonical search ``_min_code_py``). So a process
with the kernel neither imports nor compiles it. Its callers import it
inside the code that runs it: ``solver._descend``, ``graph.classify`` and
``catalog._extend`` in their branches without the kernel, and
``catalog.minimum_adjacency_encoding``, which has no kernel twin and which
no other code of the package calls. Each looks its function up here by
name, so a test that patches one patches every call. The tests import it
too, to check each kernel entry against its reference.

Python code that also runs with the kernel stays in its own module: the
error messages and failure reports (``graph._index_py``,
``coloring._check_colors_py``, ``coloring._report``), the doubling's
construction, which is public and which the kernel falls back to, and the
distances that cap graphs too large for a matrix (``solver._distance_rows``).
The proofs of what each loop does are in the docstrings of ``solver``
(the search), ``graph`` (the classification) and ``catalog`` (the catalog).
"""

from __future__ import annotations

import bisect
import itertools
from array import array
from collections import deque
from typing import Iterable, NamedTuple, Sequence

from .graph import Graph, GraphClass
from .solver import DISTANCE_MAX_M, _distance_rows

# --------------------------------------------------------------------------
# The search (solver)
# --------------------------------------------------------------------------


class _Plan(NamedTuple):
    """The search's input for a connected g with an edge, built once per graph.

    ``order`` is the BFS edge order, ``ends`` the two endpoints of each edge
    in that order, flat, and ``deg`` the vertex degrees. ``after[j]`` is the
    position of the earlier edge whose color edge j's must exceed (the twin
    cut of ``solver``'s docstring), or -1. The BFS starts at the
    lowest-indexed vertex of maximum degree, so consecutive edges share
    endpoints. ``dist`` is the distance matrix in BFS positions and
    ``longest`` its largest entry, for at most ``DISTANCE_MAX_M`` edges;
    above, b"" and None.
    """

    order: list[int]
    ends: list[int]
    deg: list[int]
    after: list[int]
    dist: bytes
    longest: int | None


def _plan_py(g: Graph) -> _Plan:
    """g's plan in Python: the plan of ``_search_py``, and the reference
    for the plan the kernel's ``search`` builds, checked through its results."""
    adjacency, incidence = g.adjacency, g.incidence  # incidence[v] in adjacency[v]'s order
    deg = [len(nbrs) for nbrs in adjacency]
    start = deg.index(max(deg))
    order: list[int] = []
    position = [-1] * g.m
    visited = [False] * g.n
    visited[start] = True
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v, eid in zip(adjacency[u], incidence[u]):
            if position[eid] < 0:
                position[eid] = len(order)
                order.append(eid)
            if not visited[v]:
                visited[v] = True
                queue.append(v)
    # Twins have equal open neighbourhoods (x, y apart) or equal closed ones
    # (x, y adjacent). No open one equals a closed one (N(w) = N[v] would put
    # v in N(w) but w outside N[v]), so one dict groups both.
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, nbrs in enumerate(adjacency):
        i = bisect.bisect(nbrs, v)
        groups.setdefault(nbrs, []).append(v)
        groups.setdefault((*nbrs[:i], v, *nbrs[i:]), []).append(v)
    after = [-1] * g.m
    for twins in groups.values():
        if len(twins) == 1:
            continue
        # Each twin's two earliest edges, as (position, neighbour). A vertex
        # has twins of one kind only (an open twin x and a closed twin y of v
        # would make x adjacent to y, so to v, against N(x) = N(v)), so this
        # ranks it once.
        first_two = {
            v: sorted((position[e], u) for u, e in zip(adjacency[v], incidence[v]))[:2]
            for v in twins
        }
        for x, y in itertools.combinations(twins, 2):
            # The x<->y swap moves the edges at x or y other than xy. A twin
            # has at most one edge to its partner, so the first moved edge,
            # (a, u) at position k, is among each twin's two earliest, and
            # its image (b, u) joins the partner b to u.
            moved = [(k, b, u) for a, b in ((x, y), (y, x)) for k, u in first_two[a] if u != b]
            if moved:  # K2 has none
                k, b, u = min(moved)
                j = position[incidence[b][bisect.bisect_left(adjacency[b], u)]]
                after[j] = max(after[j], k)
    pairs = [g.edges[eid] for eid in order]
    ends = [v for pair in pairs for v in pair]
    if g.m > DISTANCE_MAX_M:
        return _Plan(order, ends, deg, after, b"", None)
    # D(e, f) at e * m + f, in BFS positions, as native int32 bytes.
    dist = array("i", itertools.chain.from_iterable(_distance_rows(adjacency, deg, pairs)))
    return _Plan(order, ends, deg, after, dist.tobytes(), max(dist))


def _search_py(
    n: int,
    order: list[int],
    ends: list[int],
    deg: list[int],
    after: list[int],
    dist: bytes,
    top: int,
    bottom: int,
    node_budget: int,
) -> tuple[int, int, int, list[int]]:
    """The search loop in Python: the reference for the kernel, and its fallback.

    Takes the first five fields of ``_plan_py``'s plan where the kernel's
    ``search`` takes the graph, and returns what it returns: (status, nodes,
    last, colors), here with no cap on top. It decides palette sizes top,
    top - 1, ..., bottom, one layer each, until one is feasible (status 1),
    every one is infeasible (0) or the node budget (0 = unlimited), shared by
    all layers, runs out (2); a layer whose turn comes once the budget is
    spent aborts with no node. ``last`` is the last t decided: the witness's,
    bottom, or one above the aborted layer.
    ``colors`` gives each edge's color in ``Graph.edges`` order, 0 for none:
    the witness, or an aborted layer's partial coloring when the budget ran
    out; it is empty when every layer is infeasible.

    Within a layer, ``picked[k]`` is the color of the k-th edge in BFS
    order, 0 for none. A depth entered with a color picked was backtracked
    to: that color comes off and the next one is tried. ``dist`` is the
    plan's matrix, or b"" to search without the distance rule.
    """
    m = len(ends) // 2
    pairs = list(zip(ends[::2], ends[1::2]))
    # A layer proven infeasible has taken every color off again, so the
    # next starts from empty masks and counts.
    mask = [0] * n  # bit c set: some edge at the vertex has color c
    color_count = [0] * (top + 1)
    picked = [0] * (m + 1)  # picked[-1] stays 0, the floor where after[k] is -1
    nodes = 0
    # The distance rule: near[k][f] = D(k, f); lows[k][f] and highs[k][f]
    # bound edge f's color at depth k, for f >= k; least_at[k] and
    # most_at[k] bound edge k's candidates.
    flat = memoryview(dist).cast("i")
    near = [flat[k * m : (k + 1) * m].tolist() for k in range(m)] if dist else []
    lows = [[0] * m for _ in near]
    highs = [[0] * m for _ in near]
    least_at = [1] * m
    most_at = [top] * m
    for t in range(top, bottom - 1, -1):
        if node_budget and nodes >= node_budget:
            return 2, nodes, t + 1, [0] * m
        unused = t  # colors on no edge yet
        first_top = (t + 1) // 2  # reversal cut, see solver's docstring
        k = 0
        while 0 <= k < m:
            a, b = pairs[k]
            c = picked[k]
            if c:
                bit = 1 << c
                mask[a] ^= bit
                mask[b] ^= bit
                color_count[c] -= 1
                if not color_count[c]:
                    unused += 1
            elif near:
                # First entry: narrow the ranges by edge k - 1's color x and
                # bound edge k's candidates by its own range and the reach of
                # colors 1 and t (solver's docstring).
                here, lo_k, hi_k = near[k], lows[k], highs[k]
                x, prev, lo_prev, hi_prev = picked[k - 1], near[k - 1], lows[k - 1], highs[k - 1]
                reach_one, reach_top = 1, t
                for f in range(k, m):
                    if k:
                        lo = max(lo_prev[f], x - prev[f])
                        hi = min(hi_prev[f], x + prev[f])
                    else:
                        lo, hi = 1, t
                    lo_k[f], hi_k[f] = lo, hi
                    if lo == 1:
                        reach_one = max(reach_one, 1 + here[f])
                    if hi == t:
                        reach_top = min(reach_top, t - here[f])
                least_at[k] = lo_k[k] if color_count[t] else max(lo_k[k], reach_top)
                most_at[k] = hi_k[k] if color_count[1] else min(hi_k[k], reach_one)
            mask_a, mask_b = mask[a], mask[b]
            # Spread: a new color at v lies in [hi - deg(v) + 1, lo + deg(v) - 1],
            # lo and hi being v's least and greatest color (hi + 1 = bit_length).
            # Twin cut: it lies above the color of edge after[k].
            lo_a = (mask_a & -mask_a).bit_length() - 1 if mask_a else t
            lo_b = (mask_b & -mask_b).bit_length() - 1 if mask_b else t
            c = max(
                c + 1,
                picked[after[k]] + 1,
                mask_a.bit_length() - deg[a],
                mask_b.bit_length() - deg[b],
                least_at[k],
            )
            to = min(t if k else first_top, lo_a + deg[a] - 1, lo_b + deg[b] - 1, most_at[k])
            taken = mask_a | mask_b
            spare = m - k - 1 - unused  # surjectivity: uncolored edges left over
            while c <= to:
                if not (taken >> c) & 1 and (spare >= 0 or (spare == -1 and not color_count[c])):
                    break
                c += 1
            else:
                picked[k] = 0
                k -= 1
                continue
            if node_budget and nodes >= node_budget:
                picked[k] = 0  # its color is off: edges 0 .. k - 1 stay colored
                return 2, nodes, t + 1, _in_edge_order(order, picked)
            nodes += 1
            bit = 1 << c
            mask[a] |= bit
            mask[b] |= bit
            if not color_count[c]:
                unused -= 1
            color_count[c] += 1
            picked[k] = c
            k += 1
        if k == m:
            return 1, nodes, t, _in_edge_order(order, picked)
    return 0, nodes, bottom, []


def _in_edge_order(order: list[int], picked: list[int]) -> list[int]:
    """The colors of ``picked``, in BFS order, at their edges' indices."""
    colors = [0] * len(order)
    for eid, c in zip(order, picked):
        colors[eid] = c
    return colors


# --------------------------------------------------------------------------
# The classification (graph)
# --------------------------------------------------------------------------


def _traverse(g: Graph) -> tuple[list[int], bool, int]:
    """BFS over every component, roots in index order: the side (0 or 1) of
    each vertex, whether that 2-coloring is proper, and the component count;
    for ``_classify_py``."""
    side = [-1] * g.n
    proper = True
    components = 0
    for root in range(g.n):
        if side[root] != -1:
            continue
        components += 1
        side[root] = 0
        queue = [root]
        for u in queue:  # the list grows while it is read: a FIFO queue
            for v in g.adjacency[u]:
                if side[v] == -1:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    proper = False
    return side, proper, components


def _classify_py(g: Graph) -> GraphClass:
    """``classify`` in Python: the reference for the kernel's ``classify``,
    and its fallback."""
    degs = g.degrees()
    delta_max = max(degs)
    delta_min = min(degs)
    side, proper, components = _traverse(g)
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None = None
    biregular: tuple[int, int] | None = None
    if proper:
        part0, part1 = (tuple(v for v in range(g.n) if side[v] == s) for s in (0, 1))
        bipartition = (part0, part1)
        degs0 = {degs[v] for v in part0}  # vertex 0 is in part0, so it is nonempty
        degs1 = {degs[v] for v in part1} or degs0
        if len(degs0) == len(degs1) == 1:
            biregular = tuple(sorted((*degs0, *degs1)))
    nbr = [set(a) for a in g.adjacency]  # edge ab is on a triangle iff a, b share a neighbour
    return GraphClass(
        connected=components == 1,
        bipartition=bipartition,
        regular_degree=delta_max if delta_max == delta_min else None,
        triangle_free=not any(nbr[a] & nbr[b] for a, b in g.edges),
        biregular_degrees=biregular,
        max_degree=delta_max,
        min_degree=delta_min,
    )


# --------------------------------------------------------------------------
# A catalog level (catalog)
# --------------------------------------------------------------------------


def _min_code_py(n: int, masks: Sequence[int]) -> int:
    """Minimum encoding of the graph with adjacency bitmasks ``masks``."""
    lower_twins = [
        sum(1 << y for y in range(x) if (masks[x] & ~(1 << y)) == (masks[y] & ~(1 << x)))
        for x in range(n)
    ]
    # prefix is one integer per placed vertex k, its segment; segment lengths
    # align, so comparing these integer lists positionally is the bit-string
    # comparison.
    best: list[int] | None = None
    chosen: list[int] = []
    prefix: list[int] = []

    def place(used: int) -> None:
        nonlocal best
        k = len(chosen)
        if k == n:
            if best is None or prefix < best:
                best = prefix.copy()
            return
        scored = []
        for x in range(n):
            if (used >> x) & 1 or lower_twins[x] & ~used:
                continue
            segment = 0
            mask_x = masks[x]
            for i in range(k):
                segment = (segment << 1) | ((mask_x >> chosen[i]) & 1)
            scored.append((segment, x))
        scored.sort()
        for segment, x in scored:
            if best is not None:
                prefix.append(segment)
                worse = prefix > best[: k + 1]
                prefix.pop()
                if worse:
                    break  # candidates are sorted; the rest only get larger
            chosen.append(x)
            prefix.append(segment)
            place(used | (1 << x))
            prefix.pop()
            chosen.pop()

    place(0)
    assert best is not None
    code = 0
    for k, segment in enumerate(best):
        code = (code << k) | segment
    return code


def _extend_py(size: int, parents: Iterable[Sequence[int]]) -> dict[int, tuple[int, ...]]:
    """``catalog._extend`` in Python: the reference for the kernel's
    ``extend``, and its fallback."""
    bit = 1 << (size - 1)
    grown: dict[int, tuple[int, ...]] = {}
    for masks in parents:
        for subset in range(1, bit):
            child = (*(m | bit if (subset >> i) & 1 else m for i, m in enumerate(masks)), subset)
            if _lowest_non_cut_last(child):
                grown.setdefault(_min_code_py(size, child), child)
    return grown


def _lowest_non_cut_last(masks: Sequence[int]) -> bool:
    """Whether the last vertex minimises f over the non-cut vertices."""
    n = len(masks)
    deg = [m.bit_count() for m in masks]

    def f(x: int) -> tuple[int, int]:
        return deg[x], -sum(deg[y] for y in range(n) if (masks[x] >> y) & 1)

    def connected_without(u: int) -> bool:
        rest = ((1 << n) - 1) & ~(1 << u)
        seen = frontier = rest & -rest
        while frontier:
            x = frontier.bit_length() - 1
            frontier &= ~(1 << x)
            fresh = masks[x] & rest & ~seen
            seen |= fresh
            frontier |= fresh
        return seen == rest

    last = f(n - 1)
    return not any(f(u) < last and connected_without(u) for u in range(n - 1))
