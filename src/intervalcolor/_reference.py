"""The compiled kernel's Python twin: the module ``solver._native`` returns
where ``_search.c`` cannot be built or loaded (no compiler, no headers, a
read-only install), so that no caller asks which one it has.

It has the kernel's seven entries, with the kernel's arguments and results.
``search``, ``classify`` and ``extend`` run the Python references of the
kernel's loops: the search plan and loop (``_plan_py``, ``_search_py``),
the classification (``_classify_py``) and a catalog level (``extend``, with
its canonical search ``_min_code_py``). They take the graph as the kernel
does, as n and canonical edges, and build their own ``Graph`` from them.
``index_graph``, ``in_palette``, ``interval_ok`` and ``double`` always
decline, as the kernel does for input it leaves to Python: their callers'
own code is the reference and raises every error (``graph._index_py``,
``coloring._check_colors_py``, ``coloring._report`` and the doubling's
Python path). A process with the kernel neither imports nor compiles this
module; ``catalog.minimum_adjacency_encoding``, which has no kernel twin,
imports it when called. Each function looks the others up here by name, so
a test that patches one patches every call.

The proofs of what each loop does are in the docstrings of ``solver`` (the
search), ``graph`` (the classification) and ``catalog`` (the catalog).
"""

from __future__ import annotations

import bisect
import heapq
import itertools
from array import array
from collections import deque
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graph import Graph, GraphClass
from .solver import DISTANCE_MAX_M

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
    ``longest`` its largest entry, for at most ``max_m`` edges (the
    argument of ``_plan_py``); above, b"" and None.
    """

    order: list[int]
    ends: list[int]
    deg: list[int]
    after: list[int]
    dist: bytes
    longest: int | None


def _plan_py(g: Graph, max_m: int = DISTANCE_MAX_M) -> _Plan:
    """g's plan in Python, with the matrix for at most ``max_m`` edges: the
    plan of ``search``, and the reference for the kernel's."""
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
    if g.m > max_m:
        return _Plan(order, ends, deg, after, b"", None)
    # D(e, f) at e * m + f, in BFS positions, as native int32 bytes.
    dist = array("i", itertools.chain.from_iterable(_distance_rows(adjacency, deg, pairs)))
    return _Plan(order, ends, deg, after, dist.tobytes(), max(dist))


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


def search(
    n: int, edges: Sequence[tuple[int, int]], max_m: int, top: int, bottom: int, budget: int
) -> tuple[int, int, int, list[int]]:
    """The kernel's ``search``: ``_plan_py``'s plan, top capped at m and at
    1 + max D (without the matrix, D's rows read until that reaches top),
    then ``_search_py``, which decides an empty range as (0, 0, bottom, [])."""
    g = Graph(n, edges)
    plan = _plan_py(g, max_m)
    longest = plan.longest
    if longest is None:
        longest = 0
        for row in _distance_rows(g.adjacency, plan.deg, [g.edges[e] for e in plan.order]):
            longest = max(longest, max(row))
            if longest + 1 >= top:
                break
    return _search_py(n, *plan[:5], min(top, g.m, 1 + longest), bottom, budget)


def _anchored(pairs: int, m: int) -> bool:
    """Whether a layer whose anchor pairs number ``pairs`` is decided by a
    sweep over them: at most 2m of them (solver's docstring)."""
    return pairs <= 2 * m


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
    """The search loop in Python, on the first five fields of a plan.

    Returns what ``search`` returns: (status, nodes, last, colors), here
    with no cap on top. It decides palette sizes top, top - 1, ..., bottom,
    one layer each, until one is feasible (status 1), every one is
    infeasible (0) or the node budget (0 = unlimited), shared by all layers,
    runs out (2); a layer whose turn comes once the budget is spent aborts
    with no node. ``last`` is the last t decided: the witness's, bottom, or
    one above the aborted layer. ``colors`` gives each edge's color in
    ``Graph.edges`` order, 0 for none: the witness, or an aborted layer's
    partial coloring when the budget ran out (in a sweep, its run's, the
    anchor pair included); it is empty when every layer is infeasible.

    A layer is one run of the loop, or, with the matrix and when
    ``_anchored`` accepts its anchor pairs, a sweep: one run per pair
    (e, f), e ascending and f descending in BFS positions, with e holding 1
    and f holding t at no node, and each run after the first coloring found
    searching only below the least so far (solver's docstring). In a run,
    ``picked[k]`` is the color of the k-th edge in BFS order, 0 for none. A
    depth entered with a color picked was backtracked to: that color comes
    off and the next one is tried. ``dist`` is the plan's matrix, or b"" to
    search without the distance rule and the sweep.
    """
    m = len(ends) // 2
    pairs = list(zip(ends[::2], ends[1::2]))
    # A run that finds no coloring has taken every color off again, and a
    # sweep takes a found one off, so each run starts from empty masks and
    # counts.
    mask = [0] * n  # bit c set: some edge at the vertex has color c
    color_count = [0] * (top + 1)
    picked = [0] * (m + 1)  # picked[-1] stays 0, the floor where after[k] is -1
    nodes = 0
    # The distance rule: near[k][g] = D(k, g); lows[k][g] and highs[k][g]
    # bound edge g's color at depth k, for g > k, and edge k's candidates at
    # g = k, as later depths read only g > k. far[d]: the ordered pairs of
    # edges with D >= d.
    flat = memoryview(dist).cast("i")
    near = [flat[k * m : (k + 1) * m].tolist() for k in range(m)] if dist else []
    lows = [[0] * m for _ in near]
    highs = [[0] * m for _ in near]
    far = [0] * (max(flat, default=0) + 2)
    for d in flat:
        far[d] += 1
    for d in reversed(range(len(far) - 1)):
        far[d] += far[d + 1]

    def toggle(k: int, c: int) -> None:
        a, b = pairs[k]
        mask[a] ^= 1 << c
        mask[b] ^= 1 << c

    def take_off(k: int) -> None:
        c = picked[k]
        toggle(k, c)
        color_count[c] -= 1
        picked[k] = 0

    def clear_colors() -> None:
        for k in range(m):
            if picked[k]:
                take_off(k)

    def tie_from(best: list[int], q: int, e: int, f: int, t: int) -> int:
        # Where the run stops matching best, given that it matches before q:
        # past the pre-colored positions from q on that match; -2 when one
        # of them holds a larger color, so that nothing below best is left.
        while q < m and q in (e, f):
            c = 1 if q == e else t
            if c != best[q]:
                return q if c < best[q] else -2
            q += 1
        return q

    def run(t: int, e: int, f: int, best: list[int] | None) -> int:
        """One run of the loop at palette size t over the edges but e and f,
        which hold 1 and t at no node (none when e is -1; e = f when t = 1),
        and below ``best`` when given: 1 when it colors every edge, 0 when
        it cannot (every color taken off again), 2 when the budget runs
        out."""
        nonlocal nodes
        first_top = (t + 1) // 2  # reversal cut, see solver's docstring
        unused = t  # colors on no edge yet
        tie = -1  # the positions before tie match best
        if e >= 0:
            # Nothing below best: a pre-colored position above best's comes
            # before any free one, or the first free one, before e, where no
            # 1 may go, holds 1 in best.
            if best and ((tie := tie_from(best, 0, e, f, t)) == -2 or (tie < e and best[tie] == 1)):
                return 0
            for k, c in {e: 1, f: t}.items():
                toggle(k, c)
                color_count[c] += 1
                picked[k] = c
                unused -= 1
        k = 0  # it steps over e and f; without a pair, e = f = -1 lets it reach -2
        while k in (e, f):
            k += 1
        while 0 <= k < m:
            a, b = pairs[k]
            c = picked[k]
            if c:
                toggle(k, c)
                color_count[c] -= 1
                if not color_count[c]:
                    unused += 1
            elif near:
                # First entry: narrow the ranges of the free depth before by
                # its color x, or take those the pair leaves, and bound edge
                # k's candidates by its own range and the reach of colors 1
                # and t (solver's docstring).
                back = 1
                while k - back in (e, f):
                    back += 1
                here, lo_k, hi_k = near[k], lows[k], highs[k]
                for g in range(k, m):
                    if back <= k:
                        p = k - back
                        lo_k[g] = max(lows[p][g], picked[p] - near[p][g])
                        hi_k[g] = min(highs[p][g], picked[p] + near[p][g])
                    elif e >= 0:
                        lo_k[g], hi_k[g] = max(1, t - near[f][g]), min(t, 1 + near[e][g])
                    else:
                        lo_k[g], hi_k[g] = 1, t
                reach_one = max([1] + [1 + here[g] for g in range(k, m) if lo_k[g] == 1])
                reach_top = min([t] + [t - here[g] for g in range(k, m) if hi_k[g] == t])
                lo_k[k] = lo_k[k] if color_count[t] else max(lo_k[k], reach_top)
                hi_k[k] = hi_k[k] if color_count[1] else min(hi_k[k], reach_one)
            mask_a, mask_b = mask[a], mask[b]
            least, most = (lows[k][k], highs[k][k]) if near else (1, t)
            # Spread: a new color at v lies in [hi - deg(v) + 1, lo + deg(v) - 1],
            # lo and hi being v's least and greatest color (hi + 1 = bit_length).
            # Twin cut: it lies above the color of edge after[k]. The pair's
            # edges hold the first 1 and the first t: no 1 before e, no t
            # before f. Below best: where the positions before k match best,
            # it is at most best's.
            lo_a = (mask_a & -mask_a).bit_length() - 1 if mask_a else t
            lo_b = (mask_b & -mask_b).bit_length() - 1 if mask_b else t
            c = max(
                c + 1,
                picked[after[k]] + 1,
                mask_a.bit_length() - deg[a],
                mask_b.bit_length() - deg[b],
                least,
                2 if k < e else 1,
            )
            to = min(
                t if k else first_top,
                t - 1 if k < f else t,
                best[k] if tie >= k else t,
                lo_a + deg[a] - 1,
                lo_b + deg[b] - 1,
                most,
            )
            taken = mask_a | mask_b
            # surjectivity: uncolored edges left over
            spare = m - k - 1 - (e > k) - (f > k and f != e) - unused
            while c <= to:
                if not (taken >> c) & 1 and (spare >= 0 or (spare == -1 and not color_count[c])):
                    break
                c += 1
            else:
                picked[k] = 0
                k -= 1
                while k in (e, f):
                    k -= 1
                continue
            if node_budget and nodes >= node_budget:
                picked[k] = 0  # its color is off: the run's edges before k stay colored
                return 2
            nodes += 1
            toggle(k, c)
            if not color_count[c]:
                unused -= 1
            color_count[c] += 1
            picked[k] = c
            if tie >= k and (tie := tie_from(best, k + 1, e, f, t) if c == best[k] else k) == -2:
                clear_colors()
                return 0
            k += 1
            while k in (e, f):
                k += 1
        if k >= 0:
            return 1
        for k in {e, f} - {-1}:
            take_off(k)
        return 0

    for t in range(top, bottom - 1, -1):
        if node_budget and nodes >= node_budget:
            return 2, nodes, t + 1, [0] * m
        anchors = m if t == 1 else far[min(t - 1, len(far) - 1)]
        if not near or not _anchored(anchors, m):
            status = run(t, -1, -1, None)
            if status:
                return status, nodes, t + (status == 2), _in_edge_order(order, picked)
            continue
        # The reversal and twin cuts, as plain constraints on the pair: no
        # edge after[e] holds a color below e's 1, and edge 0 holds at most
        # (t + 1) // 2, less than t when t >= 2.
        best = None
        for e in range(m):
            if after[e] >= 0:
                continue
            for f in reversed(range(m)):
                if e != f if t == 1 else f == 0 or near[e][f] < t - 1:
                    continue
                status = run(t, e, f, best)
                if status == 2:
                    return 2, nodes, t + 1, _in_edge_order(order, picked)
                if status == 1:
                    best = picked[:m]
                    clear_colors()
        if best:
            return 1, nodes, t, _in_edge_order(order, best)
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


def classify(n: int, edges: Sequence[tuple[int, int]]) -> GraphClass:
    """The kernel's ``classify``: ``_classify_py``'s fields."""
    return _classify_py(Graph(n, edges))


def _classify_py(g: Graph) -> GraphClass:
    """``graph.classify`` in Python: the reference for the kernel's."""
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


def extend(size: int, parents: Iterable[Sequence[int]]) -> dict[int, tuple[int, ...]]:
    """One catalog level in Python: each class reached from ``parents``, the
    adjacency masks of the classes on size - 1 vertices, mapped from its
    code to the masks of the first child found with it; the reference for
    the kernel's ``extend``."""
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


# --------------------------------------------------------------------------
# The entries the kernel declines for input it leaves to Python, and this
# module for all: the caller's own code then runs.
# --------------------------------------------------------------------------


def index_graph(n: int, edges: Iterable, pairs: tuple) -> None:
    return None


def in_palette(t: int, colors: Sequence[int]) -> bool:
    return False


def interval_ok(n: int, edges: Sequence[tuple[int, int]], colors: Sequence[int], t: int) -> bool:
    return False


def double(
    n: int, edges: Sequence, colors: Sequence[int], t: int, pairs: tuple, provenance: list
) -> None:
    return None
