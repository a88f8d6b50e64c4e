"""The compiled kernel's Python twin: the module ``solver._native`` returns
where ``_search.c`` cannot be built or loaded (no compiler, no headers, a
read-only install), so that no caller asks which one it has.

It has the kernel's seven entries, with the kernel's arguments and results.
``search``, ``classify`` and ``extend`` run the Python references of the
kernel's loops: the halving test, the search plan, with its automorphism
harvest, and loop (``_halves``, ``_plan_py``, ``_harvest``,
``_search_py``, which takes the plan whole), the classification
(``_classify_py``) and a catalog level (``extend``, with its canonical
search ``_min_code_py``).
They take the graph as the kernel does, as n and canonical edges, and
build their own ``Graph`` from them; ``search`` and ``classify`` first
refuse what the kernel refuses, with its messages (``_read_edges``).
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
from array import array
from collections import Counter
from typing import Iterable, Iterator, NamedTuple, Sequence

from .graph import Graph, GraphClass
from .solver import DISTANCE_MAX_M

# --------------------------------------------------------------------------
# The search (solver)
# --------------------------------------------------------------------------


class _Plan(NamedTuple):
    """The search's input for a connected g with an edge, built once per graph.

    ``order`` is the BFS edge order, ``ends`` the two endpoints of each edge
    in that order, flat, and ``deg`` the vertex degrees. The BFS starts at
    the lowest-indexed vertex of maximum degree, so consecutive edges share
    endpoints. ``floors[j]`` lists the orbit rule's pairs (i, step), i < j:
    the least coloring has c(j) >= c(i) + step (``solver``'s docstring), one
    per automorphism of ``_harvest`` and per twin swap. ``orbit[j]`` is
    whether edge j lies in edge 0's orbit under the group they generate (the
    reversal rule). ``dist`` is the distance matrix in BFS positions,
    ``far[d]`` for 0 <= d <= m the number of ordered pairs of edges with
    D >= d (layer d + 1's anchor pairs, for d >= 1), and ``longest`` the largest
    entry, for at most ``max_m`` edges (the argument of ``_plan_py``);
    above, b"", [] and None.
    """

    order: list[int]
    ends: list[int]
    deg: list[int]
    floors: list[list[tuple[int, int]]]
    orbit: list[bool]
    dist: bytes
    far: list[int]
    longest: int | None


# The harvest's work bound: walk comparisons, as _search.c's HARVEST_WORK.
HARVEST_WORK = 1 << 22


def _plan_py(g: Graph, max_m: int = DISTANCE_MAX_M) -> _Plan:
    """g's plan in Python, with the matrix for at most ``max_m`` edges: the
    plan of ``search``, and the reference for the kernel's."""
    plan, _ = _plan_and_harvest(g, max_m)
    return plan


def _plan_and_harvest(g: Graph, max_m: int) -> tuple[_Plan, list[tuple[int, ...]]]:
    """g's plan and the automorphisms ``_harvest`` found for it."""
    adjacency, incidence = g.adjacency, g.incidence  # incidence[v] in adjacency[v]'s order
    deg = [len(nbrs) for nbrs in adjacency]
    start = deg.index(max(deg))
    order: list[int] = []
    position = [-1] * g.m
    parent = [-1] * g.n
    visit = [start]  # the BFS vertex order; the list grows while it is read
    parent[start] = start
    for u in visit:
        for v, eid in zip(adjacency[u], incidence[u]):
            if position[eid] < 0:
                position[eid] = len(order)
                order.append(eid)
            if parent[v] < 0:
                parent[v] = u
                visit.append(v)
    pairs = [g.edges[eid] for eid in order]
    ends = [v for pair in pairs for v in pair]

    def at(x: int, u: int) -> int:
        """The BFS position of edge xu."""
        return position[incidence[x][bisect.bisect_left(adjacency[x], u)]]

    # Twins have equal open neighbourhoods (x, y apart) or equal closed ones
    # (x, y adjacent). No open one equals a closed one (N(w) = N[v] would put
    # v in N(w) but w outside N[v]), so one dict groups both, as one hash
    # table does in the kernel's make_plan.
    groups: dict[tuple[int, ...], list[int]] = {}
    for v, nbrs in enumerate(adjacency):
        i = bisect.bisect(nbrs, v)
        groups.setdefault(nbrs, []).append(v)
        groups.setdefault((*nbrs[:i], v, *nbrs[i:]), []).append(v)
    # The twin swaps: each twin after the first of its class in BFS order,
    # with the twin just before it and with the first (solver's docstring).
    rank = {v: k for k, v in enumerate(visit)}
    swaps = []
    for twins in groups.values():
        ranked = sorted(twins, key=rank.__getitem__)
        for j in range(1, len(ranked)):
            swaps.append((ranked[j - 1], ranked[j]))
            if j > 1:
                swaps.append((ranked[0], ranked[j]))
    floors: list[list[tuple[int, int]]] = [[] for _ in range(g.m)]
    for x, y in swaps:
        # The x<->y swap moves the edges at x or y other than xy; the first
        # moved edge, (a, u) at position k, receives (b, u), which joins the
        # partner b to u.
        moved = [
            (position[e], b, u)
            for a, b in ((x, y), (y, x))
            for u, e in zip(adjacency[a], incidence[a])
            if u != b
        ]
        if moved:  # K2 has none
            k, b, u = min(moved)
            floors[at(b, u)].append((k, 1))
    if g.m > max_m:
        found: list[tuple[int, ...]] = []
        dist, far, longest = b"", [], None
    else:
        walk = [_walk(adjacency, deg, (v,)) for v in range(g.n)]
        # D(e, f) at e * m + f, in BFS positions, as native int32 bytes.
        matrix = array("i", (0 if e == f else min(walk[a][x], walk[a][y], walk[b][x], walk[b][y])
                             for e, (a, b) in enumerate(pairs) for f, (x, y) in enumerate(pairs)))
        dist, far, longest = matrix.tobytes(), [0] * (g.m + 1), max(matrix)
        for d in matrix:  # as the kernel's path_ceiling counts them: D >= m at m
            far[min(d, g.m)] += 1
        for d in reversed(range(g.m)):
            far[d] += far[d + 1]
        found = _harvest(adjacency, deg, visit, parent, walk, swaps)
    # Edge 0's orbit: the edges joined to it by a twin swap or a harvested
    # automorphism, in a union-find over BFS positions.
    root = list(range(g.m))
    for x, y in swaps:
        for u in adjacency[x]:
            if u != y:
                _join(root, at(x, u), at(y, u))
    for sigma in found:
        moves = [at(sigma[a], sigma[b]) for a, b in pairs]  # moves[k]: the image of edge k
        for k, j in enumerate(moves):
            _join(root, k, j)
        # The orbit rule: i, the first edge sigma moves, receives edge j.
        # Only K2's swap moves no edge, and the twins have it already.
        i = next(k for k, j in enumerate(moves) if j != k)
        j = moves.index(i)
        floors[j].append((i, int(not {*pairs[i]}.isdisjoint(pairs[j]))))
    orbit = [_find(root, k) == _find(root, 0) for k in range(g.m)]
    return _Plan(order, ends, deg, floors, orbit, dist, far, longest), found


def _find(root: list[int], v: int) -> int:
    """The root of v's tree in the union-find forest ``root``, halving the
    path to it."""
    while root[v] != v:
        root[v] = root[root[v]]
        v = root[v]
    return v


def _join(root: list[int], x: int, y: int) -> None:
    root[_find(root, x)] = _find(root, y)


def _walk(adjacency, deg, sources) -> list[int]:
    """The cheapest walk from any of ``sources`` to each vertex, each vertex
    on it (ends included) costing deg - 1: one Dijkstra."""
    reach = [-1] * len(adjacency)
    heap = [(deg[s] - 1, s) for s in sources]
    while heap:
        d, u = heapq.heappop(heap)
        if reach[u] >= 0:
            continue
        reach[u] = d
        for v in adjacency[u]:
            if reach[v] < 0:
                heapq.heappush(heap, (d + deg[v] - 1, v))
    return reach


def _harvest(adjacency, deg, visit, parent, walk, swaps) -> list[tuple[int, ...]]:
    """Automorphisms of the graph, as vertex images, found level by level
    down the BFS vertex order ``visit`` = b_0, b_1, ... (``solver``'s
    docstring): the reference for the kernel's.

    At level i, deepest first, for each w in ascending order that is not yet
    in b_i's orbit under the swaps and automorphisms that fix b_0 .. b_i-1
    found so far, it keeps the least automorphism that fixes b_0 .. b_i-1
    and sends b_i to w, if there is one: images are chosen for b_i+1, b_i+2,
    ... in turn, each among the neighbours of its BFS parent's image, least
    first. An image v of x must have x's degree and walk total, and the
    same walk to the image of every vertex mapped before as x to that
    vertex. Between distinct vertices of equal degrees the walk tells
    whether they are adjacent (a path through another vertex costs at least
    one more), so every full map is an automorphism. The twin swaps (x, y),
    x before y, are found already: each joins their orbits from x's level
    on. Each comparison of the walks of a candidate counts one
    unit of work, at most ``HARVEST_WORK`` in all; there the harvest stops
    with what it has.
    """
    n = len(adjacency)
    at = [0] * n
    for k, v in enumerate(visit):
        at[v] = k
    total = [sum(row) for row in walk]
    root = list(range(n))  # the orbits of b_i under what fixes b_0 .. b_i-1, as a union-find
    joins: dict[int, list[int]] = {}
    for x, y in swaps:
        joins.setdefault(x, []).append(y)
    found: list[tuple[int, ...]] = []
    work = 0
    sigma = [-1] * n
    taken = [False] * n
    choice = [0] * n
    for i in reversed(range(n)):
        u = visit[i]
        for y in joins.get(u, ()):
            _join(root, u, y)
        for w in range(n) if i == 0 else adjacency[parent[u]]:
            if at[w] <= i or deg[w] != deg[u] or total[w] != total[u]:
                continue
            if _find(root, w) == _find(root, u):
                continue
            work += i
            if work > HARVEST_WORK:
                return found
            if any(walk[x][u] != walk[x][w] for x in visit[:i]):
                continue
            sigma[:] = [-1] * n
            taken[:] = [False] * n
            for x in visit[:i]:
                sigma[x] = x
                taken[x] = True
            sigma[u], taken[w] = w, True
            k = i + 1
            while i < k < n:
                x = visit[k]
                options = adjacency[sigma[parent[x]]]
                if sigma[x] >= 0:  # backtracked to: the next option
                    taken[sigma[x]] = False
                    sigma[x] = -1
                    choice[k] += 1
                else:
                    choice[k] = 0
                while choice[k] < len(options):
                    v = options[choice[k]]
                    if not taken[v] and deg[v] == deg[x] and total[v] == total[x]:
                        work += k
                        if work > HARVEST_WORK:
                            return found
                        if all(walk[y][x] == walk[sigma[y]][v] for y in visit[:k]):
                            break
                    choice[k] += 1
                else:
                    k -= 1
                    continue
                sigma[x] = options[choice[k]]
                taken[sigma[x]] = True
                k += 1
            if k == n:
                found.append(tuple(sigma))
                for x in range(n):
                    _join(root, x, sigma[x])
    return found


def _distance_rows(adjacency, deg, pairs) -> Iterator[list[int]]:
    """Row e: D(e, f) for every edge f, the edges listed as vertex pairs.

    A path from edge e to edge f steps through a walk of vertices from an
    end of e to an end of f, so one walk from both ends of e gives e's whole
    row.
    """
    for e, (a, b) in enumerate(pairs):
        reach = _walk(adjacency, deg, (a, b))
        row = [min(reach[x], reach[y]) for x, y in pairs]
        row[e] = 0
        yield row


def _halves(deg: Sequence[int], m: int) -> bool:
    """Whether some sub-multiset of the degrees ``deg`` sums to m, which
    every interval colorable graph's do (solver's docstring): the kernel's
    ``halves``, a subset sum on the bits of an int, bit s set when some
    sub-multiset sums to s. Each distinct degree d of count c enters as the
    items d, 2d, 4d, ... and the rest of c times d, whose sums give every
    multiple of d up to c d."""
    sums, full = 1, (2 << m) - 1  # sums above m are dropped
    for d, count in Counter(deg).items():
        k = 1
        while count:
            item = min(k, count)
            sums |= (sums << d * item) & full
            count -= item
            k *= 2
    return bool(sums >> m & 1)


def search(
    n: int, edges: Sequence[tuple[int, int]], max_m: int, top: int, bottom: int, budget: int
) -> tuple[int, int, int, list[int]]:
    """The kernel's ``search``, which refuses what the kernel refuses, in
    its order: the palette range, then n, the edge count and max_m, more
    than INT32_MAX / 3 edges (MemoryError), the edges (``_read_edges``) and
    a graph that is not connected, found by a union-find over the edges, so
    that no lists are built for it. Then (0, 0, bottom, []) with no plan
    where the degrees do not halve (``_halves``), else ``_plan_py``'s plan,
    top capped at m and at 1 + max D (without the matrix, D's rows read
    until that reaches top), then ``_search_py``, which decides an empty
    range as (0, 0, bottom, [])."""
    if not 1 <= bottom <= top or budget < 0:
        raise ValueError("search: palette range or budget out of range")
    m = len(edges)
    if n < 1 or m < 1 or max_m < 0:
        raise ValueError("search: n, edges or max_m out of range")
    if m > (2**31 - 1) // 3:  # the kernel's bound, INT32_MAX / 3 edges
        raise MemoryError
    _read_edges(n, edges, "search")
    deg = [0] * n
    root = list(range(n))
    parts = n
    for a, b in edges:
        deg[a] += 1
        deg[b] += 1
        x, y = _find(root, a), _find(root, b)
        parts -= x != y
        root[x] = y
    if parts > 1:
        raise ValueError("search: the graph must be connected")
    if not _halves(deg, m):
        return 0, 0, bottom, []
    g = Graph(n, edges)
    plan = _plan_py(g, max_m)
    longest = plan.longest
    if longest is None:
        longest = 0
        for row in _distance_rows(g.adjacency, plan.deg, [g.edges[e] for e in plan.order]):
            longest = max(longest, max(row))
            if longest + 1 >= top:
                break
    return _search_py(n, plan, min(top, m, 1 + longest), bottom, budget)


def _read_edges(n: int, edges: Sequence[tuple[int, int]], entry: str) -> None:
    """Raises the kernel's ValueError, naming ``entry``, unless ``edges`` is
    what ``Graph.edges`` is for n vertices: an exact list or tuple of exact
    pairs (a, b) of exact ints, 0 <= a < b < n, strictly increasing. The
    kernel's ``read_edges``, with its messages."""
    if type(edges) not in (list, tuple):
        raise ValueError(f"{entry}: edges must be a list or tuple")
    before = (-1, -1)
    for e, pair in enumerate(edges):
        if type(pair) not in (list, tuple) or len(pair) != 2:
            raise ValueError(f"{entry}: edge {e} is not a pair (a, b)")
        for end in pair:
            if type(end) is not int:
                raise ValueError(f"{entry}: edge {e} has an end that is not an int")
            if not 0 <= end < n:
                raise ValueError(f"{entry}: edge {e} has an end outside [0, {n})")
        if pair[0] >= pair[1] or (*pair,) <= before:
            raise ValueError(f"{entry}: edges must be increasing pairs (a, b), a < b")
        before = (*pair,)


def _anchored(pairs: int, m: int) -> bool:
    """Whether a layer whose anchor pairs number ``pairs`` is decided by a
    sweep over them: at most 2m of them (solver's docstring)."""
    return pairs <= 2 * m


def _search_py(
    n: int, plan: _Plan, top: int, bottom: int, node_budget: int
) -> tuple[int, int, int, list[int]]:
    """The search loop in Python, on a plan of ``_plan_py``.

    Returns what ``search`` returns: (status, nodes, last, colors), here
    with no cap on top. It decides palette sizes top, top - 1, ..., bottom,
    one layer each, until one is feasible (status 1), every one is
    infeasible (0) or the node budget (0 = unlimited), shared by all layers,
    runs out (2); a layer whose turn comes once the budget is spent aborts
    with no node. ``last`` is the last t decided: the witness's, bottom, or
    one above the aborted layer. ``colors`` gives each edge's color in
    ``Graph.edges`` order, 0 for none: the witness, or an aborted layer's
    partial coloring when the budget ran out (in a sweep, its run's); it is
    empty when every layer is infeasible.

    A layer is one run of the loop, or, with the matrix and when
    ``_anchored`` accepts its anchor pairs, a sweep: one run per pair
    (e, f), e ascending and f descending in BFS positions, less the pairs
    the symmetry rules rule out. A run for a pair is the same loop with
    other first ranges, which hold e at 1 and f at t, two forced placements
    that count no node, and each run after the first coloring found
    searches only below the least so far (solver's docstring). In a run,
    ``picked[k]`` is the color of the k-th edge in BFS order, 0 for none. A
    depth entered with a color picked was backtracked to: that color comes
    off and the next one is tried. Without the plan's matrix (``dist`` b"")
    there is no distance rule and no sweep.
    """
    order, ends, deg, floors, orbit, far = (
        plan.order, plan.ends, plan.deg, plan.floors, plan.orbit, plan.far
    )
    m = len(ends) // 2
    pairs = list(zip(ends[::2], ends[1::2]))
    # A run that finds no coloring has taken every color off again, and a
    # sweep takes a found one off, so each run starts from empty masks and
    # counts.
    mask = [0] * n  # bit c set: some edge at the vertex has color c
    color_count = [0] * (top + 1)
    picked = [0] * m
    nodes = 0
    # least[k] and most[k]: the bounds on edge k's candidates that its first
    # entry finds, which hold until a depth before it changes its color.
    least = [0] * m
    most = [0] * m
    # The distance rule: near[k][g] = D(k, g); lows[k][g] and highs[k][g]
    # bound edge g's color at depth k, for g > k, as later depths read only
    # g > k.
    flat = memoryview(plan.dist).cast("i")
    near = [flat[k * m : (k + 1) * m].tolist() for k in range(m)] if plan.dist else []
    lows = [[0] * m for _ in near]
    highs = [[0] * m for _ in near]

    def run(t: int, e: int, f: int, best: list[int] | None) -> int:
        """One run of the loop at palette size t: for an anchor pair (e, f),
        its first ranges hold e at 1 and f at t, which it places at no node
        (no pair when e is -1; e = f when t = 1), and it searches below
        ``best`` when given. 1 when it colors every edge, 0 when it cannot
        (every color taken off again), 2 when the budget runs out."""
        nonlocal nodes
        unused = t  # colors on no edge yet
        tie = 0 if best else -1  # the positions before tie match best
        k = 0
        while 0 <= k < m:
            a, b = pairs[k]
            c = picked[k]
            if c:
                mask[a] ^= 1 << c
                mask[b] ^= 1 << c
                color_count[c] -= 1
                if not color_count[c]:
                    unused += 1
            else:
                # First entry. Spread: a new color at v lies in
                # [hi - deg(v) + 1, lo + deg(v) - 1], lo and hi being v's
                # least and greatest color (hi + 1 = bit_length). Orbit
                # rule: at least c(i) + step for each floor (i, step).
                # Reversal rule: edge 0 holds at most (t + 1) // 2, and
                # every other edge of its orbit at most t + 1 - c(0). Below
                # best: where the positions before k match best, at most
                # best's color. Surjectivity: no more colors left unused
                # than edges left, but for this one.
                mask_a, mask_b = mask[a], mask[b]
                lo_a = (mask_a & -mask_a).bit_length() - 1 if mask_a else t
                lo_b = (mask_b & -mask_b).bit_length() - 1 if mask_b else t
                low = max(
                    [mask_a.bit_length() - deg[a], mask_b.bit_length() - deg[b]]
                    + [picked[i] + step for i, step in floors[k]]
                )
                high = min(
                    lo_a + deg[a] - 1,
                    lo_b + deg[b] - 1,
                    (t + 1) // 2 if not k else t + 1 - picked[0] if orbit[k] else t,
                    best[k] if tie >= k else t,
                    t if unused <= m - k else 0,
                )
                if near:
                    # The distance rule: the ranges of depth k - 1 narrowed
                    # by its color, or row 0: [1, t], or the pair's, within
                    # D(f, g) of t and D(e, g) of 1, with no 1 before e and no
                    # t before f. Edge k's own range comes first, and only
                    # when it leaves a candidate does the pass narrow the
                    # later ranges and bound edge k's candidates by the reach
                    # of colors 1 and t (solver's docstring).
                    here, lo_k, hi_k = near[k], lows[k], highs[k]
                    reach_one, reach_top = 1, t
                    for g in range(k, m):
                        if k:
                            p = k - 1
                            lo = max(lows[p][g], picked[p] - near[p][g])
                            hi = min(highs[p][g], picked[p] + near[p][g])
                        elif e >= 0:
                            lo = max(2 if g < e else 1, t - near[f][g])
                            hi = min(t - 1 if g < f else t, 1 + near[e][g])
                        else:
                            lo, hi = 1, t
                        if g == k:
                            low, high = max(low, lo), min(high, hi)
                            if low > high:
                                break
                            continue
                        lo_k[g], hi_k[g] = lo, hi
                        if lo == 1:
                            reach_one = max(reach_one, 1 + here[g])
                        if hi == t:
                            reach_top = min(reach_top, t - here[g])
                    else:
                        if not color_count[t]:
                            low = max(low, reach_top)
                        if not color_count[1]:
                            high = min(high, reach_one)
                least[k], most[k] = low, high
            # The least color in [max(c + 1, least), most] on neither end,
            # and on no edge at all when exactly as many edges as unused
            # colors remain (surjectivity).
            c = max(c + 1, least[k])
            taken = mask[a] | mask[b]
            shun = unused == m - k
            while c <= most[k]:
                if not (taken >> c) & 1 and not (shun and color_count[c]):
                    break
                c += 1
            else:
                picked[k] = 0
                k -= 1
                continue
            if k not in (e, f):  # the pair's placements are forced: no node
                if node_budget and nodes >= node_budget:
                    picked[k] = 0  # its color is off: the run's edges before k stay colored
                    return 2
                nodes += 1
            mask[a] |= 1 << c
            mask[b] |= 1 << c
            if not color_count[c]:
                unused -= 1
            color_count[c] += 1
            picked[k] = c
            if tie >= k:
                tie = k + 1 if c == best[k] else k
            k += 1
        return int(k >= 0)

    for t in range(top, bottom - 1, -1):
        if node_budget and nodes >= node_budget:
            return 2, nodes, t + 1, [0] * m
        # The anchor pairs: far[m] counts those with D >= m, and no layer
        # above m is colorable.
        if not near or not _anchored(m if t == 1 else far[min(t - 1, m)], m):
            status = run(t, -1, -1, None)
            if status:
                return status, nodes, t + (status == 2), _in_edge_order(order, picked)
            continue
        # The symmetry rules, as plain constraints on the pair: an edge with
        # a floor holds more than some earlier edge, so not the first 1,
        # and the first t lies in edge 0's orbit only where edge 0 holds 1.
        best = None
        for e in range(m):
            if floors[e]:
                continue
            for f in reversed(range(m)):
                if (e != f if t == 1 else near[e][f] < t - 1) or (e and orbit[f]):
                    continue
                status = run(t, e, f, best)
                if status == 2:
                    return 2, nodes, t + 1, _in_edge_order(order, picked)
                if status == 1:
                    # It colored every edge: take every color off again.
                    best = picked[:]
                    mask[:] = [0] * n
                    color_count[:] = [0] * (top + 1)
                    picked[:] = [0] * m
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
    """The kernel's ``classify``: ``_classify_py``'s fields, for the n and
    edges the kernel takes."""
    len(edges)  # a TypeError first for edges of no length, as in the kernel
    if n < 1:
        raise ValueError("classify: n out of range")
    _read_edges(n, edges, "classify")
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
