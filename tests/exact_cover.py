"""An exact-cover oracle for interval t-colorability (Knuth's Algorithm X,
"Dancing Links", arXiv cs/0011047, here on dicts of sets), which shares
nothing with the search: no BFS order, no distance rule, no symmetry rule
and no ceiling.

Items: each edge, each vertex's window start, and each cell (v, c) for c in
[1, t]. Edge uv colored c covers {uv, (u, c), (v, c)}; vertex v starting its
window at s covers its start item and every cell (v, c) with c outside
[s, s + deg(v) - 1]. Each cell is covered once, so the colors at v are
distinct and fill its window: a cover is exactly an interval coloring with
colors in [1, t]. In a connected graph adjacent vertices' windows share their
edge's color, so the colors used form an interval, and the coloring is onto
[1, t] exactly when some window starts at 1 and some ends at t. With a the
least vertex whose window starts at 1 and b the least whose window ends at
t, a layer is decided by at most n^2 covers: one per pair (a, b), with a's
window at 1, b's ending at t, and no vertex before a (before b) starting at
1 (ending at t).
"""

from __future__ import annotations

from intervalcolor import Graph


def _select(items: dict, options: dict, option) -> list:
    """Takes option into the cover: removes its items, and every option that
    meets one of them from the other items; returns what it removed."""
    removed = []
    for item in options[option]:
        for other in items[item]:
            for shared in options[other]:
                if shared != item:
                    items[shared].remove(other)
        removed.append(items.pop(item))
    return removed


def _deselect(items: dict, options: dict, option, removed: list) -> None:
    """Undoes ``_select``."""
    for item in reversed(options[option]):
        items[item] = removed.pop()
        for other in items[item]:
            for shared in options[other]:
                if shared != item:
                    items[shared].add(other)


def _covered(items: dict, options: dict) -> bool:
    """Whether the items left have an exact cover by the options left, the
    item with the fewest options branched on first."""
    if not items:
        return True
    item = min(items, key=lambda key: len(items[key]))
    for option in list(items[item]):
        removed = _select(items, options, option)
        found = _covered(items, options)
        _deselect(items, options, option, removed)
        if found:
            return True
    return False


def _cover_exists(g: Graph, t: int, a: int, b: int) -> bool:
    """Whether g has an interval t-coloring in which a is the least vertex
    whose window starts at 1 and b the least whose window ends at t."""
    deg = g.degrees()
    options: dict[tuple, list[tuple]] = {}
    for idx, (u, v) in enumerate(g.edges):
        for c in range(1, t + 1):
            options["edge", idx, c] = [("edge", idx), ("cell", u, c), ("cell", v, c)]
    for v in range(g.n):
        for s in range(1, t - deg[v] + 2):
            ends = s + deg[v] - 1
            if (v == a) != (s == 1) and (v == a or v < a):
                continue
            if (v == b) != (ends == t) and (v == b or v < b):
                continue
            outside = [("cell", v, c) for c in range(1, t + 1) if not s <= c <= ends]
            options["start", v, s] = [("start", v), *outside]
    items: dict[tuple, set] = {}
    for idx in range(g.m):
        items["edge", idx] = set()
    for v in range(g.n):
        items["start", v] = set()
        for c in range(1, t + 1):
            items["cell", v, c] = set()
    for option, covers in options.items():
        for item in covers:
            items[item].add(option)
    return _covered(items, options)


def interval_colorable(g: Graph, t: int) -> bool:
    """Whether the connected graph g, with an edge, has an interval
    t-coloring."""
    return any(_cover_exists(g, t, a, b) for a in range(g.n) for b in range(g.n))
