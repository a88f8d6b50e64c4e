"""Named small graphs used throughout the tests, corruptions of a coloring,
and the column-order code of an edge set."""

from __future__ import annotations

from intervalcolor import EdgeColoring, Graph


def code_from_edges(n: int, edges) -> int:
    """The column-order code of distinct edges (i, j), i < j (the comment
    on it in graph.py): pair (i, j) at position j(j-1)/2 + i, read MSB-first
    as one integer."""
    top = n * (n - 1) // 2 - 1
    return sum(1 << (top - j * (j - 1) // 2 - i) for i, j in edges)


class ClaimedEdges:
    """No list of edges, though its ``__len__`` claims ``count`` of them:
    the kernel's entries must refuse it before they size a buffer by it."""

    def __init__(self, count: int) -> None:
        self.count = count

    def __len__(self) -> int:
        return self.count


# The most edges a search may plan, INT32_MAX // 3.
MOST_EDGES = (2**31 - 1) // 3


def k1() -> Graph:
    return Graph(1, ())


def k2() -> Graph:
    return Graph(2, ((0, 1),))


def p3() -> Graph:
    return Graph(3, ((0, 1), (1, 2)))


def k3() -> Graph:
    return Graph(3, ((0, 1), (0, 2), (1, 2)))


def p4() -> Graph:
    return Graph(4, ((0, 1), (1, 2), (2, 3)))


def c4() -> Graph:
    return Graph(4, ((0, 1), (1, 2), (2, 3), (0, 3)))


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, tuple((0, i) for i in range(1, leaves + 1)))


def k4() -> Graph:
    return Graph(4, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))


def k5() -> Graph:
    return Graph(5, tuple((i, j) for i in range(5) for j in range(i + 1, 5)))


def cycle(n: int) -> Graph:
    return Graph(n, tuple((i, (i + 1) % n) for i in range(n)))


def hypercube(d: int) -> Graph:
    """Q_d: the 2^d bit strings, joined where they differ in one bit."""
    n = 1 << d
    return Graph(n, tuple((v, v | 1 << i) for v in range(n) for i in range(d) if not v >> i & 1))


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, tuple((i, a + j) for i in range(a) for j in range(b)))


def two_k2() -> Graph:
    """Disconnected: two disjoint edges."""
    return Graph(4, ((0, 1), (2, 3)))


def corruptions(g: Graph, c: EdgeColoring) -> list[EdgeColoring]:
    """A coloring's duplicate, gap and shift corruptions: an edge takes the
    color of an edge it meets, the palette grows by one, and the first edge's
    color moves by one."""
    out = [EdgeColoring(c.t + 1, c.colors)]
    meets = next(
        ((e, f) for e, f in ((e, f) for e in range(g.m) for f in range(g.m))
         if e != f and set(g.edges[e]) & set(g.edges[f])),
        None,
    )
    if meets is not None:
        e, f = meets
        colors = list(c.colors)
        colors[e] = colors[f]
        out.append(EdgeColoring(c.t, tuple(colors)))
    if c.t > 1:
        first = c.colors[0]
        out.append(EdgeColoring(c.t, (first + 1 if first < c.t else first - 1, *c.colors[1:])))
    return out
