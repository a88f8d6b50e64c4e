"""Graph representation, structural classification, and graph6 / edge-list I/O.

Vertices are 0-based everywhere. The edge list is canonical: each edge is
stored as ``(i, j)`` with ``i < j``, deduplicated, and sorted
lexicographically, so any two construction paths to the same edge set yield
identical ``Graph`` values.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator

from .errors import DomainError, ParseError

GRAPH6_MAX_N = 62
EDGE_LIST_MAX_N = 100_000  # the Graph holds two lists per vertex


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected loopless graph with an indexed vertex set.

    ``adjacency`` and ``incidence`` (edge indices per vertex, in canonical
    edge order) are derived at construction time and excluded from equality.
    They align: edge ``incidence[v][i]`` joins v and ``adjacency[v][i]``, and
    both lists increase because the edges are sorted.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adjacency: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    incidence: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"vertex count must be >= 1, got {self.n}")
        normalized: set[tuple[int, int]] = set()
        for pair in self.edges:
            i, j = pair
            if i == j:
                raise ValueError(f"loop at vertex {i} is not allowed")
            a, b = (i, j) if i < j else (j, i)
            if a < 0 or b >= self.n:
                raise ValueError(f"edge ({i}, {j}) out of range for n={self.n}")
            normalized.add((a, b))
        edges = tuple(sorted(normalized))
        object.__setattr__(self, "edges", edges)
        adj: list[list[int]] = [[] for _ in range(self.n)]
        inc: list[list[int]] = [[] for _ in range(self.n)]
        for idx, (a, b) in enumerate(edges):
            adj[a].append(b)
            adj[b].append(a)
            inc[a].append(idx)
            inc[b].append(idx)
        object.__setattr__(self, "adjacency", tuple(tuple(x) for x in adj))
        object.__setattr__(self, "incidence", tuple(tuple(x) for x in inc))

    @property
    def m(self) -> int:
        return len(self.edges)

    def degree(self, v: int) -> int:
        return len(self.adjacency[v])

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    @property
    def max_degree(self) -> int:
        return max(self.degrees())

    @property
    def min_degree(self) -> int:
        return min(self.degrees())


@dataclass(frozen=True, slots=True)
class GraphClass:
    """Structural facts about a graph, as used by the bound registry.

    ``bipartition`` is present iff the graph is bipartite; parts are sorted
    vertex tuples, determined by BFS 2-coloring with the lowest-index vertex
    of each component placed in the first part. ``biregular_degrees`` is the
    sorted pair of per-part degrees when the graph is bipartite and each part
    has a single degree; an empty part inherits the other part's degree so
    that regular bipartite graphs are always (r, r)-biregular.
    """

    connected: bool
    bipartition: tuple[tuple[int, ...], tuple[int, ...]] | None
    regular_degree: int | None
    triangle_free: bool
    biregular_degrees: tuple[int, int] | None
    max_degree: int
    min_degree: int


def is_connected(g: Graph) -> bool:
    if g.n == 1:
        return True
    seen = [False] * g.n
    seen[0] = True
    queue = deque([0])
    count = 1
    while queue:
        u = queue.popleft()
        for v in g.adjacency[u]:
            if not seen[v]:
                seen[v] = True
                count += 1
                queue.append(v)
    return count == g.n


def require_connected_with_edge(g: Graph) -> None:
    """The domain of interval colorings and of the doubling: at least one
    edge (a coloring needs color 1) and a connected graph."""
    if g.m == 0:
        raise DomainError("graph has no edges; an interval coloring needs at least color 1")
    if not is_connected(g):
        raise DomainError("graph is disconnected")


def _bipartition(g: Graph) -> tuple[tuple[int, ...], tuple[int, ...]] | None:
    side = [-1] * g.n
    for root in range(g.n):
        if side[root] != -1:
            continue
        side[root] = 0
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for v in g.adjacency[u]:
                if side[v] == -1:
                    side[v] = 1 - side[u]
                    queue.append(v)
                elif side[v] == side[u]:
                    return None
    part0 = tuple(v for v in range(g.n) if side[v] == 0)
    part1 = tuple(v for v in range(g.n) if side[v] == 1)
    return (part0, part1)


def _triangle_free(g: Graph) -> bool:
    nbr = [set(a) for a in g.adjacency]
    for a, b in g.edges:
        if nbr[a] & nbr[b]:
            return False
    return True


def classify(g: Graph) -> GraphClass:
    degs = g.degrees()
    delta_max = max(degs)
    delta_min = min(degs)
    regular = delta_max if delta_max == delta_min else None

    bipartition = _bipartition(g)
    biregular: tuple[int, int] | None = None
    if bipartition is not None:
        part_degs = [{degs[v] for v in part} for part in bipartition]
        if all(len(s) <= 1 for s in part_degs):
            d0 = next(iter(part_degs[0])) if part_degs[0] else None
            d1 = next(iter(part_degs[1])) if part_degs[1] else None
            if d0 is None:
                d0 = d1
            if d1 is None:
                d1 = d0
            if d0 is not None and d1 is not None:
                biregular = (d0, d1) if d0 <= d1 else (d1, d0)

    return GraphClass(
        connected=is_connected(g),
        bipartition=bipartition,
        regular_degree=regular,
        triangle_free=_triangle_free(g),
        biregular_degrees=biregular,
        max_degree=delta_max,
        min_degree=delta_min,
    )


# --------------------------------------------------------------------------
# graph6 codec (short form only, 1 <= n <= 62)
#
# Layout: byte 0 is n + 63; the remaining bytes carry the upper triangle of
# the adjacency matrix in column order (0,1),(0,2),(1,2),(0,3),... as a bit
# stream, packed big-endian into 6-bit groups, each stored as group + 63.
# Padding bits must be zero.
# --------------------------------------------------------------------------


def _column_order_pairs(n: int) -> Iterator[tuple[int, int]]:
    for j in range(1, n):
        for i in range(j):
            yield (i, j)


def parse_graph6(text: str) -> Graph:
    if not text:
        raise ParseError("empty graph6 string", offset=0)
    first = ord(text[0])
    if first == 126:
        raise ParseError("long-form graph6 (n > 62) is not supported", offset=0)
    if not 63 <= first <= 125:
        raise ParseError(f"character {text[0]!r} outside graph6 value range", offset=0)
    n = first - 63
    if n == 0:
        raise ParseError("graph on 0 vertices is outside the supported range 1..62", offset=0)
    nbits = n * (n - 1) // 2
    nbytes = (nbits + 5) // 6
    expected = 1 + nbytes
    if len(text) < expected:
        raise ParseError(
            f"truncated: n={n} needs {expected} bytes, got {len(text)}", offset=len(text)
        )
    if len(text) > expected:
        raise ParseError(f"trailing garbage after {expected}-byte encoding", offset=expected)
    bits: list[int] = []
    for pos in range(1, expected):
        value = ord(text[pos])
        if not 63 <= value <= 126:
            raise ParseError(f"character {text[pos]!r} outside graph6 value range", offset=pos)
        value -= 63
        bits.extend((value >> shift) & 1 for shift in (5, 4, 3, 2, 1, 0))
    for extra in range(nbits, len(bits)):
        if bits[extra]:
            raise ParseError("nonzero padding bits", offset=1 + extra // 6)
    edges = [pair for pair, bit in zip(_column_order_pairs(n), bits) if bit]
    return Graph(n, tuple(edges))


def write_graph6(g: Graph) -> str:
    if not 1 <= g.n <= GRAPH6_MAX_N:
        raise DomainError(f"graph6 short form supports 1..{GRAPH6_MAX_N} vertices, got {g.n}")
    present = set(g.edges)
    bits = [1 if pair in present else 0 for pair in _column_order_pairs(g.n)]
    while len(bits) % 6:
        bits.append(0)
    out = [chr(g.n + 63)]
    for k in range(0, len(bits), 6):
        value = 0
        for bit in bits[k : k + 6]:
            value = (value << 1) | bit
        out.append(chr(value + 63))
    return "".join(out)


def parse_edge_list(text: str) -> Graph:
    """Parse the plain edge-list format: first line n, then "i j" lines.

    Blank lines after the first are ignored; duplicate edges collapse.
    """
    lines = text.splitlines()
    if not lines or not lines[0].strip():
        raise ParseError("missing vertex-count line", line=1)
    try:
        n = int(lines[0].strip())
    except ValueError:
        raise ParseError(f"vertex count is not an integer: {lines[0].strip()!r}", line=1) from None
    if not 1 <= n <= EDGE_LIST_MAX_N:
        raise ParseError(f"vertex count must be in 1..{EDGE_LIST_MAX_N}, got {n}", line=1)
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(lines[1:], start=2):
        tokens = raw.split()
        if not tokens:
            continue
        if len(tokens) != 2:
            raise ParseError(f"expected 'i j', got {raw.strip()!r}", line=lineno)
        try:
            i, j = int(tokens[0]), int(tokens[1])
        except ValueError:
            raise ParseError(f"non-numeric token in {raw.strip()!r}", line=lineno) from None
        if i == j:
            raise ParseError(f"loop {i} {j} is not allowed", line=lineno)
        if not (0 <= i < n and 0 <= j < n):
            raise ParseError(f"endpoint out of range in {raw.strip()!r} (n={n})", line=lineno)
        edges.append((i, j))
    return Graph(n, tuple(edges))
