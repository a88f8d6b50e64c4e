"""Graph representation, structural classification, and graph6 / edge-list I/O.

Vertices are 0-based everywhere. The edge list is canonical: each edge is
stored as ``(i, j)`` with ``i < j``, deduplicated, and sorted
lexicographically, so any two construction paths to the same edge set yield
identical ``Graph`` values.

A ``Graph``'s canonical edges have two builders, chosen at construction
time through ``solver._native()``: the compiled kernel's ``index_graph``
(``_search.c``), which runs first wherever it loads, and ``_index_py``, the
reference. The kernel takes exact ints in exact lists or tuples only and
returns None for any input it does not accept (a loop, an endpoint out of
range, n < 1, a pair of other than two entries, anything that is not an
int); ``_index_py`` then runs, so every error, and every input the kernel
leaves alone, is handled as by the Python code alone. Both give equal
edges, and both use the shared tuples of ``_PAIRS``. ``adjacency`` and
``incidence`` are built on first use, from the canonical edges, by
``_index_lists`` on either path: the kernel's entries take ``n`` and
``edges``, so a survey builds them for no graph.

``classify`` is chosen the same way on a graph's first call, and the graph
keeps its class as it keeps its lists: the kernel's ``classify``, one BFS,
a triangle test by merging sorted neighbour lists and the degree extremes
in C, or ``_classify_py``, the reference, with equal ``GraphClass`` fields.
The reference runs only without the kernel, so it lives in ``_reference``,
which ``classify`` imports only then; ``_index_py`` stays here, since it
raises every error on either path. ``classify`` gives ``is_connected``,
``max_degree`` and the domain guard their facts.

``GraphClass`` is a ``NamedTuple`` (see the package docstring); ``Graph``
is a frozen dataclass.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from typing import Iterable, NamedTuple

from .errors import DomainError, ParseError

GRAPH6_MAX_N = 62
EDGE_LIST_MAX_N = 100_000  # the Graph holds two lists per vertex

# One shared tuple per vertex pair (a, b), a < b < 64, at _PAIRS[b][a]: the
# edges of graphs this small are then no tuples of their own, which counts
# where many graphs are kept (a survey's certificates).
_PAIRS = tuple(tuple((a, b) for a in range(b)) for b in range(64))


@dataclass(frozen=True, slots=True)
class Graph:
    """Simple undirected loopless graph with an indexed vertex set.

    A dataclass, not a ``NamedTuple``: construction makes the edges
    canonical through ``index_graph`` or ``_index_py``, and the caches below
    are fields that equality, hashing and repr leave out.

    ``adjacency`` and ``incidence`` (edge indices per vertex, in canonical
    edge order) are built on first use and kept in ``_lists``, and
    ``classify``'s class in ``_class``; both are excluded from equality,
    hashing and repr. The lists align: edge ``incidence[v][i]`` joins v and
    ``adjacency[v][i]``, and both increase because the edges are sorted.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    _lists: tuple[tuple, tuple] | None = field(default=None, init=False, compare=False, repr=False)
    _class: GraphClass | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        kernel = solver._native()
        edges = None if kernel is None else kernel.index_graph(self.n, self.edges, _PAIRS)
        if edges is None:
            object.__setattr__(self, "n", operator.index(self.n))
            edges = _index_py(self.n, self.edges)
        object.__setattr__(self, "edges", edges)

    def _index(self) -> tuple[tuple, tuple]:
        if self._lists is None:
            object.__setattr__(self, "_lists", _index_lists(self.n, self.edges))
        return self._lists

    @property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        return self._index()[0]

    @property
    def incidence(self) -> tuple[tuple[int, ...], ...]:
        return self._index()[1]

    @property
    def m(self) -> int:
        return len(self.edges)

    def degrees(self) -> tuple[int, ...]:
        return tuple(len(nbrs) for nbrs in self.adjacency)

    @property
    def max_degree(self) -> int:
        return classify(self).max_degree


def _index_py(n: int, edges: Iterable) -> tuple[tuple[int, int], ...]:
    """``Graph``'s canonical edges, of plain ints, in Python: the reference
    for the kernel's ``index_graph``, and the source of every error."""
    if n < 1:
        raise ValueError(f"vertex count must be >= 1, got {n}")
    normalized: set[tuple[int, int]] = set()
    for pair in edges:
        i, j = map(operator.index, pair)
        if i == j:
            raise ValueError(f"loop at vertex {i} is not allowed")
        a, b = (i, j) if i < j else (j, i)
        if a < 0 or b >= n:
            raise ValueError(f"edge ({i}, {j}) out of range for n={n}")
        normalized.add(_PAIRS[b][a] if b < 64 else (a, b))
    return tuple(sorted(normalized))


def _index_lists(n: int, edges: tuple[tuple[int, int], ...]) -> tuple[tuple, tuple]:
    """The adjacency and incidence of the graph on n vertices with the
    canonical ``edges``, for ``Graph`` on either path. The neighbours are the
    edges' own ints, and each edge index one int at both ends."""
    adj: list[list[int]] = [[] for _ in range(n)]
    inc: list[list[int]] = [[] for _ in range(n)]
    for idx, (a, b) in enumerate(edges):
        adj[a].append(b)
        adj[b].append(a)
        inc[a].append(idx)
        inc[b].append(idx)
    return tuple(map(tuple, adj)), tuple(map(tuple, inc))


class GraphClass(NamedTuple):
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
    return classify(g).connected


def _domain_fault(g: Graph, connected: bool) -> str | None:
    """Why g lies outside the domain of interval colorings and of the
    doubling, or None inside it. The domain is the connected graphs with at
    least one edge (a coloring needs color 1); ``connected`` is g's."""
    if g.m == 0:
        return "graph has no edges; an interval coloring needs at least color 1"
    if not connected:
        return "graph is disconnected"
    return None


def require_connected_with_edge(g: Graph) -> GraphClass:
    """g's ``classify``, or DomainError for a g outside the domain
    (``_domain_fault``)."""
    cls = classify(g)
    fault = _domain_fault(g, cls.connected)
    if fault:
        raise DomainError(fault)
    return cls


def classify(g: Graph) -> GraphClass:
    """g's ``GraphClass``, computed on g's first call and kept on g: by the
    kernel's ``classify`` where it loads (``solver._native``), and by
    ``_reference._classify_py``, the reference, elsewhere; the two give
    equal fields."""
    if g._class is None:
        kernel = solver._native()
        if kernel is None:
            from . import _reference  # only a process without the kernel needs it

            cls = _reference._classify_py(g)
        else:
            cls = GraphClass._make(kernel.classify(g.n, g.edges))
        object.__setattr__(g, "_class", cls)
    return g._class


# --------------------------------------------------------------------------
# Column-order code and graph6 (short form only, 1 <= n <= 62)
#
# The code of an edge set on n vertices is the upper triangle of its
# adjacency matrix in column order (0,1),(0,2),(1,2),(0,3),... as
# n(n-1)/2 bits, read MSB-first as one integer, so comparing codes compares
# the bit strings. The catalog's canonical form is the minimum code.
#
# A graph6 string is byte n + 63 and then the code, shifted left over up to
# five zero padding bits to a multiple of six and cut into 6-bit groups,
# most significant first, each stored as group + 63.
# --------------------------------------------------------------------------


def _code_from_edges(n: int, edges: Iterable[tuple[int, int]]) -> int:
    """The code of distinct edges (i, j), i < j."""
    top = n * (n - 1) // 2 - 1
    return sum(1 << (top - j * (j - 1) // 2 - i) for i, j in edges)


# The pairs in column order, shared: the column order on n vertices is a
# prefix of that on more, so bit k of any code, counted from the top, is the
# pair _COLUMN[k].
_COLUMN = tuple(_PAIRS[j][i] for j in range(1, 64) for i in range(j))


def _edges_from_code(n: int, code: int) -> tuple[tuple[int, int], ...]:
    """The edges of a code, in column order: its set bits, most significant
    first."""
    top = n * (n - 1) // 2 - 1
    edges = []
    while code:
        bit = code.bit_length() - 1
        edges.append(_COLUMN[top - bit])
        code ^= 1 << bit
    return tuple(edges)


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
    expected = 1 + (nbits + 5) // 6
    if len(text) < expected:
        raise ParseError(
            f"truncated: n={n} needs {expected} bytes, got {len(text)}", offset=len(text)
        )
    if len(text) > expected:
        raise ParseError(f"trailing garbage after {expected}-byte encoding", offset=expected)
    body = 0
    for pos in range(1, expected):
        value = ord(text[pos])
        if not 63 <= value <= 126:
            raise ParseError(f"character {text[pos]!r} outside graph6 value range", offset=pos)
        body = (body << 6) | (value - 63)
    padding = 6 * (expected - 1) - nbits
    if body & ((1 << padding) - 1):
        raise ParseError("nonzero padding bits", offset=expected - 1)  # all in the last byte
    return Graph(n, _edges_from_code(n, body >> padding))


def write_graph6(g: Graph) -> str:
    if not 1 <= g.n <= GRAPH6_MAX_N:
        raise DomainError(f"graph6 short form supports 1..{GRAPH6_MAX_N} vertices, got {g.n}")
    nbits = g.n * (g.n - 1) // 2
    groups = (nbits + 5) // 6
    body = _code_from_edges(g.n, g.edges) << (6 * groups - nbits)
    return chr(g.n + 63) + "".join(chr((body >> 6 * k & 63) + 63) for k in reversed(range(groups)))


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


# Last, since solver imports this module and needs the names above.
from . import solver  # noqa: E402
