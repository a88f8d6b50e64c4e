"""Exhaustive small-graph catalogs, one representative per isomorphism class.

Deduplication uses the minimum adjacency-matrix encoding over all n! vertex
orderings: the upper-triangle bits in column order (0,1),(0,2),(1,2),...
compared lexicographically. Column order matches the graph6 bit layout, so
the canonical representative also has the lexicographically smallest graph6
body of its class. Internally the encoding is one integer, the bits read
MSB-first (``graph._code_from_edges``), so comparing integers compares the
bit strings.

The minimum is found exactly by a depth-first search over vertex orderings.
Vertex k of the ordering contributes the k bits (0,k),...,(k-1,k), its
segment; candidates are tried in increasing (segment, index) order, and a
level stops at the first candidate whose prefix already exceeds the
incumbent, since every later one is at least as large. One more cut skips
candidate x when a lower-indexed unplaced vertex y is its twin,
N(x) - y = N(y) - x. Swapping x and y is then an automorphism that fixes
every placed vertex, so it maps the orderings that place x next one-to-one
onto those that place y next with the same encodings. y has x's segment and
comes first, so its subtree is searched, or cut by the prune that would cut
x's; the minimum is unchanged. This search is ``_reference._min_code_py``
in Python, and a routine of the compiled kernel's ``extend`` in C.

The catalog on n vertices is built level by level. Each level extends every
class of the level below, its parent, by a new vertex joined to a nonempty
subset S of the parent's vertices, and keeps one child per code. Only
children that pass a filter are canonicalised. For a vertex v let
f(v) = (deg v, -sum of deg u over the neighbours u of v), compared
lexicographically; a child is kept only when no non-cut vertex u (one whose
removal leaves the child connected) has f(u) < f(new vertex). Ties are
kept.

Every class is still reached. Let G be a connected graph on n vertices and
v a non-cut vertex that minimises f among the non-cut vertices; one exists,
since a leaf of a spanning tree is a non-cut vertex. G - v is connected, so
it is isomorphic to a parent P of the level below. So G is isomorphic to
the child of P and some S with v mapped to the new vertex. f and being a
cut vertex are invariant under isomorphism, so no non-cut vertex of that
child has a smaller f than the new vertex, and it passes. The codes stay
exact, so the catalog is the same with or without the filter. Both parts of
the test are needed: without the non-cut condition the n = 7 catalog loses
a class, and with strict ties every level is empty.

One level is the kernel's ``extend`` (``solver._native``). Its C loop and
the Python twin's (``_reference.extend``, with the filter
``_lowest_non_cut_last``) go through the parents, and each parent's
subsets, in the same order, and both canonicalise with the search above.
The Python loop canonicalises every child that passes the filter: up to
n = 7, 2,179 of the 7,815 children.

The C loop canonicalises one child per orbit of the parent's
automorphisms, the first rule of canonical augmentation (McKay,
"Isomorph-free exhaustive generation", J. Algorithms 1998). It runs the
search above on each parent P first and takes automorphisms from two
sources. Two leaves with P's minimum code give one: the vertex at position
i of one ordering maps to the vertex at position i of the other. Each
vertex x with a lower twin y gives the swap of x and y. With G the group
these generate, the C loop goes through the subsets S in increasing order,
canonicalises the child of S only when no earlier subset lies in S's
G-orbit, and then marks that orbit. The two dicts are still equal item
for item, insertion order included. If S = g(S') for some g in G, then g,
with the new vertex fixed, maps the child of S' onto the child of S: it
keeps P's edges, and it maps the new vertex's neighbours S' onto S. So the
two children have the same code and the same filter verdict, since f and
being a cut vertex are invariant under isomorphism. Hence the first child
found with a code, in the order both share, comes from the least subset
of its orbit, as an earlier subset of that orbit would have given the
code earlier; and every child the C loop skips has a code found before
it. So both keep the same first child per code, in the same order. Any
subgroup of the automorphisms keeps this true, so the C loop may keep
only some of the leaves. At the n = 7 level the Python loop canonicalises
1,868 children and the C loop 903, plus its 112 parents; at n = 8,
20,286 against 12,113, plus 853 parents.

On a 2-core Xeon (Python 3.11) the n = 7 catalog takes about 8 ms in C
and 0.6 s in Python, and n = 8 about 0.17 s and 15 s.
"""

from __future__ import annotations

from typing import Iterator

from . import solver
from .errors import DomainError
from .graph import Graph, _edges_from_code

CATALOG_MAX_N = 8


def minimum_adjacency_encoding(g: Graph) -> tuple[int, ...]:
    """Exact minimum of the column-order upper-triangle bits over all vertex
    orderings; returns the flat bit tuple (length n(n-1)/2). Generation no
    longer calls it; ``bench/run.py`` wraps it by name, so it stays. It runs
    the canonical search in Python (``_reference._min_code_py``), so it
    imports ``_reference`` when called."""
    from . import _reference  # the kernel has no entry for one graph's code

    code = _reference._min_code_py(g.n, [sum(1 << u for u in nbrs) for nbrs in g.adjacency])
    return tuple((code >> shift) & 1 for shift in range(g.n * (g.n - 1) // 2 - 1, -1, -1))


def generate_connected_catalog(n: int) -> Iterator[Graph]:
    """All connected graphs on n vertices, one canonical representative per
    isomorphism class, in increasing canonical-encoding order.

    Built level by level with the kernel's ``extend``; see the module
    docstring. Guarded at n <= 8 (11,117 classes); pipe in an external
    graph6 stream for anything larger. n is checked, and the catalog built,
    when this is called, before the first graph is taken.
    """
    if n < 1:
        raise DomainError(f"a catalog needs n >= 1 vertices, got {n}")
    if n > CATALOG_MAX_N:
        raise DomainError(
            f"catalog generation is guarded at n <= {CATALOG_MAX_N}; "
            "feed larger catalogs from an external graph6 stream"
        )
    level: dict[int, tuple[int, ...]] = {0: (0,)}  # code -> adjacency masks
    for size in range(2, n + 1):
        level = solver._native().extend(size, level.values())
    return (Graph(n, _edges_from_code(n, code)) for code in sorted(level))
