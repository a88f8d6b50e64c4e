from __future__ import annotations

import hashlib
import random
from itertools import permutations

import networkx as nx
import pytest
from networkx.generators.atlas import graph_atlas_g

from intervalcolor import (
    DomainError,
    Graph,
    generate_connected_catalog,
    is_connected,
    minimum_adjacency_encoding,
    write_graph6,
)
from intervalcolor import _reference, solver
from intervalcolor._reference import _min_code_py
from conftest import force_python_path
from smallgraphs import c4, code_from_edges, k3, k4, p4, star

KNOWN_CONNECTED_COUNTS = {1: 1, 2: 1, 3: 2, 4: 6, 5: 21, 6: 112, 7: 853, 8: 11117}  # OEIS A001349
# sha256 of the n = 8 catalog's graph6 lines joined by newlines; checked
# once against the Python reference, which takes about 15 s for it.
N8_SHA256 = "28b9222da489bdd97eff49da6a8d2aed76ac19453b4b69ece911cb3dd855c398"


def masks_of(g: Graph) -> list[int]:
    masks = [0] * g.n
    for a, b in g.edges:
        masks[a] |= 1 << b
        masks[b] |= 1 << a
    return masks


def seeded_graphs(seed: int, count: int, max_n: int) -> list[Graph]:
    rng = random.Random(seed)
    graphs = []
    for _ in range(count):
        n = rng.randint(1, max_n)
        p = rng.random()
        pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
        graphs.append(Graph(n, tuple(pairs)))
    return graphs


def naive_minimum_encoding(g: Graph) -> tuple[int, ...]:
    """Reference: scan all n! orderings literally."""
    n = g.n
    present = set(g.edges)
    best = None
    for perm in permutations(range(n)):
        inverse = [0] * n
        for old, new in enumerate(perm):
            inverse[new] = old
        bits = []
        for j in range(1, n):
            for i in range(j):
                a, b = inverse[i], inverse[j]
                bits.append(1 if (min(a, b), max(a, b)) in present else 0)
        candidate = tuple(bits)
        if best is None or candidate < best:
            best = candidate
    return best or ()


class TestMinimumEncoding:
    def test_matches_naive_scan(self):
        for g in (k3(), p4(), c4(), star(3), k4(), Graph(5, ((0, 1), (1, 2), (0, 2), (2, 3)))):
            assert minimum_adjacency_encoding(g) == naive_minimum_encoding(g)
        for g in seeded_graphs(seed=7, count=40, max_n=6):
            assert minimum_adjacency_encoding(g) == naive_minimum_encoding(g), g.edges

    def test_isomorphism_invariant(self):
        g = Graph(5, ((0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3)))
        enc = minimum_adjacency_encoding(g)
        for perm in permutations(range(5)):
            relabeled = Graph(5, tuple((perm[a], perm[b]) for a, b in g.edges))
            assert minimum_adjacency_encoding(relabeled) == enc

    def test_distinguishes_classes(self):
        assert minimum_adjacency_encoding(c4()) != minimum_adjacency_encoding(star(3))

    def test_single_vertex(self):
        assert minimum_adjacency_encoding(Graph(1, ())) == ()


class TestExtend:
    """One catalog level: the kernel's ``extend`` against its Python twin's."""

    # Children that pass the minimum-degree non-cut filter, and so are
    # canonicalised, at sizes 2..7; all 7,815 candidates were before it.
    KEPT = {2: 1, 3: 3, 4: 11, 5: 48, 6: 248, 7: 1868}

    def test_kernel_loads_here(self):
        # Without it the tests below would compare the Python level with itself.
        assert solver._native() is not _reference

    def test_kernel_agrees_on_seeded_parents(self):
        # Each parent is a seeded graph on 1..8 vertices, connected or not,
        # so that the children are not all catalog ones. Edge densities
        # start at 1/4: sparse 9-vertex children take the Python search
        # about 0.5 s each.
        kernel = solver._native()
        rng = random.Random(2010)
        for _ in range(120):
            size, p = rng.randint(2, 9), rng.uniform(0.25, 1)
            pairs = [(i, j) for j in range(size - 1) for i in range(j) if rng.random() < p]
            parent = tuple(masks_of(Graph(size - 1, tuple(pairs))))
            native = kernel.extend(size, [parent])
            assert list(native.items()) == list(_reference.extend(size, [parent]).items()), parent

    def test_kernel_agrees_past_64_code_bits(self):
        # K11 plus a vertex: 66 code bits, past one C integer, and a search
        # kept short by the twins on each side of the new vertex.
        parent = tuple(((1 << 11) - 1) & ~(1 << v) for v in range(11))
        native = solver._native().extend(12, [parent])
        assert list(native.items()) == list(_reference.extend(12, [parent]).items())
        assert len(native) == 11 and max(native).bit_length() == 66

    def test_kernel_agrees_on_symmetric_parents(self):
        # The kernel canonicalises one child per orbit of the parent's
        # automorphisms, which it takes from the parent's canonical search
        # and its twin swaps; these parents have large groups. Every vertex
        # of an edgeless or complete graph is a twin of every other; a
        # cycle, the cube and the 3 x 3 rook's graph have no twins, and the
        # rook's graph's search meets more equal-code leaves than the
        # kernel keeps.
        def shape(n, edges):
            return n, tuple(masks_of(Graph(n, tuple(edges))))

        def cycle(n):
            return shape(n, [(i, (i + 1) % n) for i in range(n)])

        def complete_bipartite(a, b):
            return shape(a + b, [(i, a + j) for i in range(a) for j in range(b)])

        def union(*parts):
            n, edges = 0, []
            for size, masks in parts:
                edges += [(n + a, n + b) for a in range(size) for b in range(a) if masks[a] >> b & 1]
                n += size
            return shape(n, edges)

        edgeless = [shape(n, []) for n in range(1, 9)]
        complete = [shape(n, [(i, j) for j in range(n) for i in range(j)]) for n in range(1, 10)]
        stars = [shape(n, [(0, i) for i in range(1, n)]) for n in range(2, 8)]
        cycles = [cycle(n) for n in range(3, 9)]
        bipartite = [complete_bipartite(a, b) for a in range(1, 5) for b in range(a, 9 - a)]
        k2, k3, k1 = complete[1], complete[2], edgeless[0]
        unions = [union(k2, k2), union(k2, k2, k2), union(k3, k3, k1), union(k3, k1, k1),
                  union(cycles[1], cycles[1]), union(stars[2], stars[2]), union(k1, cycles[2])]
        cube = shape(8, [(i, i ^ 1 << d) for i in range(8) for d in range(3) if i < i ^ 1 << d])
        rook = shape(9, [(i, j) for j in range(9) for i in range(j) if i // 3 == j // 3 or i % 3 == j % 3])
        parents = [*edgeless, *complete, *stars, *cycles, *bipartite, *unions, cube, rook]
        kernel = solver._native()
        for n, masks in parents:
            native = kernel.extend(n + 1, [masks])
            assert list(native.items()) == list(_reference.extend(n + 1, [masks]).items()), masks
        # Several symmetric parents in one call, as a catalog level passes
        # them: the marks of one parent's orbits must not carry over.
        level = [masks for _, masks in (cycle(6), complete_bipartite(3, 3), complete_bipartite(1, 5),
                                        union(k3, k3), complete[5], edgeless[5])]
        assert list(kernel.extend(7, level).items()) == list(_reference.extend(7, level).items())

    def test_an_edgeless_parent_of_twelve_vertices(self):
        # Each subset S of an edgeless parent gives a child isomorphic to
        # that of any other subset of |S| vertices, so the result is the
        # reference's on the least subset of each size; the reference takes
        # about a minute over all 4,095 subsets, the kernel one child per size.
        native = solver._native().extend(13, [(0,) * 12])
        expected = {}
        for k in range(1, 13):
            child = (*([1 << 12] * k), *([0] * (12 - k)), (1 << k) - 1)
            if _reference._lowest_non_cut_last(child):
                expected.setdefault(_min_code_py(13, child), child)
        assert list(native.items()) == list(expected.items())
        assert len(native) == 10

    def test_twins_collapse_the_widest_masks(self):
        # Every vertex of an edgeless or complete graph is a twin of every
        # other, so one ordering is searched, at any n.
        for n in (64, 65):
            complete = [((1 << n) - 1) & ~(1 << v) for v in range(n)]
            size = n * (n - 1) // 2
            assert _min_code_py(n, [0] * n) == 0
            assert _min_code_py(n, complete) == (1 << size) - 1

    def test_kernel_agrees_on_every_level(self):
        kernel = solver._native()
        level = {0: (0,)}
        for size in range(2, 8):
            grown = _reference.extend(size, level.values())
            native = kernel.extend(size, level.values())
            assert list(native.items()) == list(grown.items()), size
            assert len(grown) == KNOWN_CONNECTED_COUNTS[size]
            level = grown

    def test_kept_children_per_level(self, monkeypatch):
        calls = []

        def counted(n, masks):
            calls.append(n)
            return _min_code_py(n, masks)

        monkeypatch.setattr(_reference, "_min_code_py", counted)
        level = {0: (0,)}
        for size in range(2, 8):
            level = _reference.extend(size, level.values())
        assert {size: calls.count(size) for size in range(2, 8)} == self.KEPT

    def test_kernel_rejects_bad_input(self):
        kernel = solver._native()
        bad = [
            (3, [(1, 1)]),  # vertex 0's mask holds its own bit
            (3, [(2, 5)]),  # a mask at 1 << (size - 1)
            (3, [(2,)]),  # a parent of the wrong length
            (3, [(2, 1, 0)]),
            (3, [(2.0, 1)]),  # not an int
            (3, [(-1, 1)]),
            (3, [[2, 1], "ab"]),
            (1, [()]),  # size out of range
            (65, [(0,) * 64]),
        ]
        for size, parents in bad:
            with pytest.raises(ValueError):
                kernel.extend(size, parents)


class TestCatalog:
    def test_counts(self, catalogs):
        for n in range(1, 7):
            assert len(catalogs[n]) == KNOWN_CONNECTED_COUNTS[n]
        assert sum(1 for _ in generate_connected_catalog(7)) == KNOWN_CONNECTED_COUNTS[7]

    def test_n8_count_and_digest(self):
        if solver._native() is _reference:
            pytest.skip("n = 8 takes about 15 s without the kernel")
        lines = [write_graph6(g) for g in generate_connected_catalog(8)]
        assert len(lines) == KNOWN_CONNECTED_COUNTS[8]
        assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == N8_SHA256

    def test_python_reference_gives_the_same_catalogs(self, catalogs, monkeypatch):
        native_seven = list(generate_connected_catalog(7))
        force_python_path(monkeypatch)
        for n in range(1, 7):
            assert list(generate_connected_catalog(n)) == catalogs[n]
        assert list(generate_connected_catalog(7)) == native_seven

    def test_all_connected_with_right_order(self, catalogs):
        for n, graphs in catalogs.items():
            for g in graphs:
                assert g.n == n
                assert is_connected(g)

    def test_representatives_are_canonical(self, catalogs):
        # Each representative's own code is the minimum over its class.
        graphs = [g for n in range(1, 7) for g in catalogs[n]]
        graphs += generate_connected_catalog(7)
        assert len(graphs) == 996
        for g in graphs:
            code = code_from_edges(g.n, g.edges)
            assert code == _min_code_py(g.n, masks_of(g)), g.edges

    def test_deterministic_and_sorted(self):
        first = [g.edges for g in generate_connected_catalog(5)]
        second = [g.edges for g in generate_connected_catalog(5)]
        assert first == second
        encs = [minimum_adjacency_encoding(g) for g in generate_connected_catalog(5)]
        assert encs == sorted(encs)

    def test_guard(self):
        # Checked at the call, not at the first graph taken.
        with pytest.raises(DomainError, match="n <= 8; .* graph6 stream"):
            generate_connected_catalog(9)
        with pytest.raises(DomainError, match="n >= 1 vertices, got 0"):
            generate_connected_catalog(0)

    def test_pairwise_distinct_encodings(self, catalogs):
        encs = [minimum_adjacency_encoding(g) for g in catalogs[6]]
        assert len(set(encs)) == len(encs)


@pytest.fixture(scope="module")
def atlas_by_n():
    buckets: dict[int, list] = {n: [] for n in range(1, 8)}
    for G in graph_atlas_g()[1:]:  # entry 0 is the empty graph
        n = G.number_of_nodes()
        if nx.is_connected(G):
            buckets[n].append(G)
    return buckets


class TestAgainstNetworkxAtlas:
    """The published atlas of all graphs on up to 7 vertices is an
    independent census; its connected members must match ours exactly."""

    def test_connected_counts_match(self, atlas_by_n):
        for n, graphs in atlas_by_n.items():
            assert len(graphs) == KNOWN_CONNECTED_COUNTS[n]

    def test_isomorphism_classes_match(self, atlas_by_n):
        for n in range(1, 8):
            mine = {minimum_adjacency_encoding(g) for g in generate_connected_catalog(n)}
            theirs = {
                minimum_adjacency_encoding(
                    Graph(n, tuple((min(a, b), max(a, b)) for a, b in G.edges()))
                )
                for G in atlas_by_n[n]
            }
            assert mine == theirs
