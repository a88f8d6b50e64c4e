from __future__ import annotations

from itertools import combinations

import networkx as nx
from hypothesis import given, settings
from hypothesis import strategies as st

from intervalcolor import (
    EdgeColoring,
    Graph,
    classify,
    compute_W,
    double_graph,
    find_interval_coloring,
    is_connected,
    minimum_adjacency_encoding,
    parse_graph6,
    validate_interval,
    write_graph6,
)
from oracle import brute_force_W


@st.composite
def graphs(draw, max_n: int = 10):
    n = draw(st.integers(min_value=1, max_value=max_n))
    pairs = list(combinations(range(n), 2))
    edges = draw(st.sets(st.sampled_from(pairs)) if pairs else st.just(set()))
    return Graph(n, tuple(edges))


@st.composite
def large_graphs(draw):
    n = draw(st.integers(min_value=1, max_value=62))
    pairs = list(combinations(range(n), 2))
    if not pairs:
        return Graph(n, ())
    count = draw(st.integers(min_value=0, max_value=min(len(pairs), 120)))
    picked = draw(st.permutations(pairs).map(lambda p: p[:count]))
    return Graph(n, tuple(picked))


@st.composite
def connected_graphs(draw, min_n: int = 2, max_n: int = 6):
    """Random spanning tree plus extra edges: connected by construction."""
    n = draw(st.integers(min_value=min_n, max_value=max_n))
    edges = set()
    for v in range(1, n):
        parent = draw(st.integers(min_value=0, max_value=v - 1))
        edges.add((parent, v))
    pairs = list(combinations(range(n), 2))
    extras = draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, tuple(edges | extras))


class TestGraph6Roundtrip:
    @given(large_graphs())
    @settings(max_examples=200)
    def test_parse_write_identity(self, g):
        text = write_graph6(g)
        assert parse_graph6(text) == g
        assert write_graph6(parse_graph6(text)) == text

    @given(large_graphs())
    @settings(max_examples=100)
    def test_matches_networkx_codec(self, g):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        theirs = nx.to_graph6_bytes(nxg, header=False).decode().strip()
        assert write_graph6(g) == theirs
        back = nx.from_graph6_bytes(write_graph6(g).encode())
        assert Graph(g.n, tuple(back.edges())) == g


class TestAdjacencyIndex:
    @given(large_graphs())
    @settings(max_examples=200)
    def test_incidence_aligns_with_adjacency(self, g):
        for v in range(g.n):
            assert len(g.incidence[v]) == len(g.adjacency[v])
            for k, u in zip(g.incidence[v], g.adjacency[v]):
                assert sorted(g.edges[k]) == sorted((v, u))
            assert list(g.adjacency[v]) == sorted(g.adjacency[v])


class TestParserRobustness:
    @given(st.text(max_size=30))
    @settings(max_examples=300)
    def test_arbitrary_text_never_crashes(self, text):
        from intervalcolor import ParseError

        try:
            g = parse_graph6(text)
        except ParseError:
            return
        assert write_graph6(g) == text  # anything accepted must be canonical


class TestValidatorAgainstDefinition:
    @staticmethod
    def reference_verdict(g: Graph, c: EdgeColoring) -> bool:
        """The three defining conditions, restated independently."""
        at_vertex: dict[int, list[int]] = {v: [] for v in range(g.n)}
        for (u, v), color in zip(g.edges, c.colors):
            at_vertex[u].append(color)
            at_vertex[v].append(color)
        for colors in at_vertex.values():
            if len(set(colors)) != len(colors):
                return False
            if colors and max(colors) - min(colors) + 1 != len(colors):
                return False
        return set(c.colors) == set(range(1, c.t + 1))

    @given(graphs(max_n=6), st.data())
    @settings(max_examples=300)
    def test_verdict_matches_reference(self, g, data):
        if g.m == 0:
            return
        t = data.draw(st.integers(min_value=1, max_value=g.m + 2))
        colors = tuple(
            data.draw(st.integers(min_value=1, max_value=t)) for _ in range(g.m)
        )
        c = EdgeColoring(t, colors)
        assert validate_interval(g, c).verdict == self.reference_verdict(g, c)


class TestClassifyConsistency:
    @given(graphs())
    def test_regular_iff_degree_bounds_meet(self, g):
        cls = classify(g)
        if cls.regular_degree is not None:
            assert cls.max_degree == cls.min_degree == cls.regular_degree
        else:
            assert cls.max_degree != cls.min_degree

    @given(graphs())
    def test_bipartite_regular_implies_biregular(self, g):
        cls = classify(g)
        if cls.bipartition is not None and cls.regular_degree is not None:
            assert cls.biregular_degrees == (cls.regular_degree, cls.regular_degree)

    @given(graphs())
    def test_bipartition_covers_and_separates(self, g):
        cls = classify(g)
        if cls.bipartition is None:
            return
        part0, part1 = cls.bipartition
        assert sorted(part0 + part1) == list(range(g.n))
        side = {v: 0 for v in part0} | {v: 1 for v in part1}
        for a, b in g.edges:
            assert side[a] != side[b]

    @given(graphs(max_n=7))
    def test_connectivity_matches_networkx(self, g):
        nxg = nx.Graph()
        nxg.add_nodes_from(range(g.n))
        nxg.add_edges_from(g.edges)
        cls = classify(g)
        assert is_connected(g) == cls.connected == nx.is_connected(nxg)
        assert (cls.bipartition is not None) == nx.is_bipartite(nxg)


class TestValidatorInvariance:
    @given(connected_graphs(), st.randoms(use_true_random=False))
    @settings(max_examples=40, deadline=None)
    def test_relabeling_preserves_verdict(self, g, rng):
        out = compute_W(g)
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph(g.n, tuple((perm[a], perm[b]) for a, b in g.edges))
        if not out.interval_colorable:
            return
        colors_by_edge = {
            (min(perm[a], perm[b]), max(perm[a], perm[b])): c
            for (a, b), c in zip(g.edges, out.witness.colors)
        }
        moved = EdgeColoring(out.w, tuple(colors_by_edge[e] for e in relabeled.edges))
        assert validate_interval(relabeled, moved).verdict

    @given(connected_graphs())
    @settings(max_examples=40, deadline=None)
    def test_valid_coloring_color_counts(self, g):
        out = compute_W(g)
        if not out.interval_colorable:
            return
        t = out.w
        assert classify(g).max_degree <= t <= g.m
        for v in range(g.n):
            s = sorted({out.witness.colors[k] for k in g.incidence[v]})
            assert s[-1] - s[0] + 1 == len(g.adjacency[v])


# Oracle answers per isomorphism class (W and colorability are invariants),
# so each class is enumerated at most once per session.
_ORACLE: dict[tuple[int, ...], tuple[bool | None, int | None]] = {}


def _oracle_answer(g: Graph) -> tuple[bool | None, int | None]:
    key = minimum_adjacency_encoding(g)
    if key not in _ORACLE:
        bf = brute_force_W(g, min(g.m, 8))
        _ORACLE[key] = (bf.interval_colorable, bf.w)
    return _ORACLE[key]


class TestSolverProperties:
    @given(connected_graphs(max_n=5))
    @settings(max_examples=40, deadline=None)
    def test_agrees_with_oracle(self, g):
        cw = compute_W(g)
        colorable, w = _oracle_answer(g)
        assert cw.interval_colorable == colorable
        assert cw.w == w

    @given(connected_graphs(max_n=6))
    @settings(max_examples=30, deadline=None)
    def test_found_witnesses_always_validate(self, g):
        out = compute_W(g)
        if out.interval_colorable:
            assert validate_interval(g, out.witness).verdict
            again = find_interval_coloring(g, out.w)
            assert again.witness == out.witness


class TestDoublingProperties:
    @given(connected_graphs(min_n=2, max_n=6))
    @settings(max_examples=50, deadline=None)
    def test_structure(self, g):
        d = double_graph(g)
        assert d.h.n == 2 * g.n
        assert d.h.m == 2 * g.m + g.n
        assert is_connected(d.h)
        cls = classify(d.h)
        assert cls.bipartition is not None
        src = classify(g)
        if src.regular_degree is not None:
            assert cls.regular_degree == src.regular_degree + 1


class TestCanonicalForm:
    @given(connected_graphs(max_n=6), st.randoms(use_true_random=False))
    def test_relabeling_invariant(self, g, rng):
        perm = list(range(g.n))
        rng.shuffle(perm)
        relabeled = Graph(g.n, tuple((perm[a], perm[b]) for a, b in g.edges))
        assert minimum_adjacency_encoding(relabeled) == minimum_adjacency_encoding(g)
