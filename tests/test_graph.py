from __future__ import annotations

import copy
import pickle
import random

import numpy as np
import pytest

from intervalcolor import (
    DomainError,
    Graph,
    ParseError,
    classify,
    is_connected,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from intervalcolor import GraphClass, compute_W, generate_connected_catalog, graph, run_survey, solver
from intervalcolor import _reference
from intervalcolor._reference import _classify_py
from intervalcolor.graph import (
    EDGE_LIST_MAX_N,
    GRAPH6_MAX_N,
    _PAIRS,
    _edges_from_code,
    _index_lists,
    _index_py,
)
from conftest import force_python_path
from smallgraphs import MOST_EDGES, ClaimedEdges, c4, code_from_edges, k1, k2, k3, two_k2


class TestGraphConstruction:
    def test_edges_are_normalized_and_sorted(self):
        g = Graph(4, ((3, 1), (0, 2), (1, 3), (2, 0), (0, 1)))
        assert g.edges == ((0, 1), (0, 2), (1, 3))

    def test_same_edge_set_same_graph(self):
        a = Graph(3, ((1, 2), (0, 1)))
        b = Graph(3, ((0, 1), (2, 1), (1, 0)))
        assert a == b

    def test_loop_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            Graph(2, ((0, 0),))

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="out of range"):
            Graph(2, ((0, 2),))

    def test_adjacency_and_incidence(self):
        g = c4()
        assert g.adjacency[0] == (1, 3)
        assert g.incidence[0] == (0, 1)  # edges (0,1) and (0,3)
        assert g.m == 4
        assert g.degrees()[2] == 2


def index_on_both_paths(n, edges) -> tuple:
    """The kernel's ``index_graph`` and ``_index_py`` on one input, which
    must give equal edges with each edge (a, b), b < 64, the shared
    ``_PAIRS[b][a]``; returns the edges and the adjacency and incidence
    ``Graph`` derives from them."""
    native = solver._native().index_graph(n, edges, _PAIRS)
    reference = _index_py(n, edges)
    assert native == reference, (n, edges)
    for built in (native, reference):
        assert all(e is _PAIRS[e[1]][e[0]] for e in built if e[1] < 64), (n, edges)
    return (native, *_index_lists(n, native))


def lists_by_definition(g: Graph) -> tuple:
    """g's adjacency and incidence by their definition: per vertex, its
    neighbours in increasing order and the indices of the edges to them."""
    at = {v: [] for v in range(g.n)}
    for idx, (a, b) in enumerate(g.edges):
        at[a].append((b, idx))
        at[b].append((a, idx))
    rows = [sorted(at[v]) for v in range(g.n)]
    return (
        tuple(tuple(u for u, _ in row) for row in rows),
        tuple(tuple(idx for _, idx in row) for row in rows),
    )


def on_both_paths(build) -> Graph:
    """build() with and without the kernel, which must give equal graphs."""
    built = []
    for native in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not native:
                force_python_path(patch)
            built.append(build())
    assert built[0] == built[1]
    return built[0]


def raised_on_both_paths(n, edges) -> type:
    """The type of the exception Graph(n, edges) raises with and without the
    kernel, which must agree, message and all; the kernel's entry itself
    declines the input."""
    assert solver._native().index_graph(n, edges, _PAIRS) is None, (n, edges)
    seen = []
    for native in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not native:
                force_python_path(patch)
            with pytest.raises(Exception) as info:
                Graph(n, edges)
        seen.append((type(info.value), str(info.value)))
    assert seen[0] == seen[1], (n, edges)
    return seen[0][0]


class TestNativeIndex:
    """The kernel's ``index_graph`` against ``_index_py``, the reference."""

    def test_agrees_on_the_catalogs_in_any_edge_order(self, catalogs):
        graphs = [g for n in range(1, 7) for g in catalogs[n]]
        graphs += generate_connected_catalog(7)
        rng = random.Random(7)
        for g in graphs:
            flipped = [(b, a) if rng.random() < 0.5 else (a, b) for a, b in g.edges]
            rng.shuffle(flipped)
            for edges in (g.edges[::-1], tuple(flipped), [*g.edges, *flipped]):
                assert index_on_both_paths(g.n, edges) == (g.edges, g.adjacency, g.incidence)
        assert len(graphs) == 1 + 1 + 2 + 6 + 21 + 112 + 853

    def test_agrees_on_random_edge_lists_across_the_shared_pairs(self):
        rng = random.Random(14)
        for n in range(1, 81):
            for _ in range(4):
                edges = []
                for _ in range(rng.randrange(3 * n + 1)):
                    a, b = rng.sample(range(n), 2) if n > 1 else (0, 0)
                    if a != b:
                        edges.append([a, b] if rng.random() < 0.2 else (a, b))
                index_on_both_paths(n, edges)
                index_on_both_paths(n, tuple(edges))

    def test_agrees_on_a_long_path(self):
        n = EDGE_LIST_MAX_N
        edges, adjacency, incidence = index_on_both_paths(n, [(i + 1, i) for i in range(n - 1)])
        assert len(edges) == n - 1 and adjacency[1] == (0, 2) and incidence[n - 1] == (n - 2,)
        # One int per vertex: both ends of an edge are the neighbours' ints.
        assert edges[-1][0] is adjacency[n - 1][0] and edges[-1][1] is adjacency[n - 2][1]

    def test_a_graph_takes_the_kernel_path(self, monkeypatch):
        def refuse(n, edges):
            raise AssertionError("the kernel path ran _index_py")

        monkeypatch.setattr(graph, "_index_py", refuse)
        g = Graph(80, ((79, 3), (3, 0), (0, 79), (0, 3)))
        assert g.edges == ((0, 3), (0, 79), (3, 79)) and g.edges[0] is _PAIRS[3][0]
        assert g.adjacency[3] == (0, 79) and g.incidence[79] == (1, 2)

    def test_rejections_agree(self):
        for n, edges in (
            (3, ((0, 1), (2, 2))),  # a loop
            (3, ((0, 1), (1, 3))),  # out of range
            (3, ((-1, 0),)),  # negative
            (3, ((0, 1, 2),)),  # not a pair
            (3, ((0,),)),
            (3, ((0, 1.5),)),  # not an int
            (3, (("0", 1),)),
            (3, (None,)),
            (0, ()),
            (-2, ((0, 1),)),
        ):
            assert raised_on_both_paths(n, edges) in (ValueError, TypeError)

    def test_inputs_left_to_python_agree(self):
        # Bools, an int subclass, a generator and a pair given as a set are
        # no exact ints or sequences: the kernel declines them, untouched,
        # and Graph builds what it built without the kernel.
        class Int(int):
            pass

        for make in (
            lambda: (3, ((False, True), (1, 2))),
            lambda: (3, ((Int(2), 0),)),
            lambda: (3, (pair for pair in ((0, 2), (1, 0)))),
            lambda: (3, ({0, 2},)),
            lambda: (True, ()),
        ):
            assert solver._native().index_graph(*make(), _PAIRS) is None
            built = []
            for native in (True, False):
                with pytest.MonkeyPatch.context() as patch:
                    if not native:
                        force_python_path(patch)
                    g = Graph(*make())
                built.append((g.n, g.edges, g.adjacency, g.incidence))
            assert built[0] == built[1], make()

    def test_vertices_are_plain_ints_and_floats_are_refused(self):
        # Bool and numpy vertices, which the kernel declines, become plain
        # ints, past the shared pairs too; float ones raise TypeError on
        # both paths, whether or not they index the shared pairs.
        for n, edges, expected in (
            (np.int64(70), [(np.int64(65), np.int64(1)), (True, np.int32(2))], ((1, 2), (1, 65))),
            (True, (), ()),
        ):
            g = on_both_paths(lambda: Graph(n, edges))
            assert (g.n, g.edges) == (n, expected)
            assert type(g.n) is int and all(type(v) is int for e in g.edges for v in e)
        for n, edges in ((70, [(1.0, 65.0)]), (6, [(1.0, 5.0)]), (6.0, [(1, 5)])):
            assert raised_on_both_paths(n, edges) is TypeError

    def test_declines_a_vertex_count_past_the_sort_key(self):
        index = solver._native().index_graph
        assert index(2**32, (), _PAIRS) is None
        assert index(2**70, ((0, 1),), _PAIRS) is None
        assert index(3, ((0, 2**70),), _PAIRS) is None

    def test_rejects_a_malformed_table_or_argument(self):
        index = solver._native().index_graph
        edges = ((0, 1), (1, 2))
        assert index(3, edges, _PAIRS) == edges
        wrong_entry = (_PAIRS[0], ((1, 0),), *_PAIRS[2:])
        for pairs in (_PAIRS[:63], (*_PAIRS, ()), (_PAIRS[1], *_PAIRS[1:]), wrong_entry):
            with pytest.raises(ValueError):
                index(3, edges, pairs)
        with pytest.raises(TypeError):
            index(3, edges, list(_PAIRS))
        with pytest.raises(TypeError):
            index(3, edges)


class TestListsOnFirstUse:
    """``adjacency`` and ``incidence``, built by ``_index_lists`` on first use."""

    def test_match_their_definition_on_both_paths(self, doubled_graphs):
        graphs = [g for n in range(1, 8) for g in generate_connected_catalog(n)]
        graphs += doubled_graphs
        rng = random.Random(19)
        for n in (65, 80, 130):  # no shared pairs past vertex 63
            edges = {(i, i + 1) for i in range(n - 1)}
            edges |= {tuple(sorted(rng.sample(range(n), 2))) for _ in range(2 * n)}
            graphs.append(Graph(n, tuple(edges)))
        assert len(graphs) == 1 + 1 + 2 + 6 + 21 + 112 + 853 + 23 + 3
        for g in graphs:
            built = []
            for native in (True, False):
                with pytest.MonkeyPatch.context() as patch:
                    if not native:
                        force_python_path(patch)
                    fresh = Graph(g.n, g.edges)
                    assert fresh._lists is None
                    built.append((fresh.adjacency, fresh.incidence))
                    assert fresh._lists is not None
            assert built[0] == built[1] == lists_by_definition(g), g.edges
        # One int per vertex: a neighbour is its edge's own int.
        big = graphs[-1]
        assert all(big.adjacency[a][big.incidence[a].index(k)] is b
                   for k, (a, b) in enumerate(big.edges))

    def test_leave_equality_hash_and_repr_alone(self):
        a, b = Graph(3, ((1, 2), (0, 1))), Graph(3, ((0, 1), (1, 2)))
        assert a.adjacency == ((1,), (0, 2), (1,)) and b._lists is None
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == "Graph(n=3, edges=((0, 1), (1, 2)))"

    def test_a_survey_builds_none(self, monkeypatch):
        # survey --gen-n 6 --with-doubling on the kernel path: classify,
        # the plan, the search, the checks and the doubling read n and the
        # edges only, so no graph, H included, builds its lists.
        assert solver._native() is not _reference
        built = []
        monkeypatch.setattr(graph, "_index_lists", lambda n, edges: built.append(n))
        rows = list(run_survey(generate_connected_catalog(6), with_doubling=True))
        assert len(rows) == 112 and sum(row.doubling_ok is True for row in rows) == 104
        assert built == []


class CountingKernel:
    """The compiled kernel, with the edges of each ``classify`` call kept."""

    def __init__(self):
        self.kernel, self.classified = solver._native(), []

    def __getattr__(self, name):
        return getattr(self.kernel, name)

    def classify(self, n, edges):
        self.classified.append(edges)
        return self.kernel.classify(n, edges)


class TestClassOnFirstUse:
    """``classify``'s class, computed on a graph's first call and kept in ``_class``."""

    def test_leaves_equality_hash_and_repr_alone(self):
        a, b = Graph(3, ((1, 2), (0, 1))), Graph(3, ((0, 1), (1, 2)))
        assert classify(a).max_degree == 2 and a._class is not None and b._class is None
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == "Graph(n=3, edges=((0, 1), (1, 2)))"
        for kept in (pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
            assert kept == a == b and hash(kept) == hash(a) and classify(kept) == classify(a)

    def test_is_read_on_either_path_once_computed(self, catalogs, doubled_graphs):
        graphs = [g for n in range(1, 7) for g in catalogs[n]] + doubled_graphs
        graphs += [two_k2(), Graph(3, ())]
        for g in graphs:
            kept = []
            for first in (True, False):
                fresh = Graph(g.n, g.edges)
                for native in (first, not first):
                    with pytest.MonkeyPatch.context() as patch:
                        if not native:
                            force_python_path(patch)
                        kept.append(classify(fresh))
            assert kept[0] is kept[1] and kept[2] is kept[3], g.edges  # the slot, read
            assert kept[0] == kept[2] == classify_on_both_paths(g), g.edges

    def test_a_survey_classifies_each_graph_once(self, monkeypatch):
        # survey_graph's classify, and compute_W's, which reads the class
        # kept: 112 kernel calls for 112 graphs, and none for H.
        catalog = list(generate_connected_catalog(6))
        kernel = CountingKernel()
        monkeypatch.setattr(solver, "_native", lambda: kernel)
        rows = list(run_survey(catalog, with_doubling=True))
        assert len(rows) == 112 and sum(row.doubling_ok is True for row in rows) == 104
        assert kernel.classified == [g.edges for g in catalog]

    def test_the_python_path_classifies_each_graph_once(self, catalogs, monkeypatch):
        # Fresh graphs on the Python path: a second survey and a second
        # compute_W read each graph's class, and each survey's doubling
        # classifies the 23 new H it builds once each.
        graphs = [Graph(g.n, g.edges) for n in range(2, 6) for g in catalogs[n]]
        force_python_path(monkeypatch)
        classified = []
        classify_py = _reference._classify_py
        monkeypatch.setattr(
            _reference, "_classify_py", lambda g: classified.append(g) or classify_py(g)
        )
        rows = list(run_survey(graphs, with_doubling=True))
        assert list(run_survey(graphs, with_doubling=True)) == rows
        solved = [row.w if isinstance(row.w, int) else None for row in rows]
        assert [compute_W(g).w for g in graphs] == solved
        doubled = sum(row.doubling_ok is True for row in rows)
        assert (len(graphs), doubled) == (30, 23)
        assert len(classified) == len({id(g) for g in classified}) == 30 + 2 * 23

    def test_compute_w_twice_classifies_once(self, monkeypatch):
        kernel = CountingKernel()
        monkeypatch.setattr(solver, "_native", lambda: kernel)
        g = Graph(5, [(i, (i + 1) % 5) for i in range(5)])
        assert compute_W(g) == compute_W(g) and kernel.classified == [g.edges]
        assert g.max_degree == 2 and len(kernel.classified) == 1


def classify_on_both_paths(g: Graph) -> GraphClass:
    """The kernel's ``classify`` and ``_classify_py`` on g, which must give
    equal fields of equal types; returns the class."""
    native = GraphClass._make(solver._native().classify(g.n, g.edges))
    reference = _classify_py(g)
    for name, mine, theirs in zip(GraphClass._fields, native, reference):
        assert (type(mine), mine) == (type(theirs), theirs), (name, g.n, g.edges)
    return native


class TestNativeClassify:
    """The kernel's ``classify`` against ``_classify_py``, the reference."""

    def test_agrees_on_the_catalogs_and_the_doubled_graphs(self, catalogs, doubled_graphs):
        graphs = [g for n in range(1, 7) for g in catalogs[n]]
        graphs += generate_connected_catalog(7)
        graphs += doubled_graphs
        for g in graphs:
            classify_on_both_paths(g)
        assert len(graphs) == 1 + 1 + 2 + 6 + 21 + 112 + 853 + 23

    def test_agrees_on_seeded_random_graphs(self):
        # Densities from edgeless to nearly complete; the sparse ones are
        # disconnected, with isolated vertices, and many are bipartite.
        rng = random.Random(17)
        seen = {"disconnected": 0, "edgeless": 0, "isolated": 0, "bipartite, split": 0}
        for n in range(1, 81):
            for density in (0.0, 0.5 / n, 1.5 / n, 0.2, 0.6, 0.95):
                edges = [(i, j) for j in range(n) for i in range(j) if rng.random() < density]
                cls = classify_on_both_paths(Graph(n, edges))
                seen["disconnected"] += not cls.connected
                seen["edgeless"] += n > 1 and not edges
                seen["isolated"] += n > 1 and cls.min_degree == 0 and bool(edges)
                seen["bipartite, split"] += not cls.connected and cls.bipartition is not None
        assert min(seen.values()) >= 50, seen

    def test_k1(self):
        assert classify_on_both_paths(k1()) == GraphClass(
            connected=True,
            bipartition=((0,), ()),
            regular_degree=0,
            triangle_free=True,
            biregular_degrees=(0, 0),
            max_degree=0,
            min_degree=0,
        )

    def test_agrees_on_a_long_path_and_a_wide_star(self):
        n = EDGE_LIST_MAX_N
        cls = classify_on_both_paths(Graph(n, [(i, i + 1) for i in range(n - 1)]))
        # The ends, of degree 1, lie in different parts: not biregular.
        assert cls.connected and cls.biregular_degrees is None and cls.min_degree == 1
        assert cls.bipartition == (tuple(range(0, n, 2)), tuple(range(1, n, 2)))
        # Every edge meets the hub, whose neighbours lie on both sides of
        # the leaf's one neighbour: the merge must not walk the hub's list.
        hub = n // 2
        cls = classify_on_both_paths(Graph(n, [(hub, v) for v in range(n) if v != hub]))
        assert cls.triangle_free and cls.biregular_degrees == (1, n - 1)

    def test_classify_takes_the_kernel_path(self, monkeypatch):
        def refuse(g):
            raise AssertionError("the kernel path ran _classify_py")

        monkeypatch.setattr(_reference, "_classify_py", refuse)
        assert classify(c4()).bipartition == ((0, 2), (1, 3))
        assert not classify(k3()).triangle_free

    def test_rejects_malformed_input(self):
        # Both twins, with the same message: the twin reads the edges as the
        # kernel does, not as Graph, which would orient, sort and
        # deduplicate them.
        rows = (
            (3, ((1, 0),), "classify: edges must be increasing pairs (a, b), a < b"),
            (3, ((0, 2), (0, 1)), "classify: edges must be increasing pairs (a, b), a < b"),
            (3, ((0, 1), (0, 1)), "classify: edges must be increasing pairs (a, b), a < b"),
            (3, ((0, 3),), "classify: edge 0 has an end outside [0, 3)"),
            (3, [[0, 1], (1, True)], "classify: edge 1 has an end that is not an int"),
            (3, range(2), "classify: edges must be a list or tuple"),
            (3, ClaimedEdges(MOST_EDGES), "classify: edges must be a list or tuple"),
            (0, (), "classify: n out of range"),
        )
        for classify_of in (solver._native().classify, _reference.classify):
            for n, edges, message in rows:
                with pytest.raises(ValueError) as refused:
                    classify_of(n, edges)
                assert str(refused.value) == message, (classify_of, edges)
            with pytest.raises(TypeError):
                classify_of(3, None)


class TestColumnCode:
    # code_from_edges, the reference, reads the code straight from its
    # definition in graph.py's comment.
    def test_decoding_inverts_encoding_in_column_order(self):
        rng = random.Random(62)
        for n in range(1, GRAPH6_MAX_N + 1):
            nbits = n * (n - 1) // 2
            for code in (0, (1 << nbits) - 1, *(rng.getrandbits(nbits) for _ in range(20))):
                edges = _edges_from_code(n, code)
                assert code_from_edges(n, edges) == code, (n, code)
                assert list(edges) == sorted(edges, key=lambda e: (e[1], e[0]))
                assert all(e is _PAIRS[e[1]][e[0]] for e in edges)


class TestGraph6:
    def test_parse_single_edge(self):
        g = parse_graph6("A_")
        assert (g.n, g.edges) == (2, ((0, 1),))

    def test_parse_triangle(self):
        g = parse_graph6("Bw")
        assert (g.n, g.edges) == (3, ((0, 1), (0, 2), (1, 2)))

    def test_parse_isolated_vertex(self):
        g = parse_graph6("@")
        assert (g.n, g.edges) == (1, ())

    def test_write_examples(self):
        assert write_graph6(k2()) == "A_"
        assert write_graph6(k3()) == "Bw"
        assert write_graph6(k1()) == "@"

    def test_empty_string_rejected(self):
        with pytest.raises(ParseError, match="byte 0"):
            parse_graph6("")

    def test_long_form_rejected(self):
        with pytest.raises(ParseError, match="long-form"):
            parse_graph6("~??~?????")

    def test_zero_vertices_rejected(self):
        with pytest.raises(ParseError, match="0 vertices"):
            parse_graph6("?")

    def test_character_below_range(self):
        err = pytest.raises(ParseError, parse_graph6, "A" + chr(30))
        assert err.value.offset == 1

    def test_trailing_garbage(self):
        err = pytest.raises(ParseError, parse_graph6, "A_x")
        assert err.value.offset == 2

    def test_truncated(self):
        with pytest.raises(ParseError, match="truncated"):
            parse_graph6("D")

    def test_nonzero_padding_rejected(self):
        # n=2 has one payload bit; 'w' = 111000 sets padding bits
        with pytest.raises(ParseError, match="padding"):
            parse_graph6("Aw")

    def test_roundtrip_small(self):
        for g in (k1(), k2(), k3(), c4(), two_k2()):
            assert parse_graph6(write_graph6(g)) == g

    def test_write_rejects_oversize(self):
        with pytest.raises(DomainError, match="62"):
            write_graph6(Graph(63, ()))

    def test_write_matches_networkx(self, catalogs):
        # Every graph of the n <= 7 catalogs, and seeded random graphs of
        # every size the short form takes, from empty to complete.
        nx = pytest.importorskip("networkx")
        rng = random.Random(6)
        graphs = [g for n in range(1, 7) for g in catalogs[n]] + list(generate_connected_catalog(7))
        for n in range(1, GRAPH6_MAX_N + 1):
            for p in (0.0, 0.1, 0.5, 0.9, 1.0):
                pairs = [(i, j) for j in range(n) for i in range(j) if rng.random() < p]
                graphs.append(Graph(n, pairs))
        for g in graphs:
            theirs = nx.Graph()
            theirs.add_nodes_from(range(g.n))
            theirs.add_edges_from(g.edges)
            assert write_graph6(g) == nx.to_graph6_bytes(theirs, header=False).decode().strip(), g


class TestEdgeListFormat:
    def test_path(self):
        g = parse_edge_list("3\n0 1\n1 2")
        assert (g.n, g.edges) == (3, ((0, 1), (1, 2)))

    def test_duplicates_collapse(self):
        g = parse_edge_list("2\n0 1\n1 0")
        assert (g.n, g.edges) == (2, ((0, 1),))

    def test_loop_rejected_with_line(self):
        err = pytest.raises(ParseError, parse_edge_list, "2\n0 0")
        assert err.value.line == 2

    def test_index_out_of_range(self):
        err = pytest.raises(ParseError, parse_edge_list, "3\n0 1\n1 3")
        assert err.value.line == 3

    def test_non_numeric(self):
        err = pytest.raises(ParseError, parse_edge_list, "2\n0 x")
        assert err.value.line == 2

    def test_missing_count(self):
        with pytest.raises(ParseError):
            parse_edge_list("")

    def test_vertex_count_capped(self):
        assert parse_edge_list(f"{EDGE_LIST_MAX_N}\n0 1").n == EDGE_LIST_MAX_N
        for n in (0, EDGE_LIST_MAX_N + 1):
            err = pytest.raises(ParseError, parse_edge_list, f"{n}\n0 1")
            assert err.value.line == 1

    def test_blank_lines_ignored(self):
        g = parse_edge_list("3\n\n0 1\n\n1 2\n")
        assert g.edges == ((0, 1), (1, 2))


class TestClassify:
    def test_c4(self):
        cls = classify(c4())
        assert cls.connected
        assert cls.bipartition == ((0, 2), (1, 3))
        assert cls.regular_degree == 2
        assert cls.triangle_free
        assert cls.biregular_degrees == (2, 2)
        assert cls.max_degree == 2

    def test_k3(self):
        cls = classify(k3())
        assert cls.connected
        assert cls.bipartition is None
        assert cls.regular_degree == 2
        assert not cls.triangle_free
        assert cls.biregular_degrees is None
        assert cls.max_degree == 2

    def test_edgeless_pair(self):
        cls = classify(Graph(2, ()))
        assert not cls.connected
        assert cls.bipartition is not None
        assert cls.regular_degree == 0
        assert cls.triangle_free

    def test_star_is_biregular_1_3(self):
        g = Graph(4, ((0, 1), (0, 2), (0, 3)))
        assert classify(g).biregular_degrees == (1, 3)

    def test_connectivity(self):
        assert is_connected(k1())
        assert is_connected(c4())
        assert not is_connected(two_k2())
        assert not is_connected(Graph(2, ()))
