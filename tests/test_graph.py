from __future__ import annotations

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
from intervalcolor.graph import EDGE_LIST_MAX_N
from smallgraphs import c4, k1, k2, k3, two_k2


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
