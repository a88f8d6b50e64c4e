from __future__ import annotations

import numpy as np
import pytest

from intervalcolor import (
    DomainError,
    EdgeColoring,
    Graph,
    ParseError,
    coloring_from_json,
    coloring_to_json,
    compute_W,
    double_with_certificate,
    generate_connected_catalog,
    validate_interval,
)
from intervalcolor import coloring, solver
from intervalcolor.coloring import _VALID, _report
from intervalcolor.solver import _native
from conftest import force_python_path
from smallgraphs import MOST_EDGES, ClaimedEdges, c4, corruptions, k2, k3, p3


def c4_cyclic_132() -> EdgeColoring:
    # cycle-order colors (1,2,3,2) on 0-1-2-3-0; canonical edge order is
    # (0,1),(0,3),(1,2),(2,3) -> (1,2,2,3)
    return EdgeColoring(3, (1, 2, 2, 3))


class TestEdgeColoring:
    def test_palette_must_be_positive(self):
        with pytest.raises(ValueError):
            EdgeColoring(0, ())

    def test_colors_must_fit_palette(self):
        with pytest.raises(ValueError, match="outside"):
            EdgeColoring(2, (1, 3))
        with pytest.raises(ValueError, match="outside"):
            EdgeColoring(2, (0, 1))


def on_both_paths(build):
    """build() with and without the kernel: its value, or the type and
    message of what it raised, which must agree."""
    seen = []
    for native in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            if not native:
                force_python_path(patch)
            try:
                seen.append(build())
            except Exception as exc:  # compared below
                seen.append((type(exc), str(exc)))
    assert seen[0] == seen[1]
    return seen[0]


class TestNativePaletteCheck:
    """The kernel's ``in_palette`` against ``_check_colors_py``."""

    def test_an_in_range_coloring_takes_the_kernel_path(self, monkeypatch):
        def refuse(t, colors):
            raise AssertionError("the kernel path ran _check_colors_py")

        monkeypatch.setattr(coloring, "_check_colors_py", refuse)
        assert EdgeColoring(3, [1, 3, 2, 3]).colors == (1, 3, 2, 3)
        assert EdgeColoring(2**63 - 1, (1, 2**63 - 1)).t == 2**63 - 1
        assert EdgeColoring(1, ()).colors == ()

    def test_both_paths_agree(self):
        # Bools, numpy ints and huge values go to the Python loop, which
        # keeps them as plain ints; a float t or color is refused.
        for t, colors in (
            (3, (True,)), (2**70, (1, 2**70)), (2**63, (1,)), (True, (1,)),
            (np.int64(3), (np.int64(2), 1)), (3, np.array([3, 1])),
        ):
            built = on_both_paths(lambda: EdgeColoring(t, colors))
            assert built.t == t and built.colors == tuple(colors)
            assert type(built.t) is int and all(type(c) is int for c in built.colors)
        for t, colors in ((3, (1.5,)), (3, (1, 2.0)), (2.5, (1, 2)), (2.5, (3,)), (3.0, (1,))):
            assert on_both_paths(lambda: EdgeColoring(t, colors))[0] is TypeError
        for t, colors in (
            (3, (1, False)), (3, (1, 2**70)), (3, (0, 1)), (3, (-1,)), (3, (4, 2)), (0, ()),
        ):
            assert on_both_paths(lambda: EdgeColoring(t, colors))[0] is ValueError

    def test_the_kernel_declines_what_it_does_not_check(self):
        check = solver._native().in_palette
        assert check(3, (1, 2, 3)) and check(3, [3]) and check(1, ())
        for t, colors in (
            (3, (1.5,)), (3, (True,)), (3, (2**70,)), (3, (0,)), (3, (4,)),
            (2**63, (1,)), (0, ()), (-1, ()), (True, (1,)), (3.0, (1,)),
        ):
            assert check(t, colors) is False, (t, colors)
        with pytest.raises(TypeError):
            check(3, iter((1, 2)))
        with pytest.raises(TypeError):
            check(3)

    def test_json_parse_errors_agree(self):
        g = p3()
        for color in (5, 0, -3, 2**70):
            doc = {"t": 2, "edges": [{"u": 0, "v": 1, "color": 1}, {"u": 1, "v": 2, "color": color}]}
            kind, message = on_both_paths(lambda: coloring_from_json(g, doc))
            assert kind is ParseError and message == f"color {color} at edge index 1 outside 1..2"
        doc = {"t": 2**70, "edges": [{"u": 0, "v": 1, "color": 1}, {"u": 1, "v": 2, "color": 2}]}
        assert on_both_paths(lambda: coloring_from_json(g, doc)) == EdgeColoring(2**70, (1, 2))


class TestValidateInterval:
    def test_c4_valid(self):
        report = validate_interval(c4(), c4_cyclic_132())
        assert report.verdict
        assert report.failures == ()

    def test_k3_not_an_interval(self):
        report = validate_interval(k3(), EdgeColoring(3, (1, 2, 3)))
        assert not report.verdict
        assert report.proper
        assert not report.interval_at_every_vertex
        # edges (0,1)=1,(0,2)=2,(1,2)=3: vertex 1 sees {1,3}
        assert any(f.kind == "interval" and f.subject == 1 for f in report.failures)

    def test_unused_color_fails_surjectivity(self):
        report = validate_interval(p3(), EdgeColoring(3, (1, 2)))
        assert not report.verdict
        assert report.proper and report.interval_at_every_vertex
        assert [(f.kind, f.subject) for f in report.failures] == [("surjective", 3)]

    def test_adjacent_repeat_reported_at_vertex(self):
        report = validate_interval(p3(), EdgeColoring(1, (1, 1)))
        assert not report.proper
        kinds = {f.kind for f in report.failures}
        assert "proper" in kinds and "interval" in kinds

    def test_degree_zero_vertex_unconstrained(self):
        g = Graph(3, ((0, 1),))
        assert validate_interval(g, EdgeColoring(1, (1,))).verdict

    def test_failures_accumulate(self):
        g = Graph(4, ((0, 1), (0, 2), (0, 3)))
        report = validate_interval(g, EdgeColoring(5, (1, 1, 3)))
        kinds = [f.kind for f in report.failures]
        assert kinds.count("surjective") == 3  # colors 2, 4, 5 unused
        assert "proper" in kinds and "interval" in kinds

    def test_many_unused_colors_reported_as_runs(self):
        # 5 unused colors > m + 1 = 3: one failure per maximal run
        report = validate_interval(p3(), EdgeColoring(8, (2, 3)))
        assert report.proper and report.interval_at_every_vertex and not report.surjective
        assert [(f.subject, f.detail) for f in report.failures] == [
            (1, "color 1 is unused"),
            (4, "colors 4..8 are unused"),
        ]
        # 3 unused colors = m + 1: still one failure per color
        report = validate_interval(p3(), EdgeColoring(5, (2, 3)))
        assert [f.subject for f in report.failures] == [1, 4, 5]

    def test_size_mismatch(self):
        with pytest.raises(DomainError):
            validate_interval(p3(), EdgeColoring(2, (1,)))

    def test_verdict_iff_no_failures(self):
        good = validate_interval(c4(), c4_cyclic_132())
        assert good.verdict and not good.failures
        bad = validate_interval(p3(), EdgeColoring(3, (1, 2)))
        assert not bad.verdict and bad.failures


class TestColoringJson:
    def test_roundtrip(self):
        g = c4()
        c = c4_cyclic_132()
        doc = coloring_to_json(g, c)
        assert doc["t"] == 3
        assert doc["edges"][0] == {"u": 0, "v": 1, "color": 1}
        assert coloring_from_json(g, doc) == c

    def test_accepts_any_edge_order(self):
        g = p3()
        doc = {"t": 2, "edges": [{"u": 2, "v": 1, "color": 2}, {"u": 0, "v": 1, "color": 1}]}
        assert coloring_from_json(g, doc) == EdgeColoring(2, (1, 2))

    def test_rejects_edge_set_mismatch(self):
        g = p3()
        doc = {"t": 2, "edges": [{"u": 0, "v": 1, "color": 1}, {"u": 0, "v": 2, "color": 2}]}
        with pytest.raises(ParseError, match="mismatch"):
            coloring_from_json(g, doc)

    def test_rejects_duplicate_edge(self):
        g = p3()
        doc = {
            "t": 2,
            "edges": [
                {"u": 0, "v": 1, "color": 1},
                {"u": 1, "v": 0, "color": 2},
                {"u": 1, "v": 2, "color": 2},
            ],
        }
        with pytest.raises(ParseError, match="duplicate"):
            coloring_from_json(g, doc)

    def test_rejects_out_of_palette_color(self):
        g = p3()
        doc = {"t": 2, "edges": [{"u": 0, "v": 1, "color": 1}, {"u": 1, "v": 2, "color": 5}]}
        with pytest.raises(ParseError, match="outside"):
            coloring_from_json(g, doc)

    @pytest.mark.parametrize("field", ["t", "u", "v", "color"])
    def test_rejects_json_booleans(self, field):
        # bool is a subclass of int, so true would otherwise pass as 1.
        doc = {"t": 1, "edges": [{"u": 0, "v": 1, "color": 1}]}
        if field == "t":
            doc["t"] = True
        else:
            doc["edges"][0][field] = True
        with pytest.raises(ParseError, match="integer"):
            coloring_from_json(k2(), doc)

    @pytest.mark.parametrize("edges", [5, None, "01", {"u": 0}])
    def test_rejects_edges_that_are_not_a_list(self, edges):
        with pytest.raises(ParseError, match="'edges' must be a list"):
            coloring_from_json(k2(), {"t": 1, "edges": edges})

    def test_rejects_missing_keys(self):
        with pytest.raises(ParseError):
            coloring_from_json(p3(), {"edges": []})


class TestNativeIntervalCheck:
    """The kernel's ``interval_ok`` against the verdict of ``_report``."""

    def agree(self, g: Graph, c: EdgeColoring) -> bool:
        report = _report(g, c)
        if validate_interval(g, c) != report:
            return False
        if c.t > g.m:  # never sent to the kernel
            return not report.verdict
        return _native().interval_ok(g.n, g.edges, c.colors, c.t) == report.verdict

    def test_agrees_on_witnesses_doublings_and_corruptions(self, catalogs):
        graphs = [g for n in range(2, 7) for g in catalogs[n]]
        graphs += generate_connected_catalog(7)
        valid = invalid = 0
        for g in graphs:
            witness = compute_W(g).witness
            if witness is None:
                continue
            cert = double_with_certificate(g, witness)
            h = cert.result.h
            for graph, c in ((g, witness), (h, cert.beta), (h, cert.final)):
                for variant in (c, *corruptions(graph, c)):
                    assert self.agree(graph, variant), (graph.edges, variant)
                    verdict = _report(graph, variant).verdict
                    valid += verdict
                    invalid += not verdict
            assert validate_interval(h, cert.final) is _VALID
        # 899 colorable graphs: each witness and final coloring is valid; each
        # beta (no color 1) and corruption is not, and K2's witness has neither
        # a duplicate nor a shift.
        assert (valid, invalid) == (2 * 899, 10 * 899 - 2)

    def test_agrees_past_the_edge_count_and_on_degree_zero_vertices(self):
        # t > m and t = 2**70 stay in Python; vertices 3 and 4, and then
        # vertex 0, have no edge.
        assert self.agree(p3(), EdgeColoring(3, (1, 2)))
        assert self.agree(p3(), EdgeColoring(2**70, (1, 2)))
        for g in (Graph(5, ((0, 1), (1, 2))), Graph(4, ((1, 2), (2, 3)))):
            for t, colors in ((2, (1, 2)), (2, (2, 1)), (1, (1, 1)), (2, (1, 1)), (2, (2, 2))):
                assert self.agree(g, EdgeColoring(t, colors)), (g.edges, colors)
        assert validate_interval(Graph(5, ((0, 1), (1, 2))), EdgeColoring(2, (2, 1))).verdict

    def test_rejects_malformed_input(self):
        check = _native().interval_ok
        edges, colors = c4().edges, c4_cyclic_132().colors
        assert check(4, edges, colors, 3) is True
        # Each message names the entry, and the edge where one is at fault.
        out_of_range = "n or t out of range"
        not_increasing = "edges must be increasing pairs (a, b), a < b"
        for args, message in (
            ((4, edges, colors[:-1], 3), "colors must be a list or tuple, one per edge"),
            ((4, edges, set(colors), 3), "colors must be a list or tuple, one per edge"),
            ((4, edges, (0, *colors[1:]), 3), "edge 0 has color 0 outside 1..3"),
            ((4, edges, (*colors[:3], 4), 3), "edge 3 has color 4 outside 1..3"),
            ((4, edges, (1, 2**70, *colors[2:]), 3), f"edge 1 has color {2**70} outside 1..3"),
            ((4, edges, colors, 0), out_of_range),
            ((4, edges, colors, 5), out_of_range),  # t above the edge count
            ((0, edges, colors, 3), out_of_range),
            ((3, edges, colors, 3), "edge 1 has an end outside [0, 3)"),
            ((4, ((0, 0), *edges[1:]), colors, 3), not_increasing),  # a loop
            ((4, ((0, 1, 2), *edges[1:]), colors, 3), "edge 0 is not a pair (a, b)"),
            ((4, ((0, 1), (0, 3), (2, 3), (1, 2)), colors, 3), not_increasing),
            ((4, ClaimedEdges(MOST_EDGES), colors, 3), "edges must be a list or tuple"),
        ):
            with pytest.raises(ValueError) as refused:
                check(*args)
            assert str(refused.value) == f"interval_ok: {message}", args
        with pytest.raises(OverflowError):
            check(4, edges, colors, 2**70)
        with pytest.raises(TypeError):
            check(4, 5, colors, 3)
