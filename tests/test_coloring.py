from __future__ import annotations

import pytest

from intervalcolor import (
    DomainError,
    EdgeColoring,
    Graph,
    ParseError,
    coloring_from_json,
    coloring_to_json,
    validate_interval,
)
from smallgraphs import c4, k2, k3, p3


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
