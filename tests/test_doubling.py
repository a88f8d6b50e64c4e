from __future__ import annotations

import pytest

from intervalcolor import (
    DomainError,
    EdgeColoring,
    Graph,
    InvalidColoringError,
    certificate_to_json,
    classify,
    compute_W,
    double_graph,
    double_with_certificate,
    finalize_recolor,
    is_connected,
    lift_coloring,
    parse_graph6,
    validate_interval,
)
from intervalcolor.doubling import CrossEdge, MatchingEdge
from smallgraphs import c4, k2, k3, p3, two_k2


class TestDoubleGraph:
    def test_k2_doubles_to_c4(self):
        d = double_graph(k2())
        assert d.h == Graph(4, ((0, 2), (0, 3), (1, 2), (1, 3)))
        assert d.u_map == (0, 1)
        assert d.w_map == (2, 3)
        assert d.h.m == 2 * 1 + 2

    def test_p3_structure(self):
        d = double_graph(p3())
        assert d.h.n == 6
        assert d.h.m == 2 * 2 + 3
        expected = {(0, 4), (1, 3), (1, 5), (2, 4), (0, 3), (1, 4), (2, 5)}
        assert set(d.h.edges) == expected

    def test_k3_doubles_to_k33(self):
        d = double_graph(k3())
        assert set(d.h.edges) == {(i, 3 + j) for i in range(3) for j in range(3)}
        assert set(d.h.degrees()) == {3}

    def test_regular_source_gives_regular_double(self):
        d = double_graph(c4())
        cls = classify(d.h)
        assert cls.regular_degree == 3
        assert cls.bipartition is not None
        assert cls.connected

    def test_provenance_aligned_with_edges(self):
        g = p3()
        d = double_graph(g)
        n = g.n
        for (a, b), prov in zip(d.h.edges, d.edge_provenance):
            if isinstance(prov, MatchingEdge):
                assert (a, b) == (prov.vertex, n + prov.vertex)
            else:
                assert isinstance(prov, CrossEdge)
                i, j = g.edges[prov.source_index]
                if prov.flipped:
                    i, j = j, i
                assert (a, b) == (i, n + j)

    def test_rejects_disconnected(self):
        with pytest.raises(DomainError):
            double_graph(two_k2())

    def test_rejects_edgeless(self):
        with pytest.raises(DomainError):
            double_graph(Graph(1, ()))


class TestLiftColoring:
    def test_k2_lift(self):
        g = k2()
        d = double_graph(g)
        beta = lift_coloring(g, EdgeColoring(1, (1,)), d)
        # canonical H edges: (0,2)=u0w0, (0,3)=u0w1, (1,2)=u1w0, (1,3)=u1w1
        assert beta == EdgeColoring(3, (3, 2, 2, 3))

    def test_p3_lift(self):
        g = p3()
        d = double_graph(g)
        beta = lift_coloring(g, EdgeColoring(2, (1, 2)), d)
        by_edge = dict(zip(d.h.edges, beta.colors))
        assert by_edge[(0, 4)] == 2 and by_edge[(1, 3)] == 2  # cross of (0,1)
        assert by_edge[(1, 5)] == 3 and by_edge[(2, 4)] == 3  # cross of (1,2)
        assert by_edge[(0, 3)] == 3  # max S(v0) + 2
        assert by_edge[(1, 4)] == 4
        assert by_edge[(2, 5)] == 4
        assert beta.t == 4

    def test_color_one_unused_before_recoloring(self):
        g = c4()
        alpha = compute_W(g).witness
        d = double_graph(g)
        beta = lift_coloring(g, alpha, d)
        assert 1 not in set(beta.colors)
        assert set(beta.colors) <= set(range(2, alpha.t + 3))

    def test_min_spectra_agree_between_halves(self, catalogs):
        for g in catalogs[4]:
            out = compute_W(g)
            if not out.interval_colorable:
                continue
            d = double_graph(g)
            beta = lift_coloring(g, out.witness, d)
            for i in range(g.n):
                u_min = min(beta.colors[k] for k in d.h.incidence[i])
                w_min = min(beta.colors[k] for k in d.h.incidence[g.n + i])
                assert u_min == w_min

    def test_rejects_invalid_source(self):
        g = k3()
        d = double_graph(g)
        with pytest.raises(InvalidColoringError):
            lift_coloring(g, EdgeColoring(3, (1, 2, 3)), d)


class TestFinalizeRecolor:
    def test_k2_smallest_index_tiebreak(self):
        g = k2()
        d = double_graph(g)
        beta = lift_coloring(g, EdgeColoring(1, (1,)), d)
        i0, final, _ = finalize_recolor(d, beta, t=1)
        assert i0 == 0
        assert final == EdgeColoring(3, (1, 2, 2, 3))
        assert validate_interval(d.h, final).verdict

    def test_p3_final_spectra(self):
        g = p3()
        d = double_graph(g)
        beta = lift_coloring(g, EdgeColoring(2, (1, 2)), d)
        i0, final, _ = finalize_recolor(d, beta, t=2)
        assert i0 == 0
        by_vertex = {
            v: tuple(sorted(final.colors[k] for k in d.h.incidence[v])) for v in range(6)
        }
        assert by_vertex[0] == (1, 2) and by_vertex[3] == (1, 2)
        assert by_vertex[1] == (2, 3, 4) and by_vertex[4] == (2, 3, 4)
        assert by_vertex[2] == (3, 4) and by_vertex[5] == (3, 4)

    def test_recolored_edge_is_a_matching_edge(self, catalogs):
        for g in catalogs[4]:
            out = compute_W(g)
            if not out.interval_colorable:
                continue
            d = double_graph(g)
            beta = lift_coloring(g, out.witness, d)
            i0, final, _ = finalize_recolor(d, beta, out.w)
            changed = [k for k in range(d.h.m) if beta.colors[k] != final.colors[k]]
            assert len(changed) == 1
            prov = d.edge_provenance[changed[0]]
            assert isinstance(prov, MatchingEdge) and prov.vertex == i0
            assert final.colors[changed[0]] == 1


class TestCertificate:
    def test_k2_certificate(self):
        cert = double_with_certificate(k2(), EdgeColoring(1, (1,)))
        assert cert.result.h == Graph(4, ((0, 2), (0, 3), (1, 2), (1, 3)))
        assert cert.final.t == 3
        assert cert.validation.verdict

    def test_c4_certificate(self):
        g = c4()
        cert = double_with_certificate(g, EdgeColoring(3, (1, 2, 2, 3)))
        assert cert.result.h.n == 8 and cert.result.h.m == 12
        assert cert.final.t == 5
        assert cert.validation.verdict

    def test_k3_has_no_valid_source(self):
        with pytest.raises(InvalidColoringError):
            double_with_certificate(k3(), EdgeColoring(3, (1, 2, 3)))

    def test_mirror_symmetry_fixes_beta(self):
        g = p3()
        cert = double_with_certificate(g, EdgeColoring(2, (1, 2)))
        h = cert.result.h
        n = g.n
        by_edge = dict(zip(h.edges, cert.beta.colors))
        for (a, b), color in by_edge.items():
            ma, mb = b - n, a + n  # swap u_i <-> w_i
            mirrored = (ma, mb) if ma < mb else (mb, ma)
            assert by_edge[mirrored] == color

    def test_json_is_self_contained(self):
        cert = double_with_certificate(k2(), EdgeColoring(1, (1,)))
        doc = certificate_to_json(cert)
        assert parse_graph6(doc["g"]["graph6"]) == k2()
        h = parse_graph6(doc["h"]["graph6"])
        assert h == cert.result.h
        assert doc["chosen_i0"] == 0
        assert doc["validation"]["verdict"] is True
        assert doc["u_map"] == [0, 1] and doc["w_map"] == [2, 3]
        kinds = [e["kind"] for e in doc["edge_provenance"]]
        assert kinds.count("matching") == 2 and kinds.count("cross") == 2
        # final differs from beta on exactly the recolored matching edge
        beta_colors = [e["color"] for e in doc["beta"]["edges"]]
        final_colors = [e["color"] for e in doc["final"]["edges"]]
        diffs = [k for k, (x, y) in enumerate(zip(beta_colors, final_colors)) if x != y]
        assert len(diffs) == 1 and final_colors[diffs[0]] == 1

    def test_certificate_reverifiable_from_json_alone(self, catalogs):
        """Replay an external checker: everything below uses only the JSON
        document plus public parsing/validation entry points."""
        from intervalcolor import coloring_from_json

        for g in catalogs[4]:
            out = compute_W(g)
            if not out.interval_colorable:
                continue
            doc = certificate_to_json(double_with_certificate(g, out.witness))

            src = parse_graph6(doc["g"]["graph6"])
            h = parse_graph6(doc["h"]["graph6"])
            alpha = coloring_from_json(src, doc["alpha"])
            beta = coloring_from_json(h, doc["beta"])
            final = coloring_from_json(h, doc["final"])

            assert validate_interval(src, alpha).verdict
            assert validate_interval(h, final).verdict
            assert final.t == alpha.t + 2

            max_spec = [0] * src.n
            for (i, j), color in zip(src.edges, alpha.colors):
                max_spec[i] = max(max_spec[i], color)
                max_spec[j] = max(max_spec[j], color)
            recolored = []
            for k, prov in enumerate(doc["edge_provenance"]):
                if prov["kind"] == "cross":
                    assert beta.colors[k] == alpha.colors[prov["source_index"]] + 1
                else:
                    assert beta.colors[k] == max_spec[prov["vertex"]] + 2
                if beta.colors[k] != final.colors[k]:
                    recolored.append((k, prov))
            assert len(recolored) == 1
            k, prov = recolored[0]
            assert prov == {"kind": "matching", "vertex": doc["chosen_i0"]}
            assert final.colors[k] == 1

    def test_double_cover_connectivity_checked(self, catalogs):
        for n in (2, 3, 4, 5):
            for g in catalogs[n]:
                d = double_graph(g)
                assert is_connected(d.h)
                assert d.h.n == 2 * g.n
                assert d.h.m == 2 * g.m + g.n
