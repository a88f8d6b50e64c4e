from __future__ import annotations

import json

import numpy as np
import pytest

from intervalcolor import (
    DomainError,
    EdgeColoring,
    Graph,
    InternalInvariantError,
    InvalidColoringError,
    certificate_to_json,
    classify,
    coloring_from_json,
    compute_W,
    double_graph,
    double_with_certificate,
    finalize_recolor,
    generate_connected_catalog,
    is_connected,
    lift_coloring,
    parse_graph6,
    validate_interval,
)
from intervalcolor import _reference, doubling, solver
from intervalcolor.coloring import _VALID
from intervalcolor.doubling import CrossEdge, MatchingEdge
from intervalcolor.graph import _PAIRS
from smallgraphs import c4, corruptions, k2, k3, k4, p3, two_k2


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

    def test_structure_checks_read_the_class_of_h(self):
        # Two wrong H for C4 (2-regular, 4 edges), each with 8 vertices and
        # 12 edges across U/W: K_{4,3} with w_3 isolated is disconnected, and
        # a connected H with u-degrees 4, 3, 2, 3 is not 3-regular.
        g = c4()
        d = double_graph(g)
        for edges, message in (
            ([(i, 4 + j) for i in range(4) for j in range(3)], "disconnected"),
            ([(0, 4), (0, 5), (0, 6), (0, 7), (1, 4), (1, 5), (1, 6), (2, 4), (2, 5),
              (3, 4), (3, 6), (3, 7)], "2-regular graph has degrees 2 to 4, expected 3"),
        ):
            wrong = doubling.DoublingResult(Graph(8, tuple(edges)), d.u_map, d.w_map, ())
            with pytest.raises(InternalInvariantError, match=message):
                doubling._check_structure(g, wrong)


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


class TestCertificateWithoutKernel(TestCertificate):
    """TestCertificate on the Python path."""

    @pytest.fixture(autouse=True)
    def python_path(self, monkeypatch):
        monkeypatch.setattr(solver, "_native", lambda: None)


def both_paths(g: Graph, alpha: EdgeColoring):
    """double_with_certificate on the kernel path, which must not fall back
    to the Python construction of H, and on the Python path."""

    def refuse(*args):
        raise AssertionError("the kernel path ran the Python construction")

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(doubling, "double_graph", refuse)
        native = double_with_certificate(g, alpha)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(solver, "_native", lambda: None)
        reference = double_with_certificate(g, alpha)
    return native, reference


def refuse_graph(*args):
    raise AssertionError("H was built")


def shared_double():
    """The kernel's ``double`` with the shared pairs and a provenance table
    long enough for graphs with max(m, n) <= 8, as its caller passes them."""
    double, table = solver._native().double, doubling._provenance_table(8)
    return lambda n, edges, colors, t: double(n, edges, colors, t, _PAIRS, table)


def raised_on_both_paths(g: Graph, alpha: EdgeColoring) -> type:
    """The type of the exception double_with_certificate raises on the
    kernel path, which must equal the one on the Python path, message and
    all. Neither path may build H before it raises."""
    seen = []
    for native in (True, False):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(doubling, "Graph", refuse_graph)
            if not native:
                patch.setattr(solver, "_native", lambda: None)
            with pytest.raises(Exception) as info:
                double_with_certificate(g, alpha)
        seen.append((type(info.value), str(info.value)))
    assert seen[0] == seen[1], (g.edges, alpha)
    return seen[0][0]


def colored(n: int, edges_colors) -> tuple[Graph, EdgeColoring]:
    """A graph and its coloring from (edge, color) pairs in any edge order."""
    by_edge = {tuple(sorted(e)): c for e, c in edges_colors}
    g = Graph(n, tuple(by_edge))
    return g, EdgeColoring(max(by_edge.values()), tuple(by_edge[e] for e in g.edges))


class TestNativeDouble:
    """The kernel's ``double`` against the Python path, certificate by
    certificate."""

    def test_agrees_on_every_witness_up_to_n7(self, catalogs):
        graphs = [g for n in range(2, 7) for g in catalogs[n]]
        graphs += generate_connected_catalog(7)
        certified = rejected = 0
        for g in graphs:
            witness = compute_W(g).witness
            if witness is None:
                continue
            native, reference = both_paths(g, witness)
            assert native == reference, g.edges
            assert native.validation is _VALID
            certified += 1
            for bad in (
                *corruptions(g, witness),
                EdgeColoring(g.m + 1, witness.colors),
                EdgeColoring(2**70, witness.colors),
            ):
                assert raised_on_both_paths(g, bad) is InvalidColoringError
                rejected += 1
        # Each witness but K2's has a duplicate and a shift corruption.
        assert (certified, rejected) == (899, 5 * 899 - 2)

    def test_agrees_on_complete_bipartite_graphs_and_even_cycles(self):
        shapes = [(a, a) for a in range(1, 16)] + [(a, a + 1) for a in range(1, 16)]
        shapes += [(a, b) for a in (1, 2, 3) for b in range(8, 29, 4)]
        cases = [
            colored(a + b, (((i, a + j), i + j + 1) for i in range(a) for j in range(b)))
            for a, b in shapes
        ]
        for k in range(2, 16):
            edges = [(i, (i + 1) % (2 * k)) for i in range(2 * k)]
            up_down = [*range(1, k + 2), *range(k, 1, -1)]
            cases.append(colored(2 * k, zip(edges, [1 + i % 2 for i in range(2 * k)])))
            cases.append(colored(2 * k, zip(edges, up_down)))
        for g, alpha in cases:
            native, reference = both_paths(g, alpha)
            assert native == reference, g.edges
        assert len(cases) == 48 + 28

    def test_agrees_on_iterated_doublings(self, catalogs):
        # Each colorable graph with n <= 5, doubled again and again while
        # the next source has at most 31 vertices, so that its doubled
        # graph fits short-form graph6.
        sources = largest = 0
        for n in range(2, 6):
            for g in catalogs[n]:
                alpha = compute_W(g).witness
                while alpha is not None:
                    native, reference = both_paths(g, alpha)
                    assert native == reference, g.edges
                    sources += 1
                    largest = max(largest, g.n)
                    if 2 * g.n > 31:
                        break
                    g, alpha = native.result.h, native.final
        assert (sources, largest) == (71, 24)

    def test_a_large_path_keeps_the_shared_table_bounded(self, monkeypatch):
        m = 3 * doubling._SHARED_PROVENANCE
        path = Graph(m + 1, tuple((i, i + 1) for i in range(m)))
        alpha = EdgeColoring(m, tuple(range(1, m + 1)))
        native, reference = both_paths(path, alpha)
        assert native == reference
        assert len(doubling._PROVENANCE) <= 3 * doubling._SHARED_PROVENANCE
        # The Python path alone, from an empty table: a small graph's
        # certificate holds the table's own values, and the path leaves
        # the table as it was.
        monkeypatch.setattr(doubling, "_PROVENANCE", [])
        monkeypatch.setattr(solver, "_native", lambda: None)
        small = double_with_certificate(p3(), EdgeColoring(2, (1, 2)))
        shared = {id(prov) for prov in doubling._PROVENANCE}
        assert all(id(prov) in shared for prov in small.result.edge_provenance)
        assert double_with_certificate(path, alpha) == reference
        assert len(doubling._PROVENANCE) == 3 * p3().n

    def test_float_colors_agree_with_and_without_the_kernel(self):
        # EdgeColoring refuses a float t or color with TypeError on both
        # paths, before any check or certificate sees it.
        for t, colors in ((2, (1.0, 2.0)), (2, (True, 2.0)), (2.0, (1, 2)), (1, (1.0,))):
            seen = []
            for native in (True, False):
                with pytest.MonkeyPatch.context() as patch:
                    if not native:
                        patch.setattr(solver, "_native", lambda: None)
                    with pytest.raises(TypeError) as info:
                        EdgeColoring(t, colors)
                seen.append(str(info.value))
            assert seen[0] == seen[1], (t, colors)

    def test_certificates_of_bool_and_numpy_colors_are_plain_json(self):
        # A bool or numpy color is kept as a plain int on both paths, so
        # every certificate dumps to JSON and its documents parse back to
        # equal colorings.
        g = p3()
        for native in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not native:
                    patch.setattr(solver, "_native", lambda: None)
                for t, colors in ((2, (True, 2)), (np.int64(2), np.array([1, 2]))):
                    alpha = EdgeColoring(t, colors)
                    assert alpha == EdgeColoring(2, (1, 2))
                    assert type(alpha.t) is int and all(type(c) is int for c in alpha.colors)
                    cert = double_with_certificate(g, alpha)
                    doc = json.loads(json.dumps(certificate_to_json(cert)))
                    h = cert.result.h
                    assert coloring_from_json(g, doc["alpha"]) == alpha
                    assert coloring_from_json(h, doc["beta"]) == cert.beta
                    assert coloring_from_json(h, doc["final"]) == cert.final

    def test_domain_errors_agree(self):
        for g, alpha in (
            (two_k2(), EdgeColoring(1, (1, 1))),
            (two_k2(), EdgeColoring(2, (1, 2))),
            (Graph(1, ()), EdgeColoring(1, ())),
            (Graph(3, ()), EdgeColoring(1, ())),
            (k2(), EdgeColoring(1, (1, 1))),  # more colors than edges
            # Disconnected, and not interval at vertex 1: the domain comes first.
            (Graph(5, ((0, 1), (0, 2), (1, 2), (3, 4))), EdgeColoring(3, (1, 2, 3, 1))),
        ):
            assert raised_on_both_paths(g, alpha) is DomainError

    def test_invalid_colorings_agree(self):
        # A connected graph with a non-interval alpha: the reference's
        # message on both paths, raised before H is built.
        prefix = "source coloring is not a valid interval coloring: "
        for g, alpha, failures in (
            (k3(), EdgeColoring(3, (1, 2, 3)),
             "['spectrum [1, 3] at vertex 1 is not 2 consecutive integers']"),
            (c4(), EdgeColoring(3, (1, 1, 2, 3)),
             "['repeated colors [1] at vertex 0', 'spectrum [1] at vertex 0 is not 2 consecutive"
             " integers', 'spectrum [1, 3] at vertex 3 is not 2 consecutive integers']"),
            (k4(), EdgeColoring(6, (1, 2, 3, 4, 5, 6)),
             "['spectrum [1, 4, 5] at vertex 1 is not 3 consecutive integers', 'spectrum [2, 4, 6]"
             " at vertex 2 is not 3 consecutive integers', 'spectrum [3, 5, 6] at vertex 3 is not 3"
             " consecutive integers']"),
        ):
            assert raised_on_both_paths(g, alpha) is InvalidColoringError
            with pytest.raises(InvalidColoringError) as info:
                double_with_certificate(g, alpha)
            assert str(info.value) == prefix + failures

    def test_a_rejected_alpha_is_checked_before_h(self, catalogs):
        # The Python path checks g's domain with one classify, then alpha,
        # then builds H: a rejected alpha builds no H on either path, and
        # each fresh g is traversed once, by _classify_py alone, however
        # many of its colorings are rejected.
        assert solver._native() is not None
        sources = []
        for n in range(2, 7):
            for g in catalogs[n]:
                witness = compute_W(g).witness
                if witness is not None:
                    sources.append((g, corruptions(g, witness)))
        for native in (True, False):
            fresh = [(Graph(g.n, g.edges), bads) for g, bads in sources]
            cases = [(g, bad) for g, bads in fresh for bad in bads]
            with pytest.MonkeyPatch.context() as patch:
                if not native:
                    patch.setattr(solver, "_native", lambda: None)
                traversed = []
                traverse = _reference._traverse
                patch.setattr(_reference, "_traverse", lambda g: traversed.append(g) or traverse(g))
                patch.setattr(doubling, "Graph", refuse_graph)
                for g, bad in cases:
                    with pytest.raises(InvalidColoringError):
                        double_with_certificate(g, bad)
            assert len(traversed) == (0 if native else len(sources)), native
        assert len(cases) == 3 * 127 - 2  # K2 has the gap corruption alone

    def test_a_python_certificate_validates_alpha_and_final_once(self, monkeypatch):
        monkeypatch.setattr(solver, "_native", lambda: None)
        calls = []
        validate = doubling.validate_interval
        monkeypatch.setattr(
            doubling, "validate_interval", lambda g, c: calls.append(c) or validate(g, c)
        )
        alpha = EdgeColoring(3, (1, 2, 2, 3))
        cert = double_with_certificate(c4(), alpha)
        assert calls == [alpha, cert.final]

    def test_returns_none_where_a_check_fails(self):
        double = shared_double()
        assert double(4, two_k2().edges, (1, 1), 1) is None  # disconnected
        assert double(3, k3().edges, (1, 2, 3), 3) is None  # not interval
        assert double(3, p3().edges, (1, 1), 1) is None  # repeated color
        assert double(3, p3().edges, (1, 2), 2) is not None

    def test_returns_the_shared_pairs_and_provenance(self):
        # H's edges are graph._PAIRS's tuples and its provenance the
        # table's objects, by identity, below 64 vertices; past them each
        # edge at a w vertex >= 64 is a tuple of its own, equal to Graph's.
        table = doubling._provenance_table(40)
        for g, alpha in ((c4(), (1, 2, 2, 3)), (Graph(40, [(i, i + 1) for i in range(39)]),
                                                  tuple(range(1, 40)))):
            h_edges, provenance, *_ = solver._native().double(
                g.n, g.edges, alpha, len(set(alpha)), _PAIRS, table
            )
            assert h_edges == Graph(2 * g.n, h_edges).edges
            shared = [pair for pair in h_edges if pair[1] < 64]
            assert all(pair is _PAIRS[pair[1]][pair[0]] for pair in shared)
            # The path's H: w_0 has 2 edges and w_1 .. w_23 have 3 each.
            assert len(shared) == (12 if g.n == 4 else 2 + 3 * 23)
            ids = {id(prov) for prov in table}
            assert all(id(prov) in ids for prov in provenance)
            assert provenance == double_graph(g).edge_provenance

    def test_rejects_malformed_input(self):
        double = shared_double()
        edges, colors = c4().edges, (1, 2, 2, 3)  # (0,1),(0,3),(1,2),(2,3)
        assert double(4, edges, colors, 3) is not None
        for args in (
            (4, edges, colors[:-1], 3),  # one color short
            (4, edges, (0, *colors[1:]), 3),  # color 0
            (4, edges, (4, *colors[1:]), 3),  # color above t
            (4, edges, colors, 0),
            (4, edges, colors, 5),  # t above the edge count
            (0, edges, colors, 3),
            (3, edges, colors, 3),  # vertex 3 out of range
            (4, ((0, 1), (0, 3), (2, 3), (1, 2)), colors, 3),  # not increasing
            (4, ((1, 0), (0, 3), (1, 2), (2, 3)), colors, 3),  # a > b
            (4, ((0, 1), (0, 1), (1, 2), (2, 3)), colors, 3),  # repeated
            (4, ((0, 0), *edges[1:]), colors, 3),  # a loop
            (4, ((0, 1, 2), *edges[1:]), colors, 3),  # not a pair
            (4, (), (), 1),  # no edge
        ):
            with pytest.raises(ValueError):
                double(*args)
        with pytest.raises(TypeError):
            double(4, 5, colors, 3)
        # The shared objects: H's pair (3, 7) wrong in row 7, a row short,
        # not a tuple, a table of fewer than 3 max(m, n) = 12 codes, or not
        # a list.
        wrong = (*_PAIRS[:7], (*_PAIRS[7][:3], (0, 7), *_PAIRS[7][4:]), *_PAIRS[8:])
        table = doubling._provenance_table(4)
        for pairs, provenance in (
            (wrong, table),
            (_PAIRS[:63], table),
            ((*_PAIRS[:7], _PAIRS[7][:6], *_PAIRS[8:]), table),
            (list(_PAIRS), table),
            (_PAIRS, table[:11]),
            (_PAIRS, tuple(table)),
        ):
            with pytest.raises(ValueError):
                solver._native().double(4, edges, colors, 3, pairs, provenance)
