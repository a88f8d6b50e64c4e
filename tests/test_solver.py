from __future__ import annotations

import inspect
import json
import os
import random
import re
import shutil
import signal
import subprocess
import sys
import sysconfig
import time
import tracemalloc
from array import array
from itertools import combinations, product
from pathlib import Path

import networkx as nx
import numpy as np
import pytest

import intervalcolor
from intervalcolor import (
    DomainError,
    EdgeColoring,
    Graph,
    SearchLimits,
    SolveStatus,
    applicable_bounds,
    best_upper_bound,
    classify,
    compute_W,
    find_interval_coloring,
    generate_connected_catalog,
    is_connected,
    parse_graph6,
    validate_interval,
)
from intervalcolor import _reference, solver
from intervalcolor import graph as graph_module
from intervalcolor._reference import _plan_py, _Plan, _search_py
from intervalcolor.solver import (
    DISTANCE_MAX_M,
    _build_command,
    _build_target,
    _include_dir,
    _native,
    _overfull,
    _STATUS,
    outcome_to_json,
)
from conftest import force_python_path
from exact_cover import interval_colorable
from oracle import brute_force_W
from smallgraphs import (
    c4, complete_bipartite, cycle, hypercube, k2, k3, k4, k5, p3, p4, star, two_k2
)


def counted(f, calls: list):
    """f, appending the arguments of each call to calls."""
    return lambda *args: calls.append(args) or f(*args)


class TestFindIntervalColoring:
    def test_k3_infeasible_at_3(self):
        out = find_interval_coloring(k3(), 3)
        assert out.status is SolveStatus.INFEASIBLE
        assert out.witness is None

    def test_c4_found_at_3(self):
        out = find_interval_coloring(c4(), 3)
        assert out.status is SolveStatus.FOUND
        assert validate_interval(c4(), out.witness).verdict

    def test_p3_forced_witness(self):
        out = find_interval_coloring(p3(), 2)
        assert out.status is SolveStatus.FOUND
        assert out.witness == EdgeColoring(2, (1, 2))

    def test_rejects_disconnected(self):
        with pytest.raises(DomainError, match="disconnected"):
            find_interval_coloring(two_k2(), 2)

    def test_rejects_edgeless(self):
        with pytest.raises(DomainError, match="no edges"):
            find_interval_coloring(Graph(1, ()), 1)

    def test_rejects_t_out_of_range(self):
        with pytest.raises(DomainError, match="outside"):
            find_interval_coloring(c4(), 1)
        with pytest.raises(DomainError, match="outside"):
            find_interval_coloring(c4(), 5)

    def test_deep_path_needs_no_recursion(self):
        # One search depth per edge; the default recursion limit is 1,000.
        path = Graph(1201, tuple((i, i + 1) for i in range(1200)))
        descent = compute_W(path)
        assert descent.w == 1200
        for out in (descent, find_interval_coloring(path, 1200)):
            assert out.status is SolveStatus.FOUND
            assert out.nodes_expanded == 1200
            assert out.witness.t == 1200
            assert validate_interval(path, out.witness).verdict

    def test_aborts_on_node_limit(self):
        # C4's layer 3 takes 2 nodes (test_an_aborted_layer_reports_its_partial_coloring).
        out = find_interval_coloring(c4(), 3, SearchLimits(node_limit=1))
        assert out.status is SolveStatus.ABORTED
        assert out.nodes_expanded == 1

    def test_deterministic_witness(self):
        a = find_interval_coloring(c4(), 3)
        b = find_interval_coloring(c4(), 3)
        assert a.witness == b.witness and a.nodes_expanded == b.nodes_expanded

    def test_takes_its_domain_and_degree_from_classify(self, catalogs):
        # As in compute_W: the kernel's classify builds no lists, and
        # _classify_py makes the call's one _traverse and one degrees(). The
        # twins take n and the edges, as the kernel does, and build their own
        # Graph, so the Python path builds lists three times: for classify
        # (142 graphs), for the search (the 137 that are not overfull) and,
        # on g itself, for _report's check of each of the 121 witnesses.
        assert _native() is not _reference
        sources = [g for n in range(2, 7) for g in catalogs[n]]
        deltas = [classify(g).max_degree for g in sources]
        for native in (True, False):
            graphs = [Graph(g.n, g.edges) for g in sources]  # a Graph keeps its lists
            traversed, indexed, degrees = [], [], []
            with pytest.MonkeyPatch.context() as patch:
                if not native:
                    force_python_path(patch)
                patch.setattr(_reference, "_traverse", counted(_reference._traverse, traversed))
                patch.setattr(
                    graph_module, "_index_lists", counted(graph_module._index_lists, indexed)
                )
                patch.setattr(Graph, "degrees", counted(Graph.degrees, degrees))
                for g, delta in zip(graphs, deltas):
                    find_interval_coloring(g, delta)
            counts = len(traversed), len(indexed), len(degrees)
            assert counts == ((0, 0, 0) if native else (142, 142 + 137 + 121, 142)), native

    @pytest.mark.parametrize("native", [True, False], ids=["kernel", "python"])
    def test_palette_arguments_are_plain_ints(self, native, monkeypatch):
        # t, node_limit and t_override go through operator.index on entry, so
        # a float raises the same TypeError on both paths, and a numpy int
        # leaves no numpy int in the outcome or its JSON.
        assert _native() is not _reference
        if not native:
            force_python_path(monkeypatch)
        calls = [
            lambda: find_interval_coloring(c4(), 3.0),
            lambda: SearchLimits(node_limit=1.5),
            lambda: SearchLimits(t_override=3.0),
        ]
        for call in calls:
            with pytest.raises(TypeError, match="'float' object cannot be interpreted"):
                call()
        out = find_interval_coloring(c4(), np.int64(3))
        assert out == find_interval_coloring(c4(), 3)
        assert [type(t) for t in out.feasible_t_set] == [int]
        assert json.loads(json.dumps(outcome_to_json(out, c4())))["feasible_t_set"] == [3]
        limits = SearchLimits(np.int64(1), np.int64(3))
        assert (type(limits.node_limit), type(limits.t_override)) == (int, int)
        assert limits == SearchLimits(1, 3)
        capped = find_interval_coloring(c4(), 3, limits)
        assert (capped.status, capped.nodes_expanded) == (SolveStatus.ABORTED, 1)

    def test_edge_order_is_bfs_from_max_degree_vertex(self):
        # star: center 0 has max degree, its edges come out in index order
        assert _plan_py(star(3))[0] == [0, 1, 2]
        # C4: start at vertex 0, edges discovered (0,1),(0,3),(1,2),(2,3)
        assert [c4().edges[k] for k in _plan_py(c4())[0]] == [
            (0, 1), (0, 3), (1, 2), (2, 3),
        ]
        # tie on degree: lowest-index max-degree vertex starts
        g = Graph(4, ((1, 2), (2, 3), (1, 3), (0, 1)))
        first_edge = g.edges[_plan_py(g)[0][0]]
        assert 1 in first_edge  # vertex 1 is the lowest max-degree vertex


class TestComputeW:
    def test_traverses_the_graph_once(self):
        # The domain guard reads connectivity from classify: the kernel's
        # own traversal, or _classify_py's one _traverse.
        assert _native() is not _reference
        for native in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not native:
                    force_python_path(patch)
                calls = []
                traverse = _reference._traverse
                patch.setattr(_reference, "_traverse", lambda g: calls.append(g) or traverse(g))
                assert compute_W(c4()).w == 3
                assert len(calls) == (0 if native else 1)
                for g, match in ((two_k2(), "disconnected"), (Graph(1, ()), "no edges")):
                    with pytest.raises(DomainError, match=match):
                        compute_W(g)

    def test_builds_the_degrees_once(self, catalogs):
        # classify's degrees also give the descent's bottom and the overfull
        # test, and both plans count the degrees from the adjacency: the
        # kernel's classify counts them itself, _classify_py calls degrees().
        assert _native() is not _reference
        sources = [g for n in range(2, 7) for g in catalogs[n]]
        for native in (True, False):
            graphs = [Graph(g.n, g.edges) for g in sources]  # a Graph keeps its class
            with pytest.MonkeyPatch.context() as patch:
                if not native:
                    force_python_path(patch)
                calls = []
                degrees = Graph.degrees
                patch.setattr(Graph, "degrees", lambda g: calls.append(g) or degrees(g))
                for g in graphs:
                    compute_W(g)
            assert len(graphs) == 142 and len(calls) == (0 if native else 142), native

    def test_one_kernel_call_plans_and_searches(self, catalogs, doubled_graphs, monkeypatch):
        # A descent of a graph with the matrix: one search call, which plans
        # too, and no plan built in Python. The kernel has no other way in
        # to its plan.
        kernel = _native()
        assert not hasattr(kernel, "plan")
        searches, plans = [], []
        monkeypatch.setattr(kernel, "search", counted(kernel.search, searches))
        monkeypatch.setattr(_reference, "_plan_py", counted(_plan_py, plans))
        graphs = [g for n in range(2, 7) for g in catalogs[n]] + doubled_graphs
        graphs = [g for g in graphs if not _overfull(g, g.max_degree)]
        for g in graphs:
            compute_W(g)
        assert max(g.m for g in graphs) <= DISTANCE_MAX_M
        assert (len(searches), len(plans)) == (len(graphs), 0)

    def test_capped_answers_match_uncapped_on_n7(self):
        # compute_W at 2,000 nodes per graph on the n = 7 catalog, as the
        # n7_capped benchmark runs it: each graph either aborts or gives the
        # uncapped W and witness. Among the decided are FBn~w (W = 8) and
        # FJfvw (W = 7), whose rows in bench/reference/n7_cap300000.csv read
        # aborted, so the benchmark does not check their W. The kernel
        # alone, as the uncapped run takes the Python loop about 10 s.
        assert _native() is not _reference
        decided = {}
        for g in generate_connected_catalog(7):
            capped = compute_W(g, SearchLimits(node_limit=2000))
            if capped.status is SolveStatus.ABORTED:
                continue
            full = compute_W(g)
            assert (capped.status, capped.w, capped.witness) == (full.status, full.w, full.witness)
            decided[g] = capped.w
        assert len(decided) == 804
        assert decided[parse_graph6("FBn~w")] == 8 and decided[parse_graph6("FJfvw")] == 7

    def test_k2(self):
        out = compute_W(k2())
        assert (out.w, out.interval_colorable) == (1, True)
        assert out.witness == EdgeColoring(1, (1,))

    def test_star_meets_triangle_free_bound(self):
        out = compute_W(star(3))
        assert out.w == 3  # n - 1

    def test_k4(self):
        out = compute_W(k4())
        assert out.w == 4  # 2n - 4
        assert validate_interval(k4(), out.witness).verdict

    def test_k4_spec_witness_is_valid(self):
        # canonical order (0,1),(0,2),(0,3),(1,2),(1,3),(2,3)
        witness = EdgeColoring(4, (2, 1, 3, 3, 4, 2))
        assert validate_interval(k4(), witness).verdict

    def test_k3_not_colorable(self):
        out = compute_W(k3())
        assert out.status is SolveStatus.INFEASIBLE
        assert out.interval_colorable is False
        assert out.w is None

    def test_witness_palette_equals_w(self):
        out = compute_W(c4())
        assert out.w == 3 and out.witness.t == 3

    def test_feasible_t_set_carries_w(self):
        assert compute_W(c4()).feasible_t_set == (3,)

    def test_abort_below_first_witness(self):
        # any Found outcome needs at least m nodes, so a tiny budget aborts
        out = compute_W(k4(), SearchLimits(node_limit=3))
        assert out.status is SolveStatus.ABORTED
        assert out.last_explored_t is None

    def test_t_override_caps_search(self):
        out = compute_W(c4(), SearchLimits(t_override=2))
        assert out.w == 2

    def test_t_override_below_w_leaves_colorability_open(self):
        # W(K2) = 1 and W(C4) = 3: a descent capped below W proves nothing.
        for g, cap in ((k2(), 0), (c4(), 1)):
            out = compute_W(g, SearchLimits(t_override=cap))
            assert out.status is SolveStatus.INFEASIBLE
            assert (out.interval_colorable, out.last_explored_t) == (None, None)
        # An override at or above the theorem bound caps nothing.
        assert compute_W(k3(), SearchLimits(t_override=9)).interval_colorable is False

    @pytest.mark.parametrize("native", [True, False], ids=["kernel", "python"])
    def test_budget_spent_exactly_aborts(self, native, monkeypatch):
        # Layer 4 of this graph is proven infeasible in exactly the 1 node
        # of the limit; layer 3 then has no budget left, and must not search
        # as if 0 meant unlimited (it finds W = 3 after 4 more nodes).
        if not native:
            force_python_path(monkeypatch)
        g = parse_graph6("CN")
        layer = find_interval_coloring(g, 4)
        assert (layer.status, layer.nodes_expanded) == (SolveStatus.INFEASIBLE, 1)
        assert compute_W(g).nodes_expanded == 5
        out = compute_W(g, SearchLimits(node_limit=1))
        assert out.status is SolveStatus.ABORTED
        assert (out.nodes_expanded, out.last_explored_t) == (1, 4)

    def test_odd_cycles_not_colorable(self):
        for n in (3, 5, 7):
            out = compute_W(cycle(n))
            assert out.interval_colorable is False
            assert brute_force_W(cycle(n), min(n, 8)).interval_colorable is False

    def test_even_cycles(self):
        # W(C_2k) = k + 1; at C8 the biregular bound n-3 is tight
        for n, expected in ((4, 3), (6, 4), (8, 5), (10, 6)):
            assert compute_W(cycle(n)).w == expected
        assert brute_force_W(cycle(8), 8).feasible_t_set == (2, 3, 4, 5)


class TestBruteForce:
    def test_k3(self):
        out = brute_force_W(k3(), 4)
        assert out.interval_colorable is False
        assert out.feasible_t_set == ()

    def test_p3(self):
        out = brute_force_W(p3(), 3)
        assert (out.w, out.feasible_t_set) == (2, (2,))

    def test_c4(self):
        out = brute_force_W(c4(), 4)
        assert (out.w, out.feasible_t_set) == (3, (2, 3))

    def test_witness_is_first_in_enumeration_order(self):
        out = brute_force_W(p3(), 2)
        assert out.witness == EdgeColoring(2, (1, 2))

    def test_guard_rejects_many_edges(self):
        with pytest.raises(DomainError, match="refuses"):
            brute_force_W(star(11), 2)

    def test_guard_rejects_large_t(self):
        with pytest.raises(DomainError, match="refuses"):
            brute_force_W(p3(), 9)
        with pytest.raises(DomainError, match="refuses"):
            brute_force_W(p3(), 0)

    def test_edgeless_not_colorable(self):
        out = brute_force_W(Graph(2, ()), 3)
        assert out.interval_colorable is False

    def test_package_import_loads_no_numpy_and_no_oracle(self):
        # A fresh interpreter: this one has imported numpy for the oracle,
        # which lives in tests/, not in the package.
        probe = (
            "import sys, intervalcolor\n"
            "print('numpy' in sys.modules, hasattr(intervalcolor, 'brute_force_W'))"
        )
        src = str(Path(intervalcolor.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.split() == ["False", "False"]

    def test_star_import_without_numpy(self):
        # A fresh interpreter in which importing numpy fails.
        probe = (
            "import sys\n"
            "sys.modules['numpy'] = None\n"
            "from intervalcolor import *\n"
            "print('brute_force_W' in dir(), compute_W.__name__)"
        )
        src = str(Path(intervalcolor.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.split() == ["False", "compute_W"]

    def test_unknown_package_attribute_still_raises(self):
        with pytest.raises(AttributeError, match="no_such_name"):
            intervalcolor.no_such_name

    def test_matches_plain_enumeration(self):
        # independent reference: itertools product + the validator
        graphs = [p3(), k3(), c4(), star(3), k4()]
        for g in graphs:
            t_max = min(g.m, 6)
            expected = []
            for t in range(1, t_max + 1):
                if any(
                    validate_interval(g, EdgeColoring(t, combo)).verdict
                    for combo in product(range(1, t + 1), repeat=g.m)
                ):
                    expected.append(t)
            assert brute_force_W(g, t_max).feasible_t_set == tuple(expected)


class TestOracleAgreement:
    def test_small_catalog_agreement(self, catalogs):
        for n in (2, 3, 4):
            for g in catalogs[n]:
                bf = brute_force_W(g, min(g.m, 8))
                cw = compute_W(g)
                assert bf.interval_colorable == cw.interval_colorable
                assert bf.w == cw.w

    def test_per_t_feasibility_agreement(self, catalogs):
        # the search decision for each single t matches the enumeration oracle,
        # for every t the oracle enumerates (n = 5 has up to 10 edges)
        layers = 0
        for n in (2, 3, 4, 5):
            for g in catalogs[n]:
                oracle_feasible = set(brute_force_W(g, min(g.m, 8)).feasible_t_set)
                delta = max(g.degrees())
                for t in range(delta, min(g.m, 8) + 1):
                    decided = find_interval_coloring(g, t).status
                    expected = SolveStatus.FOUND if t in oracle_feasible else SolveStatus.INFEASIBLE
                    assert decided is expected, (g.edges, t)
                    layers += 1
        assert layers == 95

    def test_infeasible_t_never_in_oracle_set(self, catalogs):
        # downward search proves infeasibility strictly above W
        for g in catalogs[4]:
            bf = brute_force_W(g, min(g.m, 8))
            cw = compute_W(g)
            if cw.w is not None:
                assert max(bf.feasible_t_set) == cw.w


def searches(search, g: Graph, t: int) -> bool:
    """Whether ``search``, asked for g's layer t alone without the matrix,
    searches it: whether t <= min(m, 1 + max D), the caps it applies, D's
    rows read until the ceiling reaches t. Such a layer runs the loop once
    and spends the one node of the budget on the first edge, which may take
    color 1; a capped one spends none. (With the matrix, a layer above the
    ceiling has no anchor pair either, so that there the cap shows only in
    the result.)"""
    return search(g.n, g.edges, 0, t, t, 1)[1] == 1


def exact_ceiling(g: Graph) -> int:
    """min(m, 1 + max D), read from the kernel's ``search``, or 0 for an
    overfull graph, which the descent never searches."""
    if _overfull(g, g.max_degree):
        return 0
    return next(t for t in range(g.m, 0, -1) if searches(_native().search, g, t))


def line_graph_distances(g: Graph) -> list[list[int]]:
    """D by its definition, in canonical edge order: all-pairs shortest
    paths in the line graph, a step through a shared vertex v costing
    deg(v) - 1 (Floyd-Warshall)."""
    degs = g.degrees()
    far = 10**9
    dist = [[0 if i == j else far for j in range(g.m)] for i in range(g.m)]
    for i, e in enumerate(g.edges):
        for j, f in enumerate(g.edges):
            shared = set(e) & set(f)
            if i != j and shared:
                dist[i][j] = degs[shared.pop()] - 1
    for k in range(g.m):
        for i in range(g.m):
            for j in range(g.m):
                dist[i][j] = min(dist[i][j], dist[i][k] + dist[k][j])
    return dist


# Edges on 4 vertices, or a vertex count, that the kernel's search refuses
# while it plans, with the ValueError's message. C4's edges are
# (0,1),(0,3),(1,2),(2,3).
NOT_INCREASING = "search: edges must be increasing pairs (a, b), a < b"
OUT_OF_RANGE = "search: n, edges or max_m out of range"
DISCONNECTED = "search: the graph must be connected"
MALFORMED_EDGES = (
    (4, ((0, 1), (0, 3), (2, 3), (1, 2)), NOT_INCREASING),
    (4, ((1, 0), (0, 3), (1, 2), (2, 3)), NOT_INCREASING),  # a > b
    (4, ((0, 1), (0, 1), (1, 2), (2, 3)), NOT_INCREASING),  # repeated
    (4, ((0, 1), (0, 3), (1, 2), (2, 4)), "search: edge 3 has an end outside [0, 4)"),
    (4, ((0, 1), (0, 3), (1, 1), (2, 3)), NOT_INCREASING),  # loop
    (4, ((0, 1), (0, 3), (1, 2, 3)), "search: edge 2 is not a pair (a, b)"),
    (4, ((0, 1), (0, 3), (1, 2), 5), "search: edge 3 is not a pair (a, b)"),
    (4, ((0, 1), (0, 3), (1, 2), (0, "a")), "search: edge 3 has an end that is not an int"),
    (4, ((0, 1), (0, 3), (1, 2), (0, 2**70)), "search: edge 3 has an end outside [0, 4)"),
    (4, range(4), "search: edges must be a list or tuple"),
    (4, (), OUT_OF_RANGE),  # no edge
    (0, ((0, 1), (0, 3), (1, 2), (2, 3)), OUT_OF_RANGE),
    (5, ((0, 1), (0, 3), (1, 2), (2, 3)), DISCONNECTED),  # vertex 4 is isolated
    (4, ((0, 1), (2, 3)), DISCONNECTED),
)


def int32s(data: bytes) -> list[int]:
    values = array("i")
    values.frombytes(data)
    return values.tolist()


class TestProvenCeiling:
    def test_hand_computed_ceilings(self):
        # overfull (m > Delta * floor(n/2)): K3, K5, C5
        assert [exact_ceiling(g) for g in (k3(), k5(), cycle(5))] == [0, 0, 0]
        # a path's edge count, a star's leaf count and C4's are W itself
        assert exact_ceiling(k2()) == 1
        assert exact_ceiling(p4()) == 3
        assert exact_ceiling(star(4)) == 4
        assert exact_ceiling(c4()) == 3
        assert exact_ceiling(k4()) == 5  # W(K4) = 4; opposite edges: 2 steps of cost 2

    def test_matches_line_graph_floyd_warshall(self, catalogs):
        # _plan_py's matrix, in BFS positions, and the ceiling that both
        # twins' search applies with the matrix and without it (max_m = 0),
        # where it stops reading rows once the ceiling reaches top: exact
        # below top, and not below the ceiling at or above it, so the layer
        # top is searched exactly when top <= min(m, 1 + max D): without the
        # matrix its one node is spent, and with it the result is the
        # uncapped loop's, or the empty one above the cap. The kernel's
        # matrix is checked against _plan_py's through its search
        # (test_plans_agree).
        for n in range(2, 7):
            for g in catalogs[n]:
                dist = line_graph_distances(g)
                plan = _plan_py(g)
                expected = [dist[e][f] for e in plan.order for f in plan.order]
                found = (int32s(plan.dist), plan.longest)
                assert found == (expected, max(expected)), g.edges
                exact = 1 + max(expected)
                overfull = g.m > g.max_degree * (n // 2)
                assert exact_ceiling(g) == (0 if overfull else min(g.m, exact)), g.edges
                for search, top in product(
                    (_native().search, _reference.search), range(1, exact + 2)
                ):
                    searched = top <= min(g.m, exact)
                    assert searches(search, g, top) == searched, (g.edges, search, top)
                    uncapped = _search_py(g.n, *plan[:6], top, top, 1) if searched else None
                    found = search(g.n, g.edges, DISTANCE_MAX_M, top, top, 1)
                    assert found == (uncapped or (0, 0, top, [])), (g.edges, search, top)

    def test_past_the_matrix_one_row_can_settle_the_ceiling(self, monkeypatch):
        # K33 (528 edges, every D 31 or 62, so each row reaches the ceiling
        # 63) and a caterpillar of 600 edges whose first BFS edge, (0, 1),
        # ends its longest path (a spine 1 .. 300 with leaf 0; vertex 1,
        # of degree 4, has two more leaves and each inner spine vertex one),
        # so that row 0 reaches the ceiling m. Past DISTANCE_MAX_M neither
        # has the matrix, and asked for the layer at the ceiling, both
        # twins search it after reading one row, which the Python twin's
        # count of rows shows; one above it, they read every row and
        # search nothing.
        k33 = Graph(33, tuple(combinations(range(33), 2)))
        spine = [(i, i + 1) for i in range(1, 300)]
        leaves = [(0, 1), (1, 301), (1, 302)] + [(i, 301 + i) for i in range(2, 300)]
        caterpillar = Graph(601, tuple(spine + leaves))
        rows = []
        distance_rows = _reference._distance_rows

        def counted_rows(*args):
            for row in distance_rows(*args):
                rows.append(row)
                yield row

        monkeypatch.setattr(_reference, "_distance_rows", counted_rows)
        for g, ceiling in ((k33, 63), (caterpillar, 600)):
            assert g.m > DISTANCE_MAX_M and _plan_py(g).dist == b""
            for top, read in ((ceiling, 1), (ceiling + 1, g.m)):
                rows.clear()
                native, reference = both_searches(g, top, top, 1, DISTANCE_MAX_M)
                assert native == reference, (g.m, top)
                assert (native[1], len(rows)) == (1 if top == ceiling else 0, read), (g.m, top)

    def test_layers_above_ceiling_cost_no_nodes(self):
        out = compute_W(k5())
        assert out.status is SolveStatus.INFEASIBLE and out.nodes_expanded == 0
        assert out.last_explored_t == 4
        layer = find_interval_coloring(k4(), 6)
        assert (layer.status, layer.nodes_expanded) == (SolveStatus.INFEASIBLE, 0)

    def test_an_overfull_graph_gets_no_plan(self, monkeypatch):
        # Neither the kernel's search, which plans, nor _plan_py may run.
        def refuse(*args):
            raise AssertionError("an overfull graph was planned")

        kernel = _native()
        monkeypatch.setattr(kernel, "search", refuse)
        monkeypatch.setattr(_reference, "_plan_py", refuse)
        for native in (kernel, _reference):
            monkeypatch.setattr(solver, "_native", lambda: native)
            out = compute_W(k3())
            assert (out.status, out.nodes_expanded, out.last_explored_t) == (
                SolveStatus.INFEASIBLE, 0, 2
            )
            assert find_interval_coloring(k5(), 4).status is SolveStatus.INFEASIBLE

    def test_oracle_never_exceeds_ceiling(self, catalogs):
        # Every graph with n <= 5 (all have m <= 10) and with n = 6, m <= 8;
        # n = 6 with m = 9 or 10 would add about 90 s of enumeration. Where
        # the ceiling is at least the oracle's t_max the check is vacuous.
        checked = overfull = 0
        for n in range(2, 7):
            for g in catalogs[n]:
                ceiling = exact_ceiling(g)
                t_max = min(g.m, 8)
                if g.m > (10 if n <= 5 else 8) or ceiling >= t_max:
                    continue
                bf = brute_force_W(g, t_max)
                assert (bf.w or 0) <= ceiling, (g.edges, ceiling, bf.w)
                checked += 1
                if ceiling == 0:
                    assert bf.interval_colorable is False
                    overfull += 1
        assert checked >= 50 and overfull >= 4

    def test_registry_cutoffs_hold_by_search(self, catalogs):
        # Between the registry cutoff and the self-proving ceiling min(m,
        # path ceiling), every layer must be infeasible by actual search; a
        # misstated theorem bound would show up here as a found coloring.
        layers = 0
        for n in range(2, 7):
            for g in catalogs[n]:
                cutoff = best_upper_bound(g, classify(g))
                for t in range(cutoff + 1, min(g.m, exact_ceiling(g)) + 1):
                    out = find_interval_coloring(g, t)
                    assert out.status is SolveStatus.INFEASIBLE, (g.edges, t)
                    assert out.nodes_expanded > 0
                    layers += 1
        assert layers > 0

    def test_t2_and_t7_cutoffs_match_a_descent_that_ignores_them(self):
        # Graphs with n = 8..10, where T2 (C8, C10) or T7 (most regular
        # graphs here) can be the registry minimum. The descent below starts
        # at min(m, path ceiling) and never reads the registry, so a theorem
        # bound stated below W would make compute_W report a smaller W.
        graphs = [cycle(8), cycle(10)]
        for r, n in ((3, 8), (3, 10), (4, 10)):
            for seed in range(6):
                edges = nx.random_regular_graph(r, n, seed=seed).edges()
                graphs.append(Graph(n, tuple(edges)))
        binding = set()
        for g in graphs:
            assert is_connected(g)
            claims = applicable_bounds(g, classify(g))
            binding |= {c.theorem_id for c in claims if c.bound == min(c.bound for c in claims)}
            w = None
            for t in range(min(g.m, exact_ceiling(g)), g.max_degree - 1, -1):
                if find_interval_coloring(g, t).status is SolveStatus.FOUND:
                    w = t
                    break
            assert compute_W(g).w == w, g.edges
        assert {"T2_biregular", "T7_regular"} <= binding

    def test_first_witness_is_lexicographically_smallest(self, catalogs):
        # The reversal cut keeps the first witness only because the search
        # meets colorings in lexicographic order (BFS edge order); check that
        # order against plain enumeration.
        for n in (2, 3, 4):
            for g in catalogs[n]:
                if g.m > 5:
                    continue
                order = _plan_py(g)[0]
                for t in range(g.max_degree, g.m + 1):
                    expected = None
                    for combo in product(range(1, t + 1), repeat=g.m):
                        colors = [0] * g.m
                        for eid, c in zip(order, combo):
                            colors[eid] = c
                        coloring = EdgeColoring(t, tuple(colors))
                        if validate_interval(g, coloring).verdict:
                            expected = coloring
                            break
                    assert find_interval_coloring(g, t).witness == expected, (g.edges, t)


def layer_args(g: Graph, plan: _Plan, t: int, budget: int) -> tuple:
    """The arguments of the kernel's ``search`` and ``_search_py`` that
    decide the one palette size t of g with ``plan``."""
    return (g.n, *plan[:6], t, t, budget)


def layer_by_layer(g: Graph, plan: _Plan, top: int, bottom: int, budget: int) -> tuple:
    """What one search call over palette sizes top .. bottom returns, from
    one ``_search_py`` call per layer: the layers share the budget, and a
    layer whose turn comes once it is spent aborts with no node."""
    nodes = 0
    for t in range(top, bottom - 1, -1):
        if budget and nodes >= budget:
            return 2, nodes, t + 1, [0] * g.m
        left = budget and budget - nodes
        status, spent, last, colors = _search_py(*layer_args(g, plan, t, left))
        nodes += spent
        if status:
            return status, nodes, last, colors
    return 0, nodes, bottom, []


@pytest.fixture(scope="module")
def plan_families(catalogs, doubled_graphs) -> list[tuple[Graph, _Plan]]:
    """The graphs on which the plans are checked, each with ``_plan_py``'s
    plan, built once for both checks: the connected catalogs with n <= 7,
    the doubled graphs, seeded gnp graphs with n = 8 to 24, and twin-rich
    ones (complete, complete multipartite, stars)."""
    graphs = [g for n in range(1, 7) for g in catalogs[n] if g.m]
    graphs += [*generate_connected_catalog(7), *doubled_graphs]
    for n in range(8, 25):
        for p in (0.1, 0.3, 0.6, 0.9):
            for seed in range(5):
                graphs.append(Graph(n, tuple(nx.gnp_random_graph(n, p, seed=seed).edges())))
    for n in range(2, 13):
        graphs.append(Graph(n, tuple(combinations(range(n), 2))))
        graphs.append(star(n))
    for parts in [(a, b) for a in range(1, 6) for b in range(a, 7)] + [
        (1, 1, 1), (2, 2, 2), (1, 2, 3), (3, 3, 3), (1, 1, 4, 4), (2, 2, 2, 2, 2),
    ]:
        graphs.append(Graph(sum(parts), tuple(nx.complete_multipartite_graph(*parts).edges())))
    return [(g, _plan_py(g)) for g in graphs if is_connected(g)]


def copy_package(tmp_path: Path) -> Path:
    """A copy of the package under tmp_path, with no built kernel."""
    package = tmp_path / "intervalcolor"
    source = Path(intervalcolor.__file__).parent
    shutil.copytree(source, package, ignore=shutil.ignore_patterns("__pycache__"))
    return package


def run_probe(tmp_path: Path, probe: str, path: str = os.environ["PATH"]) -> str:
    """The output of probe, run in a fresh interpreter on the package copy
    under tmp_path, with ``path`` as PATH."""
    env = {**os.environ, "PATH": path, "PYTHONPATH": str(tmp_path)}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True,
        timeout=120,
    )
    return result.stdout.strip()


# Prints the path of the kernel a fresh process loads.
LOADED = "from intervalcolor.solver import _native\nprint(_native().__file__)"


def searched_layers(g: Graph) -> range:
    return range(g.max_degree, min(g.m, best_upper_bound(g, classify(g))) + 1)


def twin_floors(g: Graph, order: list[int]) -> list[list[tuple[int, int]]]:
    """The twin swaps' case of the orbit rule by its definition, for the BFS
    edge order ``order``: twins found among all pairs of vertices, and each
    twin y after the first of its class in the BFS vertex order swapped with
    the twin just before it and with the first. For each swap, the first
    edge k it moves, among all the edges it moves, and the edge j that
    receives it, which shares an end with k, give the floor (k, 1) on j;
    each edge's floors sorted."""
    position = [0] * g.m
    for k, eid in enumerate(order):
        position[eid] = k
    eid = {e: i for i, e in enumerate(g.edges)}
    at = [
        {u: position[eid[min(v, u), max(v, u)]] for u in nbrs} for v, nbrs in enumerate(g.adjacency)
    ]
    floors: list[list[tuple[int, int]]] = [[] for _ in range(g.m)]
    visit = bfs_vertices(g)
    for i, y in enumerate(visit):
        earlier = [x for x in visit[:i] if set(at[x]) - {y} == set(at[y]) - {x}]
        for x in {*earlier[:1], *earlier[-1:]}:
            swaps = [sorted((at[x][u], at[y][u])) for u in set(at[x]) - {y}]
            if swaps:
                k, j = min(swaps)
                floors[j].append((k, 1))
    return [sorted(floor) for floor in floors]


class TestTwinCut:
    """The twin swaps' floors in ``_plan_py``: the orbit rule of the module
    docstring for each swap of twins, which a plan without the matrix has
    alone. The kernel's are checked against them through its search
    (``TestNativeKernel.test_plans_agree``)."""

    def floors(self, g: Graph, max_m: int = 0) -> list[list[tuple[int, int]]]:
        return [sorted(floor) for floor in _plan_py(g, max_m).floors]

    def test_matches_all_pairs_construction(self, plan_families):
        cut = 0
        for g, plan in plan_families:
            floors = twin_floors(g, plan.order)
            assert self.floors(g) == floors, g.edges
            cut += floors != [[]] * g.m
        assert (len(plan_families), cut) == (1309, 810)

    def test_memory_is_linear_on_a_long_path(self):
        # tracemalloc sees the kernel's PyMem allocations too; a search of
        # one node is mostly its plan.
        path = Graph(40_000, tuple((i, i + 1) for i in range(39_999)))
        for plan in (lambda g: _native().search(g.n, g.edges, DISTANCE_MAX_M, 2, 2, 1), _plan_py):
            tracemalloc.start()
            try:
                plan(path)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 50 * 2**20, plan

    def test_a_large_twin_class_is_fast(self):
        # K400 is one class of 400 twins, 79,800 pairs with 398 moved edges
        # each; listing them all took about 20 s.
        probe = (
            "import time\n"
            "from intervalcolor import Graph\n"
            "from intervalcolor._reference import _plan_py\n"
            "from intervalcolor.solver import DISTANCE_MAX_M, _native\n"
            "g = Graph(400, tuple((i, j) for i in range(400) for j in range(i + 1, 400)))\n"
            "search = _native().search\n"
            "for plan in (lambda g: search(g.n, g.edges, DISTANCE_MAX_M, 399, 399, 1), _plan_py):\n"
            "    start = time.perf_counter()\n"
            "    plan(g)\n"
            "    print(time.perf_counter() - start)"
        )
        src = str(Path(intervalcolor.__file__).resolve().parents[1])
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env={**os.environ, "PYTHONPATH": src},
            check=True, timeout=120,
        )
        assert all(float(seconds) < 5 for seconds in result.stdout.split())

    def test_hand_checked_plans(self):
        # K1,3: the leaves are twins, so each edge at the center holds more
        # than every edge before it.
        assert self.floors(star(3)) == [[], [(0, 1)], [(0, 1), (1, 1)]]
        # C4, BFS order (0,1),(0,3),(1,2),(2,3): swapping 1 and 3 moves
        # (0,1) to (0,3); swapping 0 and 2 moves (0,1) to (1,2).
        assert self.floors(c4()) == [[], [(0, 1)], [(0, 1)], []]
        # K4, BFS order (0,1),(0,2),(0,3),(1,2),(1,3),(2,3): every pair is a
        # twin pair, and the swaps are 0<->1, 1<->2, 0<->2, 2<->3 and 0<->3;
        # (1,2) receives (0,2) under 0<->1 (k = 1) and (0,1) under 0<->2
        # (k = 0), and keeps both.
        assert self.floors(k4()) == [[], [(0, 1)], [(1, 1)], [(0, 1), (1, 1)], [(0, 1)], []]
        # K2: twins, but the swap moves no edge.
        assert self.floors(k2()) == [[]]
        # With the matrix the harvest adds C4's 0<->1, 2<->3, which fixes
        # (0,1) and sends (1,2) onto (0,3): the floor (1, 0) on (1,2).
        assert self.floors(c4(), DISTANCE_MAX_M) == [[], [(0, 1)], [(0, 1), (1, 0)], []]

    def test_twin_free_graphs_get_no_cut(self):
        # P4, C5 and an asymmetric graph on 12 vertices; the last has no
        # automorphism, so no floor with the matrix either, and edge 0's
        # orbit is edge 0 alone.
        asymmetric = intervalcolor.parse_graph6("KMeF`]~dsTJJ")
        for g in (p4(), cycle(5), asymmetric):
            assert self.floors(g) == [[]] * g.m
        plan = _plan_py(asymmetric)
        assert plan.floors == [[]] * asymmetric.m
        assert plan.orbit == [True] + [False] * (asymmetric.m - 1)

    def test_cut_keeps_status_and_witness_and_saves_nodes(self, catalogs, doubled_graphs):
        # The same Python loop with and without the symmetry rules (no
        # floor, and edge 0's orbit edge 0 alone, which leaves its own
        # reversal cut), on every searched layer of the n <= 6 catalogs and
        # the doubled graphs: the static loop alone, and with the anchor
        # sweep where _anchored takes it. A feasible layer's later runs
        # search below the least coloring found, which the rules can raise,
        # so there the saving shows in the total.
        for sweep in (False, True):
            layers = cut = total = plain_total = 0
            with pytest.MonkeyPatch.context() as patch:
                if not sweep:
                    patch.setattr(_reference, "_anchored", lambda pairs, m: False)
                for g in [g for n in range(2, 7) for g in catalogs[n]] + doubled_graphs:
                    plan = _plan_py(g)
                    bare = plan._replace(floors=[[]] * g.m, orbit=[True] + [False] * (g.m - 1))
                    for t in searched_layers(g):
                        status, nodes, _, colors = _search_py(*layer_args(g, plan, t, 0))
                        plain = _search_py(*layer_args(g, bare, t, 0))
                        assert (status, colors) == (plain[0], plain[3]), (g.edges, t)
                        assert nodes <= plain[1] or (sweep and status == 1), (g.edges, t)
                        layers += 1
                        cut += nodes < plain[1]
                        total += nodes
                        plain_total += plain[1]
            assert layers == 660 and cut > 0 and total < plain_total, sweep


class TestDistanceRule:
    """The distance rule of the module docstring, in ``_search_py``."""

    def test_rule_keeps_status_and_witness_and_saves_nodes(self, catalogs):
        # The same Python loop with and without the matrix, on every searched
        # layer of the n <= 6 catalogs (the doubled graphs take seconds
        # without the rule; the kernel's agreement covers them): the static
        # loop alone, and with the anchor sweep, which needs the matrix,
        # where _anchored takes it. A feasible layer's sweep pays for runs
        # that find no coloring below the least, so there it need not save.
        for sweep in (False, True):
            layers = cut = 0
            with pytest.MonkeyPatch.context() as patch:
                if not sweep:
                    patch.setattr(_reference, "_anchored", lambda pairs, m: False)
                for g in [g for n in range(2, 7) for g in catalogs[n]]:
                    plan = _plan_py(g)
                    for t in searched_layers(g):
                        status, nodes, _, colors = _search_py(*layer_args(g, plan, t, 0))
                        plain = _search_py(*layer_args(g, plan._replace(dist=b""), t, 0))
                        assert (status, colors) == (plain[0], plain[3]), (g.edges, t)
                        assert nodes <= plain[1] or (sweep and status == 1), (g.edges, t)
                        layers += 1
                        cut += nodes < plain[1]
            assert layers == 545 and cut > 300, sweep

    def test_the_matrix_is_a_metric(self, catalogs, doubled_graphs):
        # The search bounds edge k's candidates by its own range alone, which
        # holds only when D is a metric (module docstring): zero diagonal,
        # symmetric, and D(i, j) <= D(i, k) + D(k, j) for every k.
        rng = random.Random(29)
        sampled = []
        while len(sampled) < 40:
            n = rng.randint(8, 18)
            g = Graph(n, tuple(nx.gnp_random_graph(n, rng.uniform(0.15, 0.6), seed=rng).edges()))
            if g.m and is_connected(g):
                sampled.append(g)
        for g in [g for n in range(2, 7) for g in catalogs[n]] + doubled_graphs + sampled:
            d = np.array(int32s(_plan_py(g).dist)).reshape(g.m, g.m)
            assert not d.diagonal().any() and (d == d.T).all(), g.edges
            through = d[:, :, None] + d[None, :, :]  # [i, k, j]: D(i, k) + D(k, j)
            assert (d[:, None, :] <= through).all(), g.edges


def both_searches(g: Graph, top: int, bottom: int, budget: int, max_m: int) -> tuple:
    """The kernel's ``search`` of g's palette sizes top .. bottom, and its
    Python twin's."""
    args = (g.n, g.edges, max_m, top, bottom, budget)
    return _native().search(*args), _reference.search(*args)


class TestNativeKernel:
    """The compiled kernel, which plans and searches in one call, against
    its Python twin, ``_reference.search``."""

    def agree(self, g: Graph, t: int, budget: int, max_m: int = DISTANCE_MAX_M) -> bool:
        native, reference = both_searches(g, t, t, budget, max_m)
        return native == reference

    def test_kernel_loads_here(self):
        # Without it the tests below would compare the Python loop with itself.
        assert _native() is not _reference

    def test_the_twin_has_every_entry_with_its_arguments(self):
        # _native returns _reference where the kernel does not load, so each
        # entry of the kernel must be there, with the parameters its
        # methods[] docstring names.
        kernel = _native()
        entries = [name for name in dir(kernel) if not name.startswith("_")]
        assert len(entries) == 8
        for name in entries:
            named = re.match(rf"{name}\((.*?)\)", getattr(kernel, name).__doc__)
            twin = getattr(_reference, name)
            assert callable(twin), name
            assert list(inspect.signature(twin).parameters) == named[1].split(", "), name

    def test_headers_are_where_sysconfig_says(self):
        assert _include_dir() == sysconfig.get_paths()["include"]

    def test_agrees_on_catalog_and_doubled_layers(self, catalogs, doubled_graphs):
        # With the matrix, and on the catalogs also without it (max_m = 0);
        # the doubled graphs take seconds in Python without the rule.
        runs = [(g, max_m) for n in range(2, 7) for g in catalogs[n] for max_m in (DISTANCE_MAX_M, 0)]
        runs += [(g, DISTANCE_MAX_M) for g in doubled_graphs]
        layers = 0
        for g, max_m in runs:
            for t in searched_layers(g):
                for budget in (0, 1, 5, 50):
                    assert self.agree(g, t, budget, max_m), (g.edges, t, budget, max_m)
                    layers += 1
        assert layers == 2640 + 2180

    def test_ranges_agree_with_one_call_per_layer(self, catalogs, doubled_graphs):
        # Ranges from each of the three tops at and below min(m, ceiling)
        # down to the maximum degree, the budget unlimited, small, or spent
        # exactly at the end of a layer, so that the next one aborts before
        # its first node. The descent never searches an overfull graph (K3,
        # K5, C5, ...), but the search decides its plan's layers too.
        ranges = boundaries = overfull = 0
        for g in [g for n in range(2, 7) for g in catalogs[n] if g.m] + doubled_graphs:
            plan = _plan_py(g)
            delta = g.max_degree
            overfull += _overfull(g, delta)
            high = min(g.m, 1 + plan.longest)
            for top in range(max(delta, high - 2), high + 1):
                ends_at = set()  # the nodes spent when each layer is decided
                for t in range(top, delta - 1, -1):
                    status, nodes, _, _ = layer_by_layer(g, plan, top, t, 0)
                    ends_at.add(nodes)
                    if status:
                        break
                for budget in sorted({0, 1, 5, 50} | ends_at):
                    expected = layer_by_layer(g, plan, top, delta, budget)
                    found = both_searches(g, top, delta, budget, DISTANCE_MAX_M)
                    assert found == (expected, expected), (g.edges, top, budget)
                    ranges += 1
                    if budget in ends_at and budget and expected[0] == 2:
                        assert expected[1] == budget and not any(expected[3])
                        boundaries += 1
        assert (ranges, boundaries, overfull) == (2462, 237, 5)

    def test_ranges_agree_past_the_distance_matrix(self):
        # Caterpillars of 513 and 600 edges, past DISTANCE_MAX_M, so the
        # search runs without the distance rule: the top layer, t = m, is
        # feasible (about 30,000 and 107,000 nodes), and budgets of 3,000 and
        # 1 abort inside it.
        rng = random.Random(19)
        for m in (DISTANCE_MAX_M + 1, 600):
            edges = [(i, i + 1) for i in range(m // 2)]
            edges += [(rng.randrange(len(edges)), v) for v in range(m // 2 + 1, m + 1)]
            g = Graph(m + 1, tuple(edges))
            plan = _plan_py(g)
            assert plan.dist == b"" and g.m == m
            for top, bottom, budget in ((m, m - 3, 0), (m, g.max_degree, 3000), (m - 1, m - 2, 1)):
                expected = layer_by_layer(g, plan, top, bottom, budget)
                found = both_searches(g, top, bottom, budget, DISTANCE_MAX_M)
                assert found == (expected, expected), (m, top, budget)

    def test_an_aborted_layer_reports_its_partial_coloring(self):
        # C4's layer t = 3 has 4 anchor pairs (opposite edges, D = 2), so
        # its first run's ranges hold BFS edges 0 and 3 at 1 and 3, and it
        # finds (1, 2, 2, 3) in BFS order after 2 nodes, the forced edges
        # counting none; cut after 1, edges 0 and 1 hold 1 and 2, and edge
        # 3, not reached yet, holds none. Without the matrix the one run
        # finds it after 4 nodes; cut after 2, edges 0 and 1 hold 1 and 2.
        # Layer 4 lies above C4's ceiling, 3: the search skips it with the
        # matrix and without. _search_py, uncapped, finds no anchor pair
        # there with the matrix, and without it proves the layer infeasible
        # in 4 nodes, so that a budget spent on layer 4 leaves layer 3 none.
        g = c4()
        plan = _plan_py(g)
        for max_m in (DISTANCE_MAX_M, 0):
            for top, budget in ((3, 1), (3, 2), (4, 2), (4, 0), (4, 4)):
                native, reference = both_searches(g, top, 3, budget, max_m)
                assert native == reference, (max_m, top, budget)
        search = _native().search
        assert search(4, g.edges, DISTANCE_MAX_M, 4, 3, 1) == (2, 1, 4, [1, 2, 0, 0])
        assert search(4, g.edges, DISTANCE_MAX_M, 4, 3, 0) == (1, 2, 3, [1, 2, 2, 3])
        assert search(4, g.edges, 0, 4, 3, 2) == (2, 2, 4, [1, 2, 0, 0])
        assert search(4, g.edges, 0, 4, 3, 0) == (1, 4, 3, [1, 2, 2, 3])
        assert search(4, g.edges, 0, 4, 3, 4) == (1, 4, 3, [1, 2, 2, 3])
        assert _search_py(*layer_args(g, plan, 3, 1)) == (2, 1, 4, [1, 2, 0, 0])
        assert _search_py(g.n, *plan[:6], 4, 3, 0) == (1, 2, 3, [1, 2, 2, 3])
        plain = plan._replace(dist=b"")
        assert _search_py(g.n, *plain[:6], 4, 3, 0) == (1, 8, 3, [1, 2, 2, 3])
        assert _search_py(g.n, *plain[:6], 4, 3, 4) == (2, 4, 4, [0, 0, 0, 0])

    def test_search_rejects_malformed_input(self):
        # The range as asked: an empty one is an error even where the caps
        # would empty it anyway.
        search = _native().search
        edges = c4().edges
        for top, bottom, budget in ((3, 4, 0), (3, 0, 0), (3, 3, -1)):
            with pytest.raises(ValueError, match="palette range or budget out of range"):
                search(4, edges, DISTANCE_MAX_M, top, bottom, budget)
        with pytest.raises(TypeError):
            search(3, 5, DISTANCE_MAX_M, 3, 1, 0)

    def test_descent_agrees_with_t_override_below_the_ceiling(self, catalogs, doubled_graphs):
        # compute_W with the cutoff capped below the registry bound and the
        # ceiling, on both implementations, with budgets that abort in the
        # middle of a layer and at a layer's end.
        checked = 0
        for g in [g for n in range(3, 7) for g in catalogs[n]] + doubled_graphs:
            if _overfull(g, g.max_degree):
                continue
            plan = _plan_py(g)
            cap = min(best_upper_bound(g, classify(g)), exact_ceiling(g)) - 1
            if cap < g.max_degree:
                continue
            first = _search_py(*layer_args(g, plan, cap, 0))[1]
            for budget in (0, 3, first, first + 1):
                limits = SearchLimits(node_limit=budget, t_override=cap)
                outcomes = []
                for native in (True, False):
                    with pytest.MonkeyPatch.context() as patch:
                        if not native:
                            force_python_path(patch)
                        outcomes.append(compute_W(g, limits))
                assert outcomes[0] == outcomes[1], (g.edges, budget)
                status, nodes, last, colors = layer_by_layer(g, plan, cap, g.max_degree, budget)
                out = outcomes[0]
                assert (out.status, out.nodes_expanded) == (_STATUS[status], nodes)
                if status == 1:
                    assert (out.w, out.witness.colors) == (last, tuple(colors))
                else:
                    assert out.last_explored_t == (last if last <= cap else None)
                    assert out.interval_colorable is None
                checked += 1
        assert checked == 4 * 155

    def test_agrees_on_n7_layers(self):
        layers = 0
        for g in generate_connected_catalog(7):
            for t in range(g.max_degree, best_upper_bound(g, classify(g)) + 1):
                assert self.agree(g, t, 500), (g.edges, t)
                layers += 1
        assert layers == 4892

    def test_agrees_on_a_deep_path(self):
        # 1,200 edges: masks of 19 words per vertex.
        path = Graph(1201, tuple((i, i + 1) for i in range(1200)))
        for t in (1199, 1200):
            assert self.agree(path, t, 0)

    @staticmethod
    def seconds_to_interrupt(build: str, limits: str) -> float:
        """Seconds from a SIGINT, sent a second into compute_W(g, limits) on
        the kernel in a child process, g bound by the statements build, to
        the child's end by KeyboardInterrupt."""
        lines = (
            "import random",
            "from intervalcolor import Graph, SearchLimits, compute_W, parse_graph6",
            "from intervalcolor.solver import _native",
            "assert _native().__name__ == 'intervalcolor._search'",
            build,
            "print('searching', flush=True)",
            f"compute_W(g, {limits})",
        )
        probe = "\n".join(lines)
        src = str(Path(intervalcolor.__file__).resolve().parents[1])
        child = subprocess.Popen(
            [sys.executable, "-c", probe],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            assert child.stdout.readline() == "searching\n"
            time.sleep(1)
            child.send_signal(signal.SIGINT)
            sent = time.perf_counter()
            _, err = child.communicate(timeout=30)
        finally:
            child.kill()
        assert child.returncode == -signal.SIGINT and "KeyboardInterrupt" in err
        return time.perf_counter() - sent

    def test_ctrl_c_stops_a_long_search(self):
        # Uncapped, compute_W on this graph runs far longer than this test
        # waits: networkx's gnp_random_graph(12, 0.6, seed=0), which is not
        # overfull and has no automorphism but the identity, so that no
        # symmetry cut can shorten its search.
        self.seconds_to_interrupt("g = parse_graph6('KMeF`]~dsTJJ')", "SearchLimits()")

    def test_ctrl_c_stops_the_ceiling_pass(self):
        # Past DISTANCE_MAX_M, search reads D's rows until the ceiling
        # reaches top, here the registry bound, far above the ceiling of
        # this sparse graph (a random tree on 10,000 vertices and random
        # edges up to 29,999), so every row is read before the one node:
        # 37 s on a 2-core Xeon. Ctrl-C stops the pass after one walk.
        build = (
            "rng = random.Random(1)\n"
            "edges = {(rng.randrange(i), i) for i in range(1, 10000)}\n"
            "while len(edges) < 29999:\n"
            "    edges.add(tuple(sorted(rng.sample(range(10000), 2))))\n"
            "g = Graph(10000, sorted(edges))"
        )
        assert self.seconds_to_interrupt(build, "SearchLimits(node_limit=1)") < 5

    def test_caps_top_at_m_in_a_small_peak(self):
        # The search caps top at m, so a top far past int32 decides what
        # top = m decides, in buffers sized by m: uncapped, 2**40 colors
        # would ask for 8 TB of color counts.
        tracemalloc.start()
        try:
            for g in (c4(), k4()):
                for max_m in (DISTANCE_MAX_M, 0):
                    expected = _native().search(g.n, g.edges, max_m, g.m, g.max_degree, 0)
                    for top in (2**40, 2**63 - 1):
                        found = _native().search(g.n, g.edges, max_m, top, g.max_degree, 0)
                        assert found == expected, (g.edges, max_m, top)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_agrees_across_mask_words_on_long_graphs(self):
        # Seeded random connected non-path graphs with 64 < m <= 200 and a
        # distance matrix: a path with two chords and a random tree grown
        # on it, whose long weighted paths keep palettes near m under the
        # ceiling. Colors up to 63 lie in the first mask word, 64 to 127 in
        # the second and 128 on in the third, and t = m - 1 or m soon leaves
        # surjectivity only unused colors to pick.
        checked = 0
        for seed in range(20):
            rng = random.Random(seed)
            m = rng.randint(128, 132) if seed % 4 == 0 else rng.randint(65, 68)
            spine = rng.randint(m // 4, m // 2)
            edges = {(i, i + 1) for i in range(spine - 1)}
            for _ in range(2):
                i = rng.randrange(spine - 3)
                edges.add((i, i + rng.choice((2, 3))))
            n = spine
            while len(edges) < m:
                edges.add((rng.randrange(n), n))
                n += 1
            g = Graph(n, tuple(edges))
            assert is_connected(g) and g.max_degree >= 3 and _plan_py(g).dist
            for t in sorted({63, 64, 127, 128, m - 1, m}):
                if g.max_degree <= t <= m:
                    for budget in (1, 50, 2000):
                        assert self.agree(g, t, budget), (seed, t, budget)
                        checked += 1
        assert checked == 249

    def test_plans_agree(self, plan_families):
        # The kernel's plan against _plan_py's through their searches, whose
        # results show the edge order, the floors and orbit (in the nodes) and the
        # matrix (in the nodes and the ceiling): the layer t = max degree and
        # the range from m, which both cap at the ceiling, down to it, at a
        # budget of m nodes.
        # The gnp graphs stop at n = 16, as the Python loop takes seconds on
        # the larger ones. The paths have DISTANCE_MAX_M and DISTANCE_MAX_M + 1
        # edges, on both sides of the matrix.
        runs = [g for g, _ in plan_families if g.n <= 16]
        for m in (DISTANCE_MAX_M, DISTANCE_MAX_M + 1):
            runs.append(Graph(m + 1, tuple((i, i + 1) for i in range(m))))
        checked = 0
        for g in runs:
            for top in {g.max_degree, g.m}:
                native, reference = both_searches(g, top, g.max_degree, g.m, DISTANCE_MAX_M)
                assert native == reference, (g.edges, top)
                checked += 1
        assert checked == 2346  # over 1,185 graphs

    def test_plans_agree_on_k400_and_a_long_path(self):
        # The plans of graphs past the matrix, through one node of search.
        k400 = Graph(400, tuple(combinations(range(400), 2)))
        path = Graph(100_000, tuple((i, i + 1) for i in range(99_999)))
        for g in (k400, path):
            t = g.max_degree
            native, reference = both_searches(g, t, t, 1, DISTANCE_MAX_M)
            assert native == reference and native[:3] == (2, 1, t + 1), g.n

    def test_plan_rejects_malformed_input(self):
        # Edges, vertex count and max_m as the search reads them to plan,
        # and as automorphisms reads them, whose messages name it.
        kernel = _native()
        calls = {
            "search": lambda n, edges, max_m: kernel.search(n, edges, max_m, 3, 1, 0),
            "automorphisms": kernel.automorphisms,
        }
        for (entry, call), (n, bad, message) in product(calls.items(), MALFORMED_EDGES):
            with pytest.raises(ValueError) as refused:
                call(n, bad, DISTANCE_MAX_M)
            assert str(refused.value) == message.replace("search", entry, 1), (entry, bad)
        for entry, call in calls.items():
            with pytest.raises(ValueError, match=OUT_OF_RANGE.replace("search", entry, 1)):
                call(4, c4().edges, -1)

    def test_agrees_on_both_sides_of_the_distance_threshold(self):
        # Paths of DISTANCE_MAX_M and DISTANCE_MAX_M + 1 edges: the first
        # gets the matrix and the rule, the second neither.
        for m in (DISTANCE_MAX_M, DISTANCE_MAX_M + 1):
            path = Graph(m + 1, tuple((i, i + 1) for i in range(m)))
            plan = _plan_py(path)
            with_matrix = m <= DISTANCE_MAX_M
            expected = (4 * m * m, m - 1) if with_matrix else (0, None)
            assert (len(plan.dist), plan.longest) == expected
            for t, budget in ((2, 0), (m // 2, 2000), (m, 0)):
                assert self.agree(path, t, budget), (m, t)

    def test_python_loop_runs_without_a_compiler(self, tmp_path):
        # A copy of the package with no built kernel, in a fresh interpreter
        # that finds no compiler on PATH.
        copy_package(tmp_path)
        (tmp_path / "bin").mkdir()
        probe = (
            "from intervalcolor import Graph, compute_W, double_with_certificate\n"
            "from intervalcolor import generate_connected_catalog\n"
            "from intervalcolor.solver import _native\n"
            "print(_native().__name__)\n"
            "for n in (4, 5, 6, 8):\n"
            "    g = Graph(n, tuple((i, (i + 1) % n) for i in range(n)))\n"
            "    print(compute_W(g).w)\n"
            "print(len(list(generate_connected_catalog(5))))\n"
            "print(double_with_certificate(g, compute_W(g).witness).final.t)"
        )
        output = run_probe(tmp_path, probe, path=str(tmp_path / "bin"))
        assert output.split() == ["intervalcolor._reference", "3", "None", "4", "5", "21", "7"]

    def test_builds_of_different_commands_coexist(self, tmp_path):
        # A plain build, then one with a changed command, as CI's sanitizer
        # step makes; a third plain process, with no compiler on PATH, must
        # still load the first.
        copy_package(tmp_path)
        (tmp_path / "bin").mkdir()
        changed = (
            "import intervalcolor.solver as s\n"
            "build = s._build_command\n"
            "s._build_command = lambda source: [*build(source), '-DCHANGED']\n"
            "print(s._native().__file__)"
        )
        first, second = Path(run_probe(tmp_path, LOADED)), Path(run_probe(tmp_path, changed))
        assert first != second and first.parent == second.parent
        assert first.is_file() and second.is_file()
        assert Path(run_probe(tmp_path, LOADED, path=str(tmp_path / "bin"))) == first

    def test_a_build_removes_the_builds_of_earlier_sources(self, tmp_path):
        # A build, then the source edited and built again: the first build
        # goes. An entry the build cannot remove, a directory named like a
        # build, stays and does not cost the kernel.
        package = copy_package(tmp_path)
        first = Path(run_probe(tmp_path, LOADED))
        stuck = first.with_name(f"_search-stale-0{first.suffix}")
        stuck.mkdir()
        with open(package / "_search.c", "a") as source:
            source.write("/* edited */\n")
        second = Path(run_probe(tmp_path, LOADED))
        assert second.parent == first.parent and second.is_file()
        assert not first.exists() and stuck.is_dir()
        assert sorted(first.parent.glob("_search-*")) == sorted([second, stuck])

    def test_a_changed_build_command_changes_the_target(self):
        source = Path(solver.__file__).with_name("_search.c")
        command = _build_command(source)
        target = _build_target(source, command)
        assert Path(_native().__file__) == target
        assert _build_target(source, list(command)) == target
        include = command.index("-I") + 1
        for changed in (
            [command[0], "-O3", *command[2:]],
            [*command[:include], "/elsewhere/include", *command[include + 1 :]],
            [*command, "-march=native"],
        ):
            assert _build_target(source, changed) != target, changed

    def test_installed_copy_ships_the_kernel_source(self, tmp_path):
        # Without package data an installed copy would silently run the
        # Python loop.
        root = Path(__file__).resolve().parents[1]
        shutil.copy(root / "pyproject.toml", tmp_path)
        shutil.copytree(
            root / "src" / "intervalcolor",
            tmp_path / "src" / "intervalcolor",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        subprocess.run(
            [sys.executable, "-c", "from setuptools import setup; setup()",
             "build_py", "--build-lib", "out"],
            cwd=tmp_path, capture_output=True, check=True, timeout=120,
        )
        assert (tmp_path / "out" / "intervalcolor" / "_search.c").is_file()


def anchor_pairs(plan: _Plan, t: int) -> int:
    """The anchor pairs of a layer t with ``plan``'s matrix: the ordered
    pairs of edges (e, f) with D(e, f) >= t - 1, or the m pairs (e, e)
    when t = 1."""
    if t == 1:
        return len(plan.order)
    return sum(d >= t - 1 for d in int32s(plan.dist))


class TestAnchor:
    """The anchor sweep of the module docstring: ``_search_py``'s against
    the static loop, the kernel's against ``_search_py``'s."""

    def test_sweep_keeps_every_verdict_and_witness(self, catalogs, monkeypatch):
        # Every layer t in [max degree, m] of the n <= 6 catalogs, swept
        # whatever the 2m rule says: the runs together find a coloring
        # exactly when the static loop does, and the least of theirs is its
        # witness. Layers above the ceiling have no anchor pair, and K2's
        # t = 1 has its one edge as the pair (e, e). The node totals pin
        # the cuts that only prune.
        layers = feasible = swept = 0
        nodes = [0, 0]
        for g in [g for n in range(2, 7) for g in catalogs[n]]:
            plan = _plan_py(g)
            for t in range(g.max_degree, g.m + 1):
                outcomes = []
                for sweep in (False, True):
                    monkeypatch.setattr(_reference, "_anchored", lambda pairs, m: sweep)
                    outcomes.append(_search_py(*layer_args(g, plan, t, 0)))
                    nodes[sweep] += outcomes[-1][1]
                static, anchored = outcomes
                assert (anchored[0], anchored[3]) == (static[0], static[3]), (g.edges, t)
                layers += 1
                feasible += static[0] == 1
                swept += anchor_pairs(plan, t) <= 2 * g.m
        assert (layers, feasible, swept, *nodes) == (710, 260, 448, 18231, 19998)

    def test_the_rule_sweeps_at_most_2m_pairs(self, catalogs, doubled_graphs, monkeypatch):
        # _anchored is asked with the layer's anchor pairs, and the built
        # loop is the sweep, nodes included, where they number at most 2m,
        # and the static loop elsewhere.
        rule = _reference._anchored
        asked = []
        swept = layers = 0
        for g in [g for n in range(2, 7) for g in catalogs[n]] + doubled_graphs:
            plan = _plan_py(g)
            for t in searched_layers(g):
                outcomes = []
                for decide in (rule, lambda pairs, m: False, lambda pairs, m: True):
                    asked.clear()
                    def recorded(pairs, m, decide=decide):
                        return asked.append(pairs) or decide(pairs, m)

                    monkeypatch.setattr(_reference, "_anchored", recorded)
                    outcomes.append(_search_py(*layer_args(g, plan, t, 0)))
                    assert asked == [anchor_pairs(plan, t)], (g.edges, t)
                built, static, anchored = outcomes
                sweeps = anchor_pairs(plan, t) <= 2 * g.m
                assert built == (anchored if sweeps else static), (g.edges, t)
                swept += sweeps
                layers += 1
        assert (layers, swept) == (660, 317)

    def test_kernel_agrees_when_the_budget_runs_out_in_a_sweep(self, catalogs, doubled_graphs):
        # Ranges from min(m, ceiling) down to the maximum degree, with every
        # budget that runs out inside a swept layer (up to 12 of them per
        # layer, spread over it), against one _search_py call per layer.
        aborted = 0
        for g in [g for n in range(2, 7) for g in catalogs[n] if g.m] + doubled_graphs:
            plan = _plan_py(g)
            top = min(g.m, 1 + plan.longest)
            spent = 0
            for t in range(top, g.max_degree - 1, -1):
                status, nodes, _, _ = layer_by_layer(g, plan, t, t, 0)
                if anchor_pairs(plan, t) <= 2 * g.m and nodes > 1:
                    step = max(1, nodes // 12)
                    for budget in range(spent + 1, spent + nodes, step):
                        expected = layer_by_layer(g, plan, top, g.max_degree, budget)
                        found = both_searches(g, top, g.max_degree, budget, DISTANCE_MAX_M)
                        assert found == (expected, expected), (g.edges, top, budget)
                        assert expected[:3] == (2, budget, t + 1), (g.edges, top, budget)
                        aborted += 1
                spent += nodes
                if status:
                    break
        assert aborted == 1601

    def test_symmetric_families(self, monkeypatch):
        # W(Q3) = 6 and W(Q4) = 10 = d(d + 1) / 2; W(K_{a,b}) = a + b - 1
        # for K_{4,4} and K_{5,5}. Q4's descent took 2,239,038 nodes in the
        # static loop alone, and 9,153 with the sweep before the orbit and
        # reversal rules.
        cases = ((hypercube(3), 6, 12), (hypercube(4), 10, 299))
        cases += ((complete_bipartite(4, 4), 7, 23), (complete_bipartite(5, 5), 9, 55))
        for native in (True, False):
            if not native:
                force_python_path(monkeypatch)
            for g, w, nodes in cases:
                out = compute_W(g)
                assert (out.w, out.nodes_expanded) == (w, nodes), (g.n, native)

    def test_q5_is_infeasible_above_17(self):
        # Q5's ceiling leaves t <= 21; each layer from 21 down to 18 stayed
        # undecided at 100M nodes in the static loop, and the sweep alone
        # took 180, 592, 14,846 and 805,839 nodes. The kernel alone, as the
        # Python loop took minutes on t = 18 before the orbit and reversal
        # rules.
        assert _native() is not _reference
        q5 = hypercube(5)
        for t, nodes in ((21, 1), (20, 3), (19, 7), (18, 211)):
            out = find_interval_coloring(q5, t)
            assert (out.status, out.nodes_expanded) == (SolveStatus.INFEASIBLE, nodes), t


def petersen() -> Graph:
    return Graph(10, [(i, (i + 1) % 5) for i in range(5)] + [(i, i + 5) for i in range(5)]
                 + [(5 + i, 5 + (i + 2) % 5) for i in range(5)])


def spider(legs: int, length: int) -> Graph:
    """legs paths of length edges each, joined at vertex 0."""
    edges = [(0 if j == 0 else 1 + i * length + j - 1, 1 + i * length + j)
             for i in range(legs) for j in range(length)]
    return Graph(legs * length + 1, tuple(sorted(edges)))


def bfs_vertices(g: Graph) -> list[int]:
    """The plan's BFS vertex order: from the lowest-indexed vertex of
    maximum degree, each vertex's neighbours in increasing order."""
    degrees = g.degrees()
    visit = [degrees.index(max(degrees))]
    for u in visit:
        visit += [v for v in g.adjacency[u] if v not in visit]
    return visit


def twin_swaps(g: Graph) -> list[tuple[int, ...]]:
    """The swap of every pair of twins, as vertex images."""
    swaps = []
    for x, y in combinations(range(g.n), 2):
        if set(g.adjacency[x]) - {y} == set(g.adjacency[y]) - {x}:
            images = list(range(g.n))
            images[x], images[y] = y, x
            swaps.append(tuple(images))
    return swaps


def group_order(n: int, generators: list[tuple[int, ...]]) -> int:
    """The order of the permutation group the generators generate."""
    seen = {tuple(range(n))}
    frontier = list(seen)
    while frontier:
        sigma = frontier.pop()
        for gen in generators:
            product_ = tuple(gen[v] for v in sigma)
            if product_ not in seen:
                seen.add(product_)
                frontier.append(product_)
    return len(seen)


def automorphism_count(g: Graph) -> int:
    """|Aut(g)|, counted by networkx's VF2, which shares nothing with the
    harvest."""
    h = nx.Graph(g.edges)
    return sum(1 for _ in nx.algorithms.isomorphism.GraphMatcher(h, h).isomorphisms_iter())


@pytest.fixture(scope="module")
def symmetric_families(catalogs, doubled_graphs) -> list[Graph]:
    """The graphs whose harvests are checked: the connected catalogs with
    n <= 6, the doubled graphs, Q4, K8 and the Petersen graph."""
    graphs = [g for n in range(2, 7) for g in catalogs[n]] + doubled_graphs
    return graphs + [hypercube(4), Graph(8, tuple(combinations(range(8), 2))), petersen()]


class TestSymmetry:
    """The automorphism harvest and the orbit and reversal rules of the
    module docstring, on both twins."""

    def test_every_harvested_permutation_is_an_automorphism(self, symmetric_families):
        # Both twins give the same list. Each permutation fixes a prefix of
        # the BFS vertex order; with the twin swaps they generate the whole
        # group, as networkx counts it (K8, whose group is its twin swaps',
        # is left to the first checks). Without the matrix there is none.
        found = complete = 0
        for g in symmetric_families:
            harvest = _native().automorphisms(g.n, g.edges, DISTANCE_MAX_M)
            assert harvest == _reference.automorphisms(g.n, g.edges, DISTANCE_MAX_M), g.edges
            assert _native().automorphisms(g.n, g.edges, 0) == [], g.edges
            edges = set(g.edges)
            visit = bfs_vertices(g)
            levels = []
            for sigma in harvest:
                assert sorted(sigma) == list(range(g.n)), (g.edges, sigma)
                assert {tuple(sorted((sigma[a], sigma[b]))) for a, b in g.edges} == edges
                levels.append(next(i for i, v in enumerate(visit) if sigma[v] != v))
            assert levels == sorted(levels, reverse=True), g.edges  # deepest level first
            found += len(harvest)
            if g.n <= 10:
                assert group_order(g.n, twin_swaps(g) + harvest) == automorphism_count(g), g.edges
                complete += 1
        assert (found, complete) == (119, 167)

    def test_plans_hold_each_rule_by_its_definition(self, symmetric_families):
        # The floors: the twin swaps' and, for each harvested sigma, with i
        # the first BFS position it moves and j the edge it sends onto i,
        # (i, 1) on j where edges i and j share an end, else (i, 0). The
        # orbit: edge 0's images under the group they generate.
        for g in symmetric_families:
            plan = _plan_py(g)
            pairs = [g.edges[eid] for eid in plan.order]
            position = {pair: k for k, pair in enumerate(pairs)}
            harvest = _reference.automorphisms(g.n, g.edges, DISTANCE_MAX_M)
            floors = twin_floors(g, plan.order)
            moves = [
                [position[tuple(sorted((sigma[a], sigma[b])))] for a, b in pairs]
                for sigma in twin_swaps(g) + harvest
            ]
            for images in moves[len(moves) - len(harvest):]:
                i = next(k for k, j in enumerate(images) if j != k)
                j = images.index(i)
                floors[j] = sorted([*floors[j], (i, int(bool(set(pairs[i]) & set(pairs[j]))))])
            assert [sorted(floor) for floor in plan.floors] == floors, g.edges
            orbit = {0}
            frontier = [0]
            while frontier:
                k = frontier.pop()
                for images in moves:
                    if images[k] not in orbit:
                        orbit.add(images[k])
                        frontier.append(images[k])
            assert plan.orbit == [k in orbit for k in range(g.m)], g.edges

    def test_the_harvest_stops_at_its_work_bound(self):
        # A spider of 64 legs of 8 edges has the matrix (512 edges, the
        # most) and a harvest that would need 63 automorphisms, each checked
        # against every vertex mapped before it: the work bound stops it
        # first, on both twins alike, and the kernel within a second.
        g = spider(64, 8)
        assert g.m == DISTANCE_MAX_M
        start = time.perf_counter()
        harvest = _native().automorphisms(g.n, g.edges, DISTANCE_MAX_M)
        assert time.perf_counter() - start < 1
        assert 0 < len(harvest) < 63
        assert harvest == _reference.automorphisms(g.n, g.edges, DISTANCE_MAX_M)


class TestExactCover:
    """The search against the exact-cover oracle of ``tests/exact_cover.py``,
    which shares no rule with it."""

    def test_every_layer_of_n6_agrees(self, catalogs):
        # Every layer from the maximum degree to min(m, 2n - 3), the paper's
        # ceiling, of the connected graphs with n <= 6.
        layers = feasible = 0
        for g in [g for n in range(2, 7) for g in catalogs[n]]:
            for t in range(g.max_degree, min(g.m, 2 * g.n - 3) + 1):
                expected = interval_colorable(g, t)
                found = find_interval_coloring(g, t).status is SolveStatus.FOUND
                assert found == expected, (g.edges, t)
                layers += 1
                feasible += expected
        assert (layers, feasible) == (636, 260)

