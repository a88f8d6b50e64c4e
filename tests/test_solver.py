from __future__ import annotations

import importlib.machinery
import os
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
    brute_force_W,
    classify,
    compute_W,
    find_interval_coloring,
    generate_connected_catalog,
    is_connected,
    parse_graph6,
    validate_interval,
)
from intervalcolor import graph as graph_module
from intervalcolor import solver
from intervalcolor.solver import (
    DISTANCE_MAX_M,
    _build_command,
    _build_target,
    _include_dir,
    _native,
    _overfull,
    _plan,
    _plan_py,
    _Plan,
    _proven_ceiling,
    _search_py,
)
from smallgraphs import c4, cycle, k2, k3, k4, k5, p3, p4, star, two_k2


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
        out = find_interval_coloring(c4(), 3, SearchLimits(node_limit=2))
        assert out.status is SolveStatus.ABORTED
        assert out.nodes_expanded == 2

    def test_deterministic_witness(self):
        a = find_interval_coloring(c4(), 3)
        b = find_interval_coloring(c4(), 3)
        assert a.witness == b.witness and a.nodes_expanded == b.nodes_expanded

    def test_edge_order_is_bfs_from_max_degree_vertex(self):
        # star: center 0 has max degree, its edges come out in index order
        assert _plan(star(3))[0] == [0, 1, 2]
        # C4: start at vertex 0, edges discovered (0,1),(0,3),(1,2),(2,3)
        assert [c4().edges[k] for k in _plan(c4())[0]] == [
            (0, 1), (0, 3), (1, 2), (2, 3),
        ]
        # tie on degree: lowest-index max-degree vertex starts
        g = Graph(4, ((1, 2), (2, 3), (1, 3), (0, 1)))
        first_edge = g.edges[_plan(g)[0][0]]
        assert 1 in first_edge  # vertex 1 is the lowest max-degree vertex


class TestComputeW:
    def test_traverses_the_graph_once(self):
        # The domain guard reads connectivity from classify: the kernel's
        # own traversal, or _classify_py's one _traverse.
        assert _native() is not None
        for native in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not native:
                    patch.setattr(solver, "_native", lambda: None)
                calls = []
                traverse = graph_module._traverse
                patch.setattr(graph_module, "_traverse", lambda g: calls.append(g) or traverse(g))
                assert compute_W(c4()).w == 3
                assert len(calls) == (0 if native else 1)
                for g, match in ((two_k2(), "disconnected"), (Graph(1, ()), "no edges")):
                    with pytest.raises(DomainError, match=match):
                        compute_W(g)

    def test_builds_the_degrees_once(self, catalogs):
        # classify's degrees also give the descent's bottom and the overfull
        # test, and both plans count the degrees from the adjacency: the
        # kernel's classify counts them itself, _classify_py calls degrees().
        assert _native() is not None
        graphs = [g for n in range(2, 7) for g in catalogs[n]]
        for native in (True, False):
            with pytest.MonkeyPatch.context() as patch:
                if not native:
                    patch.setattr(solver, "_native", lambda: None)
                calls = []
                degrees = Graph.degrees
                patch.setattr(Graph, "degrees", lambda g: calls.append(g) or degrees(g))
                for g in graphs:
                    compute_W(g)
            assert len(graphs) == 142 and len(calls) == (0 if native else 142), native

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
        # Layer 4 of this graph is proven infeasible in exactly the 4 nodes
        # of the limit; layer 3 then has no budget left, and must not search
        # as if 0 meant unlimited (it finds W = 3 after 8 more nodes).
        if not native:
            monkeypatch.setattr(solver, "_native", lambda: None)
        g = parse_graph6("CN")
        layer = find_interval_coloring(g, 4)
        assert (layer.status, layer.nodes_expanded) == (SolveStatus.INFEASIBLE, 4)
        out = compute_W(g, SearchLimits(node_limit=4))
        assert out.status is SolveStatus.ABORTED
        assert (out.nodes_expanded, out.last_explored_t) == (4, 4)

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

    def test_package_import_leaves_numpy_to_the_oracle(self):
        # A fresh interpreter: this one has imported the oracle already.
        probe = (
            "import sys, intervalcolor\n"
            "before = 'numpy' in sys.modules\n"
            "from intervalcolor import brute_force_W\n"
            "from intervalcolor.oracle import brute_force_W as oracle\n"
            "print(before, brute_force_W is oracle)"
        )
        src = str(Path(intervalcolor.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": src}
        result = subprocess.run(
            [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
        )
        assert result.stdout.split() == ["False", "True"]

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
        # the search decision for each single t matches the enumeration oracle
        for n in (2, 3, 4):
            for g in catalogs[n]:
                oracle_feasible = set(brute_force_W(g, min(g.m, 8)).feasible_t_set)
                delta = max(g.degrees())
                for t in range(delta, g.m + 1):
                    decided = find_interval_coloring(g, t).status
                    expected = SolveStatus.FOUND if t in oracle_feasible else SolveStatus.INFEASIBLE
                    assert decided is expected, (g.edges, t)

    def test_infeasible_t_never_in_oracle_set(self, catalogs):
        # downward search proves infeasibility strictly above W
        for g in catalogs[4]:
            bf = brute_force_W(g, min(g.m, 8))
            cw = compute_W(g)
            if cw.w is not None:
                assert max(bf.feasible_t_set) == cw.w


def exact_ceiling(g: Graph) -> int:
    if _overfull(g, g.max_degree):
        return 0
    return _proven_ceiling(g, _plan(g).longest, cap=g.m + 1)


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


def _native_plan(g: Graph) -> _Plan:
    return _Plan(*_native().plan(g.n, g.edges, DISTANCE_MAX_M))


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
        # Both implementations of the matrix, in BFS positions, and the
        # ceiling from it and from the capped Dijkstra of larger graphs.
        for n in range(2, 7):
            for g in catalogs[n]:
                dist = line_graph_distances(g)
                plan = _plan(g)
                expected = [dist[e][f] for e in plan.order for f in plan.order]
                for built in (_native_plan(g), _plan_py(g)):
                    found = (int32s(built.dist), built.longest)
                    assert found == (expected, max(expected)), g.edges
                if g.m > g.max_degree * (n // 2):
                    assert exact_ceiling(g) == 0
                    continue
                exact = 1 + max(expected)
                assert exact_ceiling(g) == exact, g.edges
                for cap in range(1, exact + 2):
                    capped = _proven_ceiling(g, None, cap=cap)
                    assert capped == exact if exact < cap else capped >= cap

    def test_layers_above_ceiling_cost_no_nodes(self):
        out = compute_W(k5())
        assert out.status is SolveStatus.INFEASIBLE and out.nodes_expanded == 0
        assert out.last_explored_t == 4
        layer = find_interval_coloring(k4(), 6)
        assert (layer.status, layer.nodes_expanded) == (SolveStatus.INFEASIBLE, 0)

    def test_an_overfull_graph_gets_no_plan(self, monkeypatch):
        def refuse(g):
            raise AssertionError("an overfull graph was planned")

        monkeypatch.setattr(solver, "_plan", refuse)
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
                order = _plan(g)[0]
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


def searched_layers(g: Graph) -> range:
    return range(g.max_degree, min(g.m, best_upper_bound(g, classify(g))) + 1)


def all_pairs_after(g: Graph) -> list[int]:
    """The twin cut by its definition: for every twin pair, the first moved
    edge and its image among all the edges the swap moves."""
    position = [0] * g.m
    for k, eid in enumerate(_plan(g)[0]):
        position[eid] = k
    eid = {e: i for i, e in enumerate(g.edges)}
    at = [
        {u: position[eid[min(v, u), max(v, u)]] for u in nbrs} for v, nbrs in enumerate(g.adjacency)
    ]
    after = [-1] * g.m
    for x, y in combinations(range(g.n), 2):
        moved = set(at[x]) - {y}
        if moved != set(at[y]) - {x}:
            continue
        swaps = [sorted((at[x][u], at[y][u])) for u in moved]
        if swaps:
            k, j = min(swaps)
            after[j] = max(after[j], k)
    return after


class TestTwinCut:
    """``_plan``'s ``after``: the twin lex-leader cut of the module docstring."""

    def after(self, g: Graph) -> list[int]:
        return _plan(g)[3]

    def test_matches_all_pairs_construction(self, catalogs, doubled_graphs):
        graphs = [g for n in range(1, 7) for g in catalogs[n] if g.m]
        graphs += generate_connected_catalog(7)
        graphs += doubled_graphs
        graphs += [Graph(n, tuple(combinations(range(n), 2))) for n in range(8, 13)]
        for n in range(8, 25):
            for p in (0.1, 0.3, 0.6, 0.9):
                for seed in range(5):
                    g = Graph(n, tuple(nx.gnp_random_graph(n, p, seed=seed).edges()))
                    graphs.append(g)
        checked = cut = 0
        for g in graphs:
            if g.m and is_connected(g):
                after = self.after(g)
                assert after == all_pairs_after(g), g.edges
                checked += 1
                cut += after != [-1] * g.m
        assert checked > 1250 and cut > 750

    def test_memory_is_linear_on_a_long_path(self):
        # tracemalloc sees the kernel's PyMem allocations too.
        path = Graph(40_000, tuple((i, i + 1) for i in range(39_999)))
        for plan in (_plan, _plan_py):
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
            "from intervalcolor.solver import _plan, _plan_py\n"
            "g = Graph(400, tuple((i, j) for i in range(400) for j in range(i + 1, 400)))\n"
            "for plan in (_plan, _plan_py):\n"
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
        # K1,3: the leaves are twins, so the three edges at the center rise.
        assert self.after(star(3)) == [-1, 0, 1]
        # C4, BFS order (0,1),(0,3),(1,2),(2,3): swapping 1 and 3 moves
        # (0,1) to (0,3); swapping 0 and 2 moves (0,1) to (1,2).
        assert self.after(c4()) == [-1, 0, 0, -1]
        # K4, BFS order (0,1),(0,2),(0,3),(1,2),(1,3),(2,3): every pair is a
        # twin pair; (1,2) is the image of (0,2) under 0<->1 (k = 1) and of
        # (0,1) under 0<->2 (k = 0), so it keeps 1, and so on.
        assert self.after(k4()) == [-1, 0, 1, 1, 0, -1]
        # K2: twins, but the swap moves no edge.
        assert self.after(k2()) == [-1]

    def test_twin_free_graphs_get_no_cut(self):
        # P4, C5 and an asymmetric graph on 12 vertices
        asymmetric = intervalcolor.parse_graph6("KMeF`]~dsTJJ")
        for g in (p4(), cycle(5), asymmetric):
            assert self.after(g) == [-1] * g.m

    def test_cut_keeps_status_and_witness_and_saves_nodes(self, catalogs, doubled_graphs):
        # The same Python loop with and without the cut, on every searched
        # layer of the n <= 6 catalogs and the doubled graphs.
        layers = cut = 0
        for g in [g for n in range(2, 7) for g in catalogs[n]] + doubled_graphs:
            plan = _plan(g)
            for t in searched_layers(g):
                args = (g.n, plan.ends, plan.deg, t, 0)
                status, nodes, picked = _search_py(*args, plan.after, plan.dist)
                plain = _search_py(*args, [-1] * g.m, plan.dist)
                assert (status, picked) == (plain[0], plain[2]), (g.edges, t)
                assert nodes <= plain[1], (g.edges, t)
                layers += 1
                cut += nodes < plain[1]
        assert layers == 660 and cut > 0


class TestDistanceRule:
    """The distance rule of the module docstring, in ``_search_py``."""

    def test_rule_keeps_status_and_witness_and_saves_nodes(self, catalogs):
        # The same Python loop with and without the matrix, on every searched
        # layer of the n <= 6 catalogs (the doubled graphs take seconds
        # without the rule; the kernel's agreement covers them).
        layers = cut = 0
        for g in [g for n in range(2, 7) for g in catalogs[n]]:
            plan = _plan(g)
            for t in searched_layers(g):
                args = (g.n, plan.ends, plan.deg, t, 0, plan.after)
                status, nodes, picked = _search_py(*args, plan.dist)
                plain = _search_py(*args, b"")
                assert (status, picked) == (plain[0], plain[2]), (g.edges, t)
                assert nodes <= plain[1], (g.edges, t)
                layers += 1
                cut += nodes < plain[1]
        assert layers == 545 and cut > 300


class TestNativeKernel:
    """The compiled kernel against ``_search_py``, the reference loop, both
    given the same plan."""

    def agree(self, g: Graph, t: int, budget: int) -> bool:
        plan = _plan(g)
        args = (g.n, plan.ends, plan.deg, t, budget, plan.after, plan.dist)
        return _native().search(*args) == _search_py(*args)

    def test_kernel_loads_here(self):
        # Without it the tests below would compare the Python loop with itself.
        assert _native() is not None

    def test_headers_are_where_sysconfig_says(self):
        assert _include_dir() == sysconfig.get_paths()["include"]

    def test_agrees_on_catalog_and_doubled_layers(self, catalogs, doubled_graphs):
        graphs = [g for n in range(2, 7) for g in catalogs[n]]
        layers = 0
        for g in graphs + doubled_graphs:
            for t in searched_layers(g):
                for budget in (0, 1, 5, 50):
                    assert self.agree(g, t, budget), (g.edges, t, budget)
                    layers += 1
        assert layers == 2640

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

    def test_ctrl_c_stops_a_long_search(self):
        # Uncapped, compute_W on this graph runs far longer than this test
        # waits: networkx's gnp_random_graph(12, 0.6, seed=0), which is not
        # overfull and has no automorphism but the identity, so that no
        # symmetry cut can shorten its search.
        probe = (
            "from intervalcolor import compute_W, parse_graph6\n"
            "from intervalcolor.solver import _native\n"
            "assert _native() is not None\n"
            "print('searching', flush=True)\n"
            "compute_W(parse_graph6('KMeF`]~dsTJJ'))"
        )
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
            _, err = child.communicate(timeout=30)
        finally:
            child.kill()
        assert child.returncode == -signal.SIGINT and "KeyboardInterrupt" in err

    def test_rejects_an_after_that_is_not_an_earlier_edge(self):
        plan = _plan(c4())
        for bad in ([-1, 0, 2, -1], [-1, 0, 0, -2], [0, 0, 0, -1], [-1, 0, 0]):
            with pytest.raises(ValueError):
                _native().search(4, plan.ends, plan.deg, 3, 0, bad, plan.dist)
        assert _native().search(4, plan.ends, plan.deg, 3, 0, plan.after, plan.dist)[0] == 1

    def test_rejects_a_matrix_of_the_wrong_size(self):
        plan = _plan(c4())
        for bad in (plan.dist[:-4], plan.dist + bytes(4), bytes(3)):
            with pytest.raises(ValueError):
                _native().search(4, plan.ends, plan.deg, 3, 0, plan.after, bad)
        with pytest.raises(ValueError):
            _native().search(4, plan.ends, plan.deg, 2**31, 0, plan.after, plan.dist)

    def test_plans_agree(self, catalogs, doubled_graphs):
        # The kernel's plan against _plan_py, field by field.
        graphs = [g for n in range(2, 7) for g in catalogs[n]]
        graphs += [*generate_connected_catalog(7), *doubled_graphs]
        for n in range(8, 17):
            for p in (0.1, 0.3, 0.6, 0.9):
                for seed in range(5):
                    graphs.append(Graph(n, tuple(nx.gnp_random_graph(n, p, seed=seed).edges())))
        # Twin-rich families: complete, complete bipartite and complete
        # multipartite graphs, and stars.
        for n in range(2, 13):
            graphs.append(Graph(n, tuple(combinations(range(n), 2))))
            graphs.append(star(n))
        for parts in [(a, b) for a in range(1, 6) for b in range(a, 7)] + [
            (1, 1, 1), (2, 2, 2), (1, 2, 3), (3, 3, 3), (1, 1, 4, 4), (2, 2, 2, 2, 2),
        ]:
            graphs.append(Graph(sum(parts), tuple(nx.complete_multipartite_graph(*parts).edges())))
        for m in (DISTANCE_MAX_M, DISTANCE_MAX_M + 1):
            graphs.append(Graph(m + 1, tuple((i, i + 1) for i in range(m))))
        checked = 0
        for g in graphs:
            if g.m and is_connected(g):
                assert _native_plan(g) == _plan_py(g), g.edges
                checked += 1
        assert checked == 1135 + 48 + 2  # catalogs, doubled and gnp; twin-rich; paths

    def test_plans_agree_on_k400_and_a_long_path(self):
        k400 = Graph(400, tuple(combinations(range(400), 2)))
        path = Graph(100_000, tuple((i, i + 1) for i in range(99_999)))
        for g in (k400, path):
            assert _native_plan(g) == _plan_py(g)

    def test_plan_rejects_malformed_input(self):
        plan = _native().plan
        edges = c4().edges  # (0,1),(0,3),(1,2),(2,3)
        assert _Plan(*plan(4, edges, DISTANCE_MAX_M)) == _plan_py(c4())
        for n, bad in (
            (4, ((0, 1), (0, 3), (2, 3), (1, 2))),  # not increasing
            (4, ((1, 0), (0, 3), (1, 2), (2, 3))),  # a > b
            (4, ((0, 1), (0, 1), (1, 2), (2, 3))),  # repeated
            (4, ((0, 1), (0, 3), (1, 2), (2, 4))),  # vertex out of range
            (4, ((0, 1), (0, 3), (1, 1), (2, 3))),  # loop
            (4, ((0, 1), (0, 3), (1, 2, 3))),  # not a pair
            (4, ()),  # no edge
            (0, edges),
            (5, edges),  # vertex 4 is isolated: disconnected
            (4, ((0, 1), (2, 3))),  # disconnected
        ):
            with pytest.raises(ValueError):
                plan(n, bad, DISTANCE_MAX_M)
        with pytest.raises(ValueError):
            plan(4, edges, -1)
        with pytest.raises(TypeError):
            plan(4, 5, DISTANCE_MAX_M)

    def test_agrees_on_both_sides_of_the_distance_threshold(self):
        # Paths of DISTANCE_MAX_M and DISTANCE_MAX_M + 1 edges: the first
        # gets the matrix and the rule, the second neither.
        for m in (DISTANCE_MAX_M, DISTANCE_MAX_M + 1):
            path = Graph(m + 1, tuple((i, i + 1) for i in range(m)))
            plan = _plan(path)
            with_matrix = m <= DISTANCE_MAX_M
            expected = (4 * m * m, m - 1) if with_matrix else (0, None)
            assert (len(plan.dist), plan.longest) == expected
            for t, budget in ((2, 0), (m // 2, 2000), (m, 0)):
                assert self.agree(path, t, budget), (m, t)

    def test_python_loop_runs_without_a_compiler(self, tmp_path):
        # A copy of the package with no built kernel, in a fresh interpreter
        # that finds no compiler on PATH.
        shutil.copytree(
            Path(intervalcolor.__file__).parent,
            tmp_path / "intervalcolor",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        (tmp_path / "bin").mkdir()
        probe = (
            "from intervalcolor import Graph, compute_W, double_with_certificate\n"
            "from intervalcolor import generate_connected_catalog\n"
            "from intervalcolor.solver import _native\n"
            "print(_native() is None)\n"
            "for n in (4, 5, 6, 8):\n"
            "    g = Graph(n, tuple((i, (i + 1) % n) for i in range(n)))\n"
            "    print(compute_W(g).w)\n"
            "print(len(list(generate_connected_catalog(5))))\n"
            "print(double_with_certificate(g, compute_W(g).witness).final.t)"
        )
        env = {**os.environ, "PATH": str(tmp_path / "bin"), "PYTHONPATH": str(tmp_path)}
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        assert result.stdout.split() == ["True", "3", "None", "4", "5", "21", "7"]

    def test_a_build_removes_this_interpreters_stale_builds(self, tmp_path):
        shutil.copytree(
            Path(intervalcolor.__file__).parent,
            tmp_path / "intervalcolor",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        cache = tmp_path / "intervalcolor" / "__pycache__"
        cache.mkdir()
        suffix = importlib.machinery.EXTENSION_SUFFIXES[0]
        stale = cache / f"_search-0123456789abcdef{suffix}"
        kept = [
            cache / "_search-0123456789abcdef.cpython-399-other.so",  # another interpreter
            cache / f"_search-fedcba9876543210{suffix}.4242.tmp",  # another process's partial file
        ]
        for path in (stale, *kept):
            path.write_bytes(b"not a build")
        probe = "from intervalcolor.solver import _native\nprint(_native().__file__)"
        env = {**os.environ, "PYTHONPATH": str(tmp_path)}
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, env=env, check=True, timeout=120,
        )
        built = Path(result.stdout.strip())
        assert sorted(cache.glob(f"_search-*{suffix}")) == [built]
        assert built.parent == cache and not stale.exists()
        assert all(path.read_bytes() == b"not a build" for path in kept)

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
