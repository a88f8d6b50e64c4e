"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Everything here is exact integer comparison; nothing is tolerant.
"""

from __future__ import annotations

import io
import random

import pytest

from intervalcolor import (
    EdgeColoring,
    Graph,
    SolveOutcome,
    SolveStatus,
    classify,
    compute_W,
    double_with_certificate,
    generate_connected_catalog,
    is_connected,
    parse_graph6,
    run_survey,
    write_graph6,
    write_survey_csv,
)
from oracle import brute_force_W
from smallgraphs import c4, k2, k3, k4, p3, star

EXPECTED_CATALOG_SIZES = {2: 1, 3: 2, 4: 6, 5: 21}


@pytest.fixture(scope="module")
def catalog7() -> dict[int, list[Graph]]:
    return {n: list(generate_connected_catalog(n)) for n in range(1, 8)}


@pytest.fixture(scope="module")
def solved6(catalog7) -> dict[str, tuple[Graph, SolveOutcome]]:
    """compute_W outcomes for every connected graph with n <= 6."""
    out = {}
    for n in range(2, 7):
        for g in catalog7[n]:
            out[write_graph6(g)] = (g, compute_W(g))
    return out


def test_criterion_1_oracle_equivalence(catalog7, solved6):
    """compute_W and brute_force_W agree on every connected graph, n <= 5.

    The oracle enumerates every assignment for t up to min(|E|, 8), which
    covers [max degree, search cutoff] for all of these graphs and beyond.
    """
    for n, size in EXPECTED_CATALOG_SIZES.items():
        assert len(catalog7[n]) == size, f"catalog size for n={n}"
    checked = 0
    for n in range(2, 6):
        for g in catalog7[n]:
            _, cw = solved6[write_graph6(g)]
            bf = brute_force_W(g, min(g.m, 8))
            assert bf.interval_colorable == cw.interval_colorable, write_graph6(g)
            assert bf.w == cw.w, write_graph6(g)
            if bf.w is not None:
                assert max(bf.feasible_t_set) == cw.w
            checked += 1
    assert checked == 30
    print(f"\nACCEPTANCE 1 PASS: oracle equivalence on {checked} graphs (n <= 5)")


def test_criterion_2_bound_audit(solved6):
    """W <= 2n-3 always; W <= 2n-4 for n >= 3; W <= n-1 when triangle-free."""
    colorable = 0
    for g, out in solved6.values():
        if not out.interval_colorable:
            continue
        colorable += 1
        n, w = g.n, out.w
        assert w <= 2 * n - 3, f"{write_graph6(g)}: W={w} > 2n-3"
        if n >= 3:
            assert w <= 2 * n - 4, f"{write_graph6(g)}: W={w} > 2n-4"
        if classify(g).triangle_free:
            assert w <= n - 1, f"{write_graph6(g)}: W={w} > n-1"
    assert colorable > 100
    print(f"\nACCEPTANCE 2 PASS: zero bound violations over {colorable} colorable graphs (n <= 6)")


def test_criterion_3_doubling_certificates(solved6):
    """Certificates from n <= 5 witnesses validate at palette exactly W+2,
    with the doubled graph structurally sound."""
    checked = 0
    for g, out in solved6.values():
        if g.n > 5 or not out.interval_colorable:
            continue
        cert = double_with_certificate(g, out.witness)
        assert cert.validation.verdict
        assert cert.final.t == out.w + 2
        h = cert.result.h
        assert h.n == 2 * g.n
        assert h.m == 2 * g.m + g.n
        assert classify(h).bipartition is not None
        assert is_connected(h)
        r = classify(g).regular_degree
        if r is not None:
            assert classify(h).regular_degree == r + 1
        checked += 1
    assert checked == 23
    print(f"\nACCEPTANCE 3 PASS: {checked} doubling certificates valid (n <= 5)")


def test_criterion_4_doubled_graph_w(solved6):
    """compute_W(H) >= W(G) + 2 for every colorable G with 2n <= 10."""
    checked = 0
    for g, out in solved6.values():
        if 2 * g.n > 10 or not out.interval_colorable:
            continue
        cert = double_with_certificate(g, out.witness)
        hout = compute_W(cert.result.h)
        assert hout.status is SolveStatus.FOUND
        assert hout.w >= out.w + 2, f"{write_graph6(g)}: W(H)={hout.w} < {out.w}+2"
        checked += 1
    assert checked == 23
    print(f"\nACCEPTANCE 4 PASS: W(H) >= W(G)+2 on {checked} doubled graphs")


def test_criterion_5_pinned_values():
    """Regression anchors derived by brute force, plus the pinned K2 doubling."""
    assert compute_W(k2()).w == 1
    assert compute_W(p3()).w == 2
    assert compute_W(star(3)).w == 3  # tight for the triangle-free bound: n-1
    assert compute_W(c4()).w == 3
    assert compute_W(k4()).w == 4  # tight for the general bound: 2n-4
    assert compute_W(k3()).interval_colorable is False

    cert = double_with_certificate(k2(), EdgeColoring(1, (1,)))
    assert cert.chosen_i0 == 0  # smallest-index tie-break
    by_edge = dict(zip(cert.result.h.edges, cert.final.colors))
    assert by_edge == {(0, 3): 2, (1, 2): 2, (0, 2): 1, (1, 3): 3}
    print("\nACCEPTANCE 5 PASS: all pinned values and the K2 doubling coloring match")


def test_criterion_6_graph6_roundtrip(catalog7):
    """parse(write(g)) == g, byte-exact re-encoding, catalog + 1000 random."""
    checked = 0
    for n in range(1, 8):
        for g in catalog7[n]:
            text = write_graph6(g)
            assert parse_graph6(text) == g
            assert write_graph6(parse_graph6(text)) == text
            checked += 1
    assert checked == 996  # 1+1+2+6+21+112+853
    rng = random.Random(20260810)
    for _ in range(1000):
        n = rng.randint(1, 62)
        edges = []
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.5:
                    edges.append((i, j))
        g = Graph(n, tuple(edges))
        text = write_graph6(g)
        assert parse_graph6(text) == g
        assert write_graph6(parse_graph6(text)) == text
        checked += 1
    print(f"\nACCEPTANCE 6 PASS: graph6 roundtrip on {checked} graphs")


def test_criterion_7_survey_determinism(catalog7):
    """Two survey runs over the n <= 5 catalog emit byte-identical CSV."""
    graphs = [g for n in range(1, 6) for g in catalog7[n]]
    outputs = []
    for _ in range(2):
        buf = io.StringIO()
        write_survey_csv(run_survey(graphs, with_doubling=True), buf)
        outputs.append(buf.getvalue())
    assert outputs[0] == outputs[1]
    assert len(outputs[0].splitlines()) == 1 + len(graphs)
    print(f"\nACCEPTANCE 7 PASS: byte-identical survey CSV over {len(graphs)} graphs")
