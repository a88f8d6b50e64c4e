"""Pinned node counts and output digest over every connected graph, n = 2..5.

Search order, pruning and witness choice are deterministic, so any change to
them shows up here as a different node count or a different byte of output.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from intervalcolor import (
    SolveStatus,
    best_upper_bound,
    certificate_to_json,
    classify,
    compute_W,
    double_with_certificate,
    find_interval_coloring,
    generate_connected_catalog,
)
from intervalcolor.solver import outcome_to_json

NODE_TOTALS = {2: 1, 3: 6, 4: 92, 5: 8128}
GOLDEN_LINES = 53
GOLDEN_SHA256 = "eba276dbdf6cd0614c4e893821a57dff3b62ba868eabdc816242d825ac36ccd4"


@pytest.fixture(scope="module")
def solved():
    return {
        n: [(g, compute_W(g)) for g in generate_connected_catalog(n)] for n in NODE_TOTALS
    }


def test_node_totals_per_n(solved):
    totals = {n: sum(out.nodes_expanded for _, out in pairs) for n, pairs in solved.items()}
    assert totals == NODE_TOTALS


def test_descent_nodes_equal_sum_of_single_t_layers(solved):
    for pairs in solved.values():
        for g, out in pairs:
            cutoff = best_upper_bound(g, classify(g))
            last = out.w if out.status is SolveStatus.FOUND else g.max_degree
            layers = [find_interval_coloring(g, t) for t in range(cutoff, last - 1, -1)]
            assert out.nodes_expanded == sum(layer.nodes_expanded for layer in layers)
            assert layers[-1].status is out.status
            assert layers[-1].witness == out.witness


def test_golden_digest(solved):
    lines = []
    for pairs in solved.values():
        for g, out in pairs:
            lines.append(json.dumps(outcome_to_json(out, g), sort_keys=True))
            if out.status is SolveStatus.FOUND:
                cert = double_with_certificate(g, out.witness)
                lines.append(json.dumps(certificate_to_json(cert), sort_keys=True))
    assert len(lines) == GOLDEN_LINES
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest() == GOLDEN_SHA256
