"""Pinned node counts and output digests over every connected graph, n = 2..5.

Search order, pruning and witness choice are deterministic, so any change to
them shows up here as a different node count or a different byte of output.
``ANSWERS_SHA256`` covers the same lines without ``nodes_expanded``: a change
that only prunes the search moves the node pins and ``GOLDEN_SHA256`` but
must leave every answer, and so this digest, unchanged.

Every test runs under both implementations of the search: the compiled
kernel and the Python loop it is checked against.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import contextmanager

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
from conftest import force_python_path

NODE_TOTALS = {2: 0, 3: 0, 4: 20, 5: 159}
GOLDEN_LINES = 53
GOLDEN_SHA256 = "644388b8d31e2cca52a76150333038b816d202a54f22010b2c5aeb06a8951162"
ANSWERS_SHA256 = "cced4f8c5b2423fc0308a1dc3c2c627e8fb71469feb07d49d235f97f21b240a4"


IMPLEMENTATIONS = ("kernel", "python")


@contextmanager
def implementation(name: str):
    """Search with the compiled kernel, or with the Python loop."""
    with pytest.MonkeyPatch.context() as patch:
        if name == "python":
            force_python_path(patch)
        yield


@pytest.fixture(scope="module")
def solved():
    outcomes = {}
    for name in IMPLEMENTATIONS:
        with implementation(name):
            outcomes[name] = {
                n: [(g, compute_W(g)) for g in generate_connected_catalog(n)] for n in NODE_TOTALS
            }
    return outcomes


def test_node_totals_per_n(solved):
    for by_n in solved.values():
        totals = {n: sum(out.nodes_expanded for _, out in pairs) for n, pairs in by_n.items()}
        assert totals == NODE_TOTALS


def test_descent_nodes_equal_sum_of_single_t_layers(solved):
    for name, by_n in solved.items():
        with implementation(name):
            for pairs in by_n.values():
                for g, out in pairs:
                    cutoff = best_upper_bound(g, classify(g))
                    last = out.w if out.status is SolveStatus.FOUND else g.max_degree
                    layers = [find_interval_coloring(g, t) for t in range(cutoff, last - 1, -1)]
                    assert out.nodes_expanded == sum(layer.nodes_expanded for layer in layers)
                    assert layers[-1].status is out.status
                    assert layers[-1].witness == out.witness


def _digest(by_n, with_nodes: bool) -> str:
    lines = []
    for pairs in by_n.values():
        for g, out in pairs:
            doc = outcome_to_json(out, g)
            if not with_nodes:
                del doc["nodes_expanded"]
            lines.append(json.dumps(doc, sort_keys=True))
            if out.status is SolveStatus.FOUND:
                cert = double_with_certificate(g, out.witness)
                lines.append(json.dumps(certificate_to_json(cert), sort_keys=True))
    assert len(lines) == GOLDEN_LINES
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_golden_digest(solved):
    for by_n in solved.values():
        assert _digest(by_n, with_nodes=True) == GOLDEN_SHA256


def test_answers_digest(solved):
    for by_n in solved.values():
        assert _digest(by_n, with_nodes=False) == ANSWERS_SHA256
