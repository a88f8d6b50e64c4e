from __future__ import annotations

import pytest

from intervalcolor import Graph, compute_W, double_with_certificate, generate_connected_catalog


@pytest.fixture(scope="session")
def catalogs() -> dict[int, list[Graph]]:
    """Connected-graph catalogs for n = 1..6, shared across the suite."""
    return {n: list(generate_connected_catalog(n)) for n in range(1, 7)}


@pytest.fixture(scope="session")
def doubled_graphs(catalogs) -> list[Graph]:
    """The doubled graph H of every interval colorable graph with n <= 5."""
    doubled = []
    for n in range(2, 6):
        for g in catalogs[n]:
            out = compute_W(g)
            if out.w is not None:
                doubled.append(double_with_certificate(g, out.witness).result.h)
    assert len(doubled) == 23
    return doubled
