"""Bipartite doubling: lift an interval t-coloring to an interval (t+2)-coloring.

Given a connected graph G on vertices v_0..v_{n-1} with an interval
t-coloring alpha, the auxiliary graph H lives on 2n vertices: the bipartite
double cover of G (u_i adjacent to w_j whenever v_i v_j is an edge) plus the
perfect matching u_i w_i. Vertex numbering is fixed: u_i = i, w_i = n + i.

The lifted coloring beta gives both cover copies of an edge its alpha color
plus one, and gives the matching edge at i the color max S(v_i, alpha) + 2;
beta therefore uses colors 2..t+2 and satisfies
min S(u_i, beta) = min S(w_i, beta) for every i. Recoloring one matching
edge whose endpoints have minimum spectrum 2 with the color 1 (the smallest
such index is chosen, for reproducibility) yields an interval
(t+2)-coloring of H. The source coloring and the final coloring are each
validated once; a failure of the latter, or of any structural check, is an
internal defect, since the construction cannot fail on valid input.

The pipeline has two implementations. The reference is Python: G's
domain, then alpha's check, and only then H (``double_graph``), beta
(``lift_coloring``) and ``finalize_recolor``. The kernel's ``double``
(``solver._native``) does the same work in one call. It checks that alpha
is an interval t-coloring of a connected G, emits H's edges already in
canonical order with a provenance and a beta color each, and picks i0 and
the final coloring. The edges are ``graph._PAIRS``'s shared tuples (below 64
vertices) and the provenance the shared objects of ``_PROVENANCE``, so the
kernel path does no per-edge Python work and builds no pair that
``Graph(H)``, which still checks H's edges, would throw away. It makes
every check the Python path makes: the edges cross U/W, |E(H)| = 2m + n, H
is connected, an r-regular G gives an (r+1)-regular H,
min S(u_i) = min S(w_i) for every i, and the final coloring is an interval
(t+2)-coloring. Where any check fails, or alpha is mis-sized, has t > m or
a color that is not an exact int, the Python path runs from the start and
raises its own error, so every exception and message is the reference's.
Both paths give equal certificates.

``CrossEdge``, ``MatchingEdge``, ``DoublingResult`` and
``DoublingCertificate`` are ``NamedTuple``s (see the package docstring).
"""

from __future__ import annotations

from typing import NamedTuple

from . import solver
from .coloring import (
    _VALID,
    EdgeColoring,
    ValidationReport,
    coloring_to_json,
    validate_interval,
    validation_report_to_json,
)
from .errors import InternalInvariantError, InvalidColoringError
from .graph import _PAIRS, Graph, classify, require_connected_with_edge, write_graph6


class CrossEdge(NamedTuple):
    """Cover copy of source edge (v_i, v_j): u_i w_j, or u_j w_i when flipped."""

    source_index: int
    flipped: bool


class MatchingEdge(NamedTuple):
    vertex: int


# Provenance by code: entry 3q + r is CrossEdge(q, False), CrossEdge(q, True)
# or MatchingEdge(q) for r = 0, 1, 2, the codes of the kernel's ``double``,
# which returns the table's objects themselves. Both paths take their
# values from here, so that kept certificates share them (they are immutable)
# while q stays below _SHARED_PROVENANCE.
_PROVENANCE: list[CrossEdge | MatchingEdge] = []
_SHARED_PROVENANCE = 4096


def _provenance_table(q: int) -> list[CrossEdge | MatchingEdge]:
    """A table of the codes 0 .. 3q - 1: ``_PROVENANCE``, grown as needed,
    or a new one for q above ``_SHARED_PROVENANCE``."""
    table = _PROVENANCE if q <= _SHARED_PROVENANCE else []
    for k in range(len(table) // 3, q):
        table += (CrossEdge(k, False), CrossEdge(k, True), MatchingEdge(k))
    return table


class DoublingResult(NamedTuple):
    h: Graph
    u_map: tuple[int, ...]
    w_map: tuple[int, ...]
    edge_provenance: tuple[CrossEdge | MatchingEdge, ...]  # aligned with h.edges


class DoublingCertificate(NamedTuple):
    g: Graph
    alpha: EdgeColoring
    result: DoublingResult
    beta: EdgeColoring
    chosen_i0: int
    final: EdgeColoring
    validation: ValidationReport


def double_graph(g: Graph) -> DoublingResult:
    """Build H = double cover of g plus the identity matching, with checks."""
    require_connected_with_edge(g)
    n = g.n
    codes = {(i, n + i): 3 * i + 2 for i in range(n)}
    for idx, (i, j) in enumerate(g.edges):
        codes[(i, n + j)], codes[(j, n + i)] = 3 * idx, 3 * idx + 1
    h = Graph(2 * n, tuple(codes))
    table = _provenance_table(max(g.m, n))
    provenance = tuple(map(table.__getitem__, map(codes.__getitem__, h.edges)))
    result = DoublingResult(h, tuple(range(n)), tuple(range(n, 2 * n)), provenance)
    _check_structure(g, result)
    return result


def _check_structure(g: Graph, d: DoublingResult) -> None:
    h, n = d.h, g.n
    if h.n != 2 * n:
        raise InternalInvariantError(f"|V(H)| = {h.n}, expected {2 * n}")
    if h.m != 2 * g.m + n:
        raise InternalInvariantError(f"|E(H)| = {h.m}, expected {2 * g.m + n}")
    for a, b in h.edges:
        if not (a < n <= b):
            raise InternalInvariantError(f"edge ({a}, {b}) does not cross the U/W parts")
    h_cls = classify(h)
    if not h_cls.connected:
        raise InternalInvariantError("H is disconnected for a connected source graph")
    r = classify(g).regular_degree
    if r is not None and h_cls.regular_degree != r + 1:
        raise InternalInvariantError(
            f"H of an {r}-regular graph has degrees {h_cls.min_degree} to "
            f"{h_cls.max_degree}, expected {r + 1}"
        )


def _check_source(g: Graph, alpha: EdgeColoring) -> None:
    report = validate_interval(g, alpha)
    if not report.verdict:
        raise InvalidColoringError(
            f"source coloring is not a valid interval coloring: {[f.detail for f in report.failures]}"
        )


def lift_coloring(g: Graph, alpha: EdgeColoring, d: DoublingResult) -> EdgeColoring:
    """Lift alpha to beta on H; beta uses colors 2..t+2 with palette t+2."""
    _check_source(g, alpha)
    return _lift(g, alpha, d)


def _lift(g: Graph, alpha: EdgeColoring, d: DoublingResult) -> EdgeColoring:
    """``lift_coloring`` for an alpha already checked."""
    max_spectrum = [0] * g.n
    for idx, (i, j) in enumerate(g.edges):
        c = alpha.colors[idx]
        max_spectrum[i] = max(max_spectrum[i], c)
        max_spectrum[j] = max(max_spectrum[j], c)
    colors = []
    for prov in d.edge_provenance:
        if isinstance(prov, CrossEdge):
            colors.append(alpha.colors[prov.source_index] + 1)
        else:
            colors.append(max_spectrum[prov.vertex] + 2)
    return EdgeColoring(alpha.t + 2, tuple(colors))


def finalize_recolor(
    d: DoublingResult, beta: EdgeColoring, t: int
) -> tuple[int, EdgeColoring, ValidationReport]:
    """Recolor the matching edge of the smallest index whose minimum spectrum
    is 2 with the color 1, completing the interval (t+2)-coloring; returns
    (i0, final, report of the passing validation of final)."""
    h = d.h
    n = len(d.u_map)
    candidates = []
    for i in range(n):
        u_min = min(beta.colors[k] for k in h.incidence[i])
        w_min = min(beta.colors[k] for k in h.incidence[n + i])
        if u_min != w_min:
            raise InternalInvariantError(
                f"lifted coloring has min spectrum {u_min} at u_{i} but {w_min} at w_{i}"
            )
        if u_min == 2:
            candidates.append(i)
    if not candidates:
        raise InternalInvariantError("no matching edge with minimum spectrum 2 exists")
    i0 = min(candidates)
    colors = list(beta.colors)
    colors[h.edges.index((i0, n + i0))] = 1  # the matching edge u_i0 w_i0
    final = EdgeColoring(t + 2, tuple(colors))
    report = validate_interval(h, final)
    if not report.verdict:
        raise InternalInvariantError(
            f"recolored lift fails validation: {[f.detail for f in report.failures]}"
        )
    return i0, final, report


def double_with_certificate(g: Graph, alpha: EdgeColoring) -> DoublingCertificate:
    """Full pipeline: build H, lift, recolor and validate, package.

    The kernel's ``double`` runs where alpha has one color per edge and
    t <= m; the Python path runs otherwise, and wherever the kernel declines
    (module docstring). That path checks g's domain, then alpha, and only
    then builds H."""
    n, t = g.n, alpha.t
    if len(alpha.colors) == g.m and t <= g.m:
        table = _provenance_table(max(g.m, n))
        built = solver._native().double(n, g.edges, alpha.colors, t, _PAIRS, table)
        if built is not None:
            h_edges, provenance, beta, i0, final = built
            result = DoublingResult(
                Graph(2 * n, h_edges), tuple(range(n)), tuple(range(n, 2 * n)), provenance
            )
            return DoublingCertificate(
                g, alpha, result, EdgeColoring(t + 2, beta), i0, EdgeColoring(t + 2, final), _VALID
            )
    require_connected_with_edge(g)
    _check_source(g, alpha)
    d = double_graph(g)
    beta = _lift(g, alpha, d)
    i0, final, validation = finalize_recolor(d, beta, t)
    return DoublingCertificate(g, alpha, d, beta, i0, final, validation)


def _provenance_to_json(prov: CrossEdge | MatchingEdge) -> dict:
    if isinstance(prov, CrossEdge):
        return {"kind": "cross", "source_index": prov.source_index, "flipped": prov.flipped}
    return {"kind": "matching", "vertex": prov.vertex}


def certificate_to_json(cert: DoublingCertificate) -> dict:
    """Self-contained document a third party can re-verify mechanically."""
    return {
        "g": {"graph6": write_graph6(cert.g)},
        "alpha": coloring_to_json(cert.g, cert.alpha),
        "h": {"graph6": write_graph6(cert.result.h)},
        "u_map": list(cert.result.u_map),
        "w_map": list(cert.result.w_map),
        "edge_provenance": [_provenance_to_json(p) for p in cert.result.edge_provenance],
        "beta": coloring_to_json(cert.result.h, cert.beta),
        "chosen_i0": cert.chosen_i0,
        "final": coloring_to_json(cert.result.h, cert.final),
        "validation": validation_report_to_json(cert.validation),
    }
