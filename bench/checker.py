"""Interval edge-coloring checks written from the definition, stdlib only.

This module shares no code with the ``intervalcolor`` package: graphs arrive
as a vertex count plus ``(u, v)`` pairs, colorings as plain integer lists,
and graph6 is decoded here again. A defect in the package's validator,
graph6 codec or doubling construction therefore cannot vouch for itself.

Definition. An edge-coloring of G with colors 1..t is an interval
t-coloring when (proper) edges sharing an endpoint get distinct colors,
(interval) the colors at every vertex of positive degree are deg(v)
consecutive integers, and (surjective) every color 1..t is used.
"""

from __future__ import annotations


def graph6_edges(text: str) -> tuple[int, list[tuple[int, int]]]:
    """Decode a short-form graph6 string into (n, sorted edge list)."""
    n = ord(text[0]) - 63
    if not 1 <= n <= 62:
        raise ValueError(f"graph6 vertex count {n} outside 1..62")
    bits = []
    for ch in text[1:]:
        value = ord(ch) - 63
        if not 0 <= value < 64:
            raise ValueError(f"graph6 byte {ch!r} out of range")
        bits.extend((value >> shift) & 1 for shift in range(5, -1, -1))
    pairs = [(i, j) for j in range(1, n) for i in range(j)]
    if len(bits) < len(pairs) or len(bits) - len(pairs) >= 6 or any(bits[len(pairs) :]):
        raise ValueError("graph6 body has the wrong length or nonzero padding")
    return n, sorted(pair for pair, bit in zip(pairs, bits) if bit)


def coloring_faults(n: int, edges, t: int, colors) -> set[str]:
    """Names of the violated conditions; the empty set means valid.

    Besides "proper", "interval" and "surjective", a malformed coloring
    reports "shape" (wrong length, a loop or an endpoint out of range) or
    "range" (a color outside 1..t).
    """
    edges = list(edges)
    colors = list(colors)
    faults: set[str] = set()
    if len(colors) != len(edges) or len(set(map(_norm, edges))) != len(edges):
        return {"shape"}
    at: list[list[int]] = [[] for _ in range(n)]
    for (u, v), c in zip(edges, colors):
        if u == v or not (0 <= u < n and 0 <= v < n):
            return {"shape"}
        if type(c) is not int or not 1 <= c <= t:
            faults.add("range")
        at[u].append(c)
        at[v].append(c)
    if faults:
        return faults
    for cs in at:
        if not cs:
            continue
        if len(set(cs)) != len(cs):
            faults.add("proper")
        if sorted(cs) != list(range(min(cs), min(cs) + len(cs))):
            faults.add("interval")
    if set(colors) != set(range(1, t + 1)):
        faults.add("surjective")
    return faults


def _norm(e) -> tuple[int, int]:
    u, v = e
    return (u, v) if u < v else (v, u)


def doubled_edges(n: int, edges) -> set[tuple[int, int]]:
    """Edge set of H: the bipartite double cover of G (u_i = i, w_i = n + i)
    plus the perfect matching u_i w_i."""
    out = {(i, n + i) for i in range(n)}
    for i, j in edges:
        out.add((i, n + j))
        out.add((j, n + i))
    return out


def doubling_faults(g_n, g_edges, alpha_t, alpha_colors, h_n, h_edges, final_t, final_colors):
    """Check one doubling claim: alpha is an interval t-coloring of G, H is
    G's double cover plus matching, and final is an interval (t+2)-coloring
    of H. Returns a sorted list of fault descriptions."""
    faults = [f"alpha:{k}" for k in sorted(coloring_faults(g_n, g_edges, alpha_t, alpha_colors))]
    if h_n != 2 * g_n or set(map(_norm, h_edges)) != doubled_edges(g_n, g_edges):
        faults.append("h:not-the-doubled-graph")
    if final_t != alpha_t + 2:
        faults.append(f"final:palette {final_t} != {alpha_t} + 2")
    faults += [f"final:{k}" for k in sorted(coloring_faults(h_n, h_edges, final_t, final_colors))]
    return faults


def doc_colors(doc: dict, n: int, edges) -> tuple[int, list[int]]:
    """Colors of a {"t", "edges": [{"u", "v", "color"}]} document, aligned
    with ``edges``; raises ValueError unless it covers exactly that edge set."""
    by_edge = {_norm((e["u"], e["v"])): e["color"] for e in doc["edges"]}
    if len(by_edge) != len(doc["edges"]) or set(by_edge) != set(edges):
        raise ValueError("coloring document does not cover exactly the graph's edges")
    return doc["t"], [by_edge[e] for e in edges]


def certificate_faults(doc: dict) -> list[str]:
    """Re-verify a doubling certificate document from its graph6 strings and
    its alpha and final colorings alone."""
    try:
        g_n, g_edges = graph6_edges(doc["g"]["graph6"])
        h_n, h_edges = graph6_edges(doc["h"]["graph6"])
        alpha_t, alpha = doc_colors(doc["alpha"], g_n, g_edges)
        final_t, final = doc_colors(doc["final"], h_n, h_edges)
    except (KeyError, TypeError, ValueError) as exc:
        return [f"malformed certificate: {exc}"]
    faults = doubling_faults(g_n, g_edges, alpha_t, alpha, h_n, h_edges, final_t, final)
    if doc.get("validation", {}).get("verdict") is not True:
        faults.append("certificate does not state a true verdict")
    return faults
