"""Exhaustive testing oracle for W(G); needs numpy (the ``test`` extra).

Enumerates all t^|E| assignments for every t <= t_max, so it shares no logic
with the backtracking path in ``solver``. Assignments are scanned in
ascending mixed-radix order (edge 0 most significant); chunks are aligned so
the low-order digit block is built once per t, the surjectivity test runs as
a single vector pass, and the per-vertex checks only touch surviving rows.
"""

from __future__ import annotations

import functools

import numpy as np

from intervalcolor import DomainError, EdgeColoring, Graph, InternalInvariantError
from intervalcolor import SolveOutcome, SolveStatus, validate_interval

_ORACLE_EDGE_LIMIT = 10
_ORACLE_T_LIMIT = 8
_CHUNK_ROWS = 1 << 19

_POPCOUNT = np.array([bin(x).count("1") for x in range(1 << (_ORACLE_T_LIMIT + 1))], dtype=np.uint8)


def _interval_rows(g: Graph, colors: np.ndarray) -> np.ndarray:
    """Rows whose every positive-degree vertex sees deg distinct consecutive
    colors (surjectivity is checked by the caller)."""
    keep = np.ones(colors.shape[0], dtype=bool)
    one = np.uint16(1)
    for v in range(g.n):
        inc = g.incidence[v]
        d = len(inc)
        if d == 0:
            continue
        sub = colors[:, inc]
        vmask = np.zeros(colors.shape[0], dtype=np.uint16)
        for col in range(d):
            vmask |= one << sub[:, col].astype(np.uint16)
        keep &= (_POPCOUNT[vmask] == d) & ((sub.max(axis=1) - sub.min(axis=1) + 1) == d)
        if not keep.any():
            break
    return keep


def _scan_palette(g: Graph, t: int) -> tuple[int, tuple[int, ...] | None]:
    """Scan all t^m assignments for one t; returns (rows scanned, first valid)."""
    m = g.m
    k0 = 0
    while k0 < m and t ** (k0 + 1) <= _CHUNK_ROWS:
        k0 += 1
    low_n = t**k0
    idx = np.arange(low_n, dtype=np.int64)
    low = np.empty((low_n, k0), dtype=np.uint8)
    for col in range(k0):
        low[:, col] = (idx // (t ** (k0 - 1 - col))) % t
    low += 1
    one = np.uint16(1)
    low_or = np.zeros(low_n, dtype=np.uint16)
    for col in range(k0):
        low_or |= one << low[:, col].astype(np.uint16)
    mh = m - k0
    full = np.uint16((1 << (t + 1)) - 2)
    scanned = 0
    for h in range(t**mh):
        rest, digits = h, []
        for _ in range(mh):
            digits.append(rest % t + 1)
            rest //= t
        digits.reverse()
        high_or = 0
        for d in digits:
            high_or |= 1 << d
        scanned += low_n
        alive = np.flatnonzero((low_or | np.uint16(high_or)) == full)
        if alive.size == 0:
            continue
        sub = np.empty((alive.size, m), dtype=np.uint8)
        for col, d in enumerate(digits):
            sub[:, col] = d
        sub[:, mh:] = low[alive]
        hits = np.flatnonzero(_interval_rows(g, sub))
        if hits.size:
            return scanned, tuple(int(x) for x in sub[hits[0]])
    return scanned, None


@functools.cache
def brute_force_W(g: Graph, t_max: int) -> SolveOutcome:
    """Testing oracle: full enumeration of assignments E -> [1, t] per t.

    Guarded at |E| <= 10 and t_max <= 8 because the enumeration is t_max^|E|.
    Returns the maximum feasible t together with the whole feasible t-set.
    Memoised on (g, t_max), since tests ask for the same graphs again: Graph
    compares and hashes by (n, edges), and the outcome and its witness are
    frozen, so callers can share one result.
    """
    if g.m > _ORACLE_EDGE_LIMIT:
        raise DomainError(f"brute force refuses |E|={g.m} > {_ORACLE_EDGE_LIMIT}")
    if not 1 <= t_max <= _ORACLE_T_LIMIT:
        raise DomainError(f"brute force refuses t_max={t_max} outside 1..{_ORACLE_T_LIMIT}")
    if g.m == 0:
        return SolveOutcome(SolveStatus.INFEASIBLE, interval_colorable=False)
    nodes = 0
    feasible: list[int] = []
    witnesses: dict[int, tuple[int, ...]] = {}
    for t in range(1, t_max + 1):
        scanned, witness_colors = _scan_palette(g, t)
        nodes += scanned
        if witness_colors is not None:
            feasible.append(t)
            witnesses[t] = witness_colors
    if not feasible:
        return SolveOutcome(
            SolveStatus.INFEASIBLE,
            nodes_expanded=nodes,
            interval_colorable=False,
            feasible_t_set=(),
        )
    w = max(feasible)
    witness = EdgeColoring(w, witnesses[w])
    if not validate_interval(g, witness).verdict:
        raise InternalInvariantError("brute force accepted a non-validating assignment")
    return SolveOutcome(
        SolveStatus.FOUND,
        witness=witness,
        nodes_expanded=nodes,
        w=w,
        interval_colorable=True,
        feasible_t_set=tuple(feasible),
    )
