"""Registry of upper bounds on the maximum interval palette size W.

Each entry is emitted only when its structural precondition verifiably
holds on the given graph; the planar bound additionally requires an explicit
caller assertion because planarity testing is out of scope. The registered
bounds, for connected graphs on n vertices with at least one edge:

  T1_triangle_free    W <= n - 1        triangle-free
  T2_biregular        W <= n - 3        (a,b)-biregular bipartite, n >= 2(a+b)
  T3_general          W <= 2n - 3       always
  T4_general_n3       W <= 2n - 4       n >= 3
  T6_planar_asserted  W <= floor(11n/6) planarity asserted by the caller
  T7_regular          W <= 2n - 5       r-regular, n >= 2r + 2

The surjectivity cap W <= |E| is applied in best_upper_bound, not stored as
a claim; best_upper_bound never includes the planar bound, because only a
caller can assert planarity. The 11n/6 bound is floored because W is an integer.

There is one registry, ``_registry``: the only statement of each theorem's
precondition, its bound and the evidence a claim records. Only
``applicable_bounds`` builds ``BoundClaim``s from it; ``best_upper_bound``,
which ``compute_W`` calls for its ceiling on every graph, takes its minimum
from the same walk and builds no claim and no evidence dict.

``BoundClaim`` and ``BoundReport`` are ``NamedTuple``s, like the package's
other value records (see the package docstring); a claim's evidence is a
dict, so neither is hashable.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .errors import DomainError
from .graph import Graph, GraphClass

T1_TRIANGLE_FREE = "T1_triangle_free"
T2_BIREGULAR = "T2_biregular"
T3_GENERAL = "T3_general"
T4_GENERAL_N3 = "T4_general_n3"
T6_PLANAR_ASSERTED = "T6_planar_asserted"
T7_REGULAR = "T7_regular"


class BoundClaim(NamedTuple):
    theorem_id: str
    bound: int
    evidence: dict


class BoundReport(NamedTuple):
    claims: tuple[BoundClaim, ...]
    best: int
    audited_W: int | None
    violations: tuple[BoundClaim, ...]


def _registry(n: int, cls: GraphClass, planar_asserted: bool) -> Iterator[tuple]:
    """(theorem_id, bound, evidence pairs beyond n) for each theorem whose
    precondition holds on a graph on n vertices of class cls, in registry
    order; DomainError outside the registry's domain."""
    if not cls.connected:
        raise DomainError("bound registry applies to connected graphs only")
    if cls.max_degree == 0:
        raise DomainError("bound registry needs a graph with at least one edge")
    if cls.triangle_free:
        yield T1_TRIANGLE_FREE, n - 1, ()
    if cls.biregular_degrees is not None:
        a, b = cls.biregular_degrees
        if n >= 2 * (a + b):
            yield T2_BIREGULAR, n - 3, (("a", a), ("b", b))
    yield T3_GENERAL, 2 * n - 3, ()
    if n >= 3:
        yield T4_GENERAL_N3, 2 * n - 4, ()
    if planar_asserted:
        yield T6_PLANAR_ASSERTED, (11 * n) // 6, (("planar_asserted", True),)
    r = cls.regular_degree
    if r is not None and n >= 2 * r + 2:
        yield T7_REGULAR, 2 * n - 5, (("r", r),)


def applicable_bounds(
    g: Graph, cls: GraphClass, planar_asserted: bool = False
) -> tuple[BoundClaim, ...]:
    """All claims whose preconditions hold, in fixed registry order."""
    n = g.n
    claims = []
    for theorem_id, bound, evidence in _registry(n, cls, planar_asserted):
        claims.append(
            BoundClaim(theorem_id, bound, dict((("n", n), *evidence)) if evidence else {"n": n})
        )
    return tuple(claims)


def best_upper_bound(g: Graph, cls: GraphClass) -> int:
    """Minimum over applicable claims, capped by |E| (each color needs an
    edge), without building the claims."""
    best = g.m
    for _, bound, _ in _registry(g.n, cls, False):
        if bound < best:
            best = bound
    return best


def _best(claims: tuple[BoundClaim, ...], m: int) -> int:
    """best_upper_bound from claims already found for a graph with m edges."""
    return min(min(c.bound for c in claims), m)


def audit(g: Graph, w: int, claims: tuple[BoundClaim, ...]) -> BoundReport:
    """Check a computed W against every claim; violations must stay empty."""
    violations = tuple(c for c in claims if w > c.bound)
    return BoundReport(
        claims=claims,
        best=min(c.bound for c in claims),
        audited_W=w,
        violations=violations,
    )


def claim_to_json(claim: BoundClaim) -> dict:
    return {"theorem_id": claim.theorem_id, "bound": claim.bound, "evidence": claim.evidence}


def bound_report_to_json(report: BoundReport) -> dict:
    return {
        "claims": [claim_to_json(c) for c in report.claims],
        "best": report.best,
        "audited_W": report.audited_W,
        "violations": [claim_to_json(c) for c in report.violations],
    }
