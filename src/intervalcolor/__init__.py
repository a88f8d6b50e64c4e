"""Exact toolkit for interval edge-colorings of simple graphs.

Validate colorings, compute the maximum palette size W(G) by exact search,
lift colorings through the bipartite doubling construction, and audit the
registered upper bounds against exhaustively enumerated small graphs.

The ten value records are ``typing.NamedTuple``s: ``GraphClass``,
``Failure``, ``ValidationReport``, ``BoundClaim``, ``BoundReport``,
``CrossEdge``, ``MatchingEdge``, ``DoublingResult``, ``DoublingCertificate``
and ``SurveyRecord``. They are immutable and compare by value, and, being
tuples, can be iterated and indexed; ``_fields`` and ``_replace`` take the
place of ``dataclasses.fields`` and ``replace``. Creating such a class costs
a quarter of what a frozen dataclass costs, which every CLI process pays on
import. ``Graph``, ``EdgeColoring``, ``SearchLimits`` and ``SolveOutcome``
stay frozen dataclasses; each one's docstring says why.
"""

from .bounds import (
    BoundClaim,
    BoundReport,
    applicable_bounds,
    audit,
    best_upper_bound,
)
from .catalog import generate_connected_catalog, minimum_adjacency_encoding
from .coloring import (
    EdgeColoring,
    ValidationReport,
    coloring_from_json,
    coloring_to_json,
    validate_interval,
)
from .doubling import (
    DoublingCertificate,
    DoublingResult,
    certificate_to_json,
    double_graph,
    double_with_certificate,
    finalize_recolor,
    lift_coloring,
)
from .errors import DomainError, InternalInvariantError, InvalidColoringError, ParseError
from .graph import (
    Graph,
    GraphClass,
    classify,
    is_connected,
    parse_edge_list,
    parse_graph6,
    write_graph6,
)
from .solver import (
    SearchLimits,
    SolveOutcome,
    SolveStatus,
    compute_W,
    find_interval_coloring,
)
from .survey import SurveyRecord, run_survey, survey_graph, write_survey_csv

__version__ = "0.1.0"

__all__ = [
    "BoundClaim",
    "BoundReport",
    "DomainError",
    "DoublingCertificate",
    "DoublingResult",
    "EdgeColoring",
    "Graph",
    "GraphClass",
    "InternalInvariantError",
    "InvalidColoringError",
    "ParseError",
    "SearchLimits",
    "SolveOutcome",
    "SolveStatus",
    "SurveyRecord",
    "ValidationReport",
    "applicable_bounds",
    "audit",
    "best_upper_bound",
    "certificate_to_json",
    "classify",
    "coloring_from_json",
    "coloring_to_json",
    "compute_W",
    "double_graph",
    "double_with_certificate",
    "finalize_recolor",
    "find_interval_coloring",
    "generate_connected_catalog",
    "is_connected",
    "lift_coloring",
    "minimum_adjacency_encoding",
    "parse_edge_list",
    "parse_graph6",
    "run_survey",
    "survey_graph",
    "validate_interval",
    "write_graph6",
    "write_survey_csv",
]

