"""Command-line front end.

Exit codes: 0 success / verdict true; 1 verdict false, infeasible, or
aborted (out of memory included), or the reader closed the output; 2 usage or
parse error (including violated preconditions); 3 internal invariant
violation, i.e. a bug worth reporting.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager, nullcontext
from typing import IO, Iterator

from .bounds import applicable_bounds, audit, bound_report_to_json
from .catalog import generate_connected_catalog
from .coloring import coloring_from_json, validate_interval, validation_report_to_json
from .doubling import certificate_to_json, double_with_certificate
from .errors import DomainError, InternalInvariantError, InvalidColoringError, ParseError
from .graph import GRAPH6_MAX_N, Graph, classify, parse_edge_list, parse_graph6
from .solver import SearchLimits, SolveStatus, compute_W, find_interval_coloring, outcome_to_json
from .survey import run_survey, write_survey_csv

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_DEFECT = 3


@contextmanager
def _open_text(path: str) -> Iterator[IO[str]]:
    """A UTF-8 file, or stdin for "-"; text that fails to decode is a ParseError."""
    try:
        with nullcontext(sys.stdin) if path == "-" else open(path, encoding="utf-8") as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise ParseError(f"input is not UTF-8 text: {exc}") from None


def _read_text(path: str) -> str:
    with _open_text(path) as fh:
        return fh.read()


def _load_graph(path: str, fmt: str) -> Graph:
    text = _read_text(path)
    if fmt == "edges":
        return parse_edge_list(text)
    for line in text.splitlines():
        line = line.strip()
        if line:
            return parse_graph6(line)
    raise ParseError("no graph6 line found in input")


def _load_coloring(path: str, g: Graph):
    text = _read_text(path)
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"coloring file is not valid JSON: {exc}") from None
    except RecursionError:
        raise ParseError("coloring file is nested too deeply") from None
    return coloring_from_json(g, doc)


def _print_json(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2)
    print()


def _cmd_validate(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    coloring = _load_coloring(args.coloring, g)
    report = validate_interval(g, coloring)
    _print_json(validation_report_to_json(report))
    return EXIT_OK if report.verdict else EXIT_NEGATIVE


def _cmd_solve(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    limits = SearchLimits(node_limit=args.node_limit)
    if args.t is not None:
        outcome = find_interval_coloring(g, args.t, limits)
    else:
        outcome = compute_W(g, limits)
    _print_json(outcome_to_json(outcome, g))
    return EXIT_OK if outcome.status is SolveStatus.FOUND else EXIT_NEGATIVE


def _cmd_double(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    if 2 * g.n > GRAPH6_MAX_N:
        raise DomainError(
            f"double supports n <= {GRAPH6_MAX_N // 2} vertices (the certificate holds"
            f" the 2n-vertex doubled graph as graph6), got n = {g.n}"
        )
    coloring = _load_coloring(args.coloring, g)
    cert = double_with_certificate(g, coloring)
    _print_json(certificate_to_json(cert))
    return EXIT_OK


def _cmd_bounds(args: argparse.Namespace) -> int:
    g = _load_graph(args.graph, args.format)
    claims = applicable_bounds(g, classify(g), planar_asserted=args.planar)
    _print_json(bound_report_to_json(audit(g, None, claims)))
    return EXIT_OK


def _graph6_stream(fh: IO[str]) -> Iterator[Graph]:
    """Graphs of a graph6 stream, read line by line and split as
    ``str.splitlines`` splits the whole text; a malformed line ends it with a
    ParseError naming its 1-based line number."""
    for lineno, line in enumerate((p for chunk in fh for p in chunk.splitlines()), start=1):
        line = line.strip()
        if line:
            try:
                g = parse_graph6(line)
            except ParseError as exc:
                raise ParseError(str(exc), line=lineno) from None
            yield g


def _cmd_survey(args: argparse.Namespace) -> int:
    limits = SearchLimits(node_limit=args.node_limit)
    # The input is opened, and --gen-n checked, before --out is opened for
    # writing, so that a bad source leaves an earlier --out file as it was.
    with nullcontext() if args.gen_n is not None else _open_text(args.input) as fh:
        graphs = generate_connected_catalog(args.gen_n) if fh is None else _graph6_stream(fh)
        sink = nullcontext(sys.stdout)
        if args.out:
            sink = open(args.out, "w", encoding="utf-8", newline="")
        with sink as out:
            write_survey_csv(run_survey(graphs, limits, with_doubling=args.with_doubling), out)
    return EXIT_OK


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {value}")
    return value


def _add_graph_args(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("--graph", required=True, help="graph file, or - for stdin")
    sub.add_argument("--format", choices=("g6", "edges"), default="g6")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="intervalcolor",
        description="Exact interval edge-coloring toolkit: validate, solve, double, bound, survey.",
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    p = subparsers.add_parser("validate", help="check a coloring document against a graph")
    _add_graph_args(p)
    p.add_argument("--coloring", required=True, help="coloring JSON file, or - for stdin")
    p.set_defaults(func=_cmd_validate)

    p = subparsers.add_parser("solve", help="decide one t, or compute the maximum W")
    _add_graph_args(p)
    p.add_argument("--t", type=int, default=None, help="decide this palette size only")
    p.add_argument(
        "--node-limit", type=_nonnegative_int, default=0, help="abort after this many nodes"
    )
    p.set_defaults(func=_cmd_solve)

    p = subparsers.add_parser("double", help="emit a doubling certificate for a valid coloring")
    _add_graph_args(p)
    p.add_argument("--coloring", required=True)
    p.set_defaults(func=_cmd_double)

    p = subparsers.add_parser("bounds", help="report applicable upper bounds on W")
    _add_graph_args(p)
    p.add_argument("--planar", action="store_true", help="assert the graph is planar")
    p.set_defaults(func=_cmd_bounds)

    p = subparsers.add_parser("survey", help="batch pipeline over a graph6 stream, CSV out")
    source = p.add_mutually_exclusive_group()
    source.add_argument("--gen-n", type=int, default=None, help="survey the n-vertex catalog")
    source.add_argument("--input", default="-", help="graph6 file, or - for stdin")
    p.add_argument("--with-doubling", action="store_true")
    p.add_argument("--out", default=None, help="CSV output path (default stdout)")
    p.add_argument("--node-limit", type=_nonnegative_int, default=0)
    p.set_defaults(func=_cmd_survey)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # The reader is gone; with stdout on devnull the final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_NEGATIVE
    # InvalidColoringError is a DomainError, so it goes first; MemoryError has no text.
    except (InvalidColoringError, MemoryError) as exc:
        print(f"error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_NEGATIVE
    except (ParseError, DomainError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except InternalInvariantError as exc:
        print(f"internal invariant violation (this is a bug): {exc}", file=sys.stderr)
        return EXIT_DEFECT


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
