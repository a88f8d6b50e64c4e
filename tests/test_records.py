"""The value records' contract: the ten NamedTuples keep the repr, equality,
hashing, immutability and pickling they had as frozen dataclasses, and
importing the package builds dataclass code for the four classes that stay
dataclasses only."""

from __future__ import annotations

import json
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import intervalcolor
from intervalcolor import (
    EdgeColoring,
    applicable_bounds,
    audit,
    classify,
    coloring_to_json,
    double_graph,
    double_with_certificate,
    survey_graph,
    validate_interval,
)
from intervalcolor.coloring import Failure
from intervalcolor.doubling import CrossEdge, MatchingEdge
from smallgraphs import c4, k2


def bound_claims():
    g = c4()
    return applicable_bounds(g, classify(g))


# Each record type: a function building a fresh sample, and the sample's
# repr as the frozen dataclasses printed it. Claims hold an evidence dict,
# so BoundClaim and BoundReport are unhashable, as they were.
_CLAIM = "BoundClaim(theorem_id='T1_triangle_free', bound=3, evidence={'n': 4})"
_G = "Graph(n=4, edges=((0, 2), (0, 3), (1, 2), (1, 3)))"
_PROVENANCE = (
    "(MatchingEdge(vertex=0), CrossEdge(source_index=0, flipped=False), "
    "CrossEdge(source_index=0, flipped=True), MatchingEdge(vertex=1))"
)
_RESULT = f"DoublingResult(h={_G}, u_map=(0, 1), w_map=(2, 3), edge_provenance={_PROVENANCE})"
RECORDS = [
    (lambda: bound_claims()[0], _CLAIM, False),
    (
        lambda: audit(c4(), 4, bound_claims()),
        f"BoundReport(claims=({_CLAIM}, "
        "BoundClaim(theorem_id='T3_general', bound=5, evidence={'n': 4}), "
        "BoundClaim(theorem_id='T4_general_n3', bound=4, evidence={'n': 4})), "
        f"best=3, audited_W=4, violations=({_CLAIM},))",
        False,
    ),
    (
        lambda: Failure("proper", 0, "repeated colors [1] at vertex 0"),
        "Failure(kind='proper', subject=0, detail='repeated colors [1] at vertex 0')",
        True,
    ),
    (
        lambda: validate_interval(c4(), EdgeColoring(2, (1, 1, 2, 2))),
        "ValidationReport(proper=False, interval_at_every_vertex=False, surjective=True, "
        "verdict=False, failures=("
        "Failure(kind='proper', subject=0, detail='repeated colors [1] at vertex 0'), "
        "Failure(kind='interval', subject=0, "
        "detail='spectrum [1] at vertex 0 is not 2 consecutive integers'), "
        "Failure(kind='proper', subject=2, detail='repeated colors [2] at vertex 2'), "
        "Failure(kind='interval', subject=2, "
        "detail='spectrum [2] at vertex 2 is not 2 consecutive integers')))",
        True,
    ),
    (lambda: CrossEdge(2, True), "CrossEdge(source_index=2, flipped=True)", True),
    (lambda: MatchingEdge(1), "MatchingEdge(vertex=1)", True),
    (lambda: double_graph(k2()), _RESULT, True),
    (
        lambda: double_with_certificate(k2(), EdgeColoring(1, (1,))),
        "DoublingCertificate(g=Graph(n=2, edges=((0, 1),)), "
        f"alpha=EdgeColoring(t=1, colors=(1,)), result={_RESULT}, "
        "beta=EdgeColoring(t=3, colors=(3, 2, 2, 3)), chosen_i0=0, "
        "final=EdgeColoring(t=3, colors=(1, 2, 2, 3)), "
        "validation=ValidationReport(proper=True, interval_at_every_vertex=True, "
        "surjective=True, verdict=True, failures=()))",
        True,
    ),
    (
        lambda: classify(c4()),
        "GraphClass(connected=True, bipartition=((0, 2), (1, 3)), regular_degree=2, "
        "triangle_free=True, biregular_degrees=(2, 2), max_degree=2, min_degree=2)",
        True,
    ),
    (
        lambda: survey_graph(c4(), with_doubling=True),
        "SurveyRecord(graph6='Cl', n=4, m=4, delta=2, connected=True, bipartite=True, "
        "regular_r=2, triangle_free=True, w=3, best_bound=3, slack=0, "
        "tight_theorems=('T1_triangle_free',), doubling_ok=True)",
        True,
    ),
]
IDS = [text[: text.index("(")] for _, text, _ in RECORDS]


@pytest.mark.parametrize("build, text, hashable", RECORDS, ids=IDS)
class TestRecordContract:
    def test_repr_is_unchanged(self, build, text, hashable):
        assert repr(build()) == text

    def test_equal_and_hashed_by_value(self, build, text, hashable):
        a, b = build(), build()
        assert a == b and not a != b
        assert a != a._replace(**{a._fields[0]: None})
        if hashable:
            assert hash(a) == hash(b)
        else:
            with pytest.raises(TypeError, match="unhashable type: 'dict'"):
                hash(a)

    def test_immutable(self, build, text, hashable):
        record = build()
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], None)
        with pytest.raises(AttributeError):
            record.note = "added"  # no __dict__: the records stay slotted
        assert repr(record) == text

    def test_pickle_round_trip(self, build, text, hashable):
        record = build()
        copy = pickle.loads(pickle.dumps(record))
        assert type(copy) is type(record) and copy == record and repr(copy) == text


def test_the_ten_records_are_named_tuples():
    types = {type(build()) for build, _, _ in RECORDS}
    assert sorted(t.__name__ for t in types) == sorted(IDS) and len(types) == 10
    assert all(issubclass(t, tuple) and hasattr(t, "_fields") for t in types)


def test_import_processes_four_dataclasses():
    # A fresh interpreter: this one has imported the package already. The
    # ten value records are NamedTuples, whose classes cost about a quarter
    # of a frozen dataclass's generated methods, and every CLI run imports
    # the package.
    probe = (
        "import dataclasses\n"
        "processed = []\n"
        "process = dataclasses._process_class\n"
        "def counting(cls, *args, **kwargs):\n"
        "    processed.append(cls.__name__)\n"
        "    return process(cls, *args, **kwargs)\n"
        "dataclasses._process_class = counting\n"
        "import intervalcolor\n"
        "print(*processed)"
    )
    src = str(Path(intervalcolor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=env, check=True
    )
    processed = sorted(result.stdout.split())
    assert processed == ["EdgeColoring", "Graph", "SearchLimits", "SolveOutcome"]


def test_the_kernel_path_imports_no_reference(tmp_path):
    # Fresh interpreters, one per path: this one has imported the references
    # for the tests. With the kernel, the library calls and the CLI commands
    # leave _reference unimported; on the Python path (conftest's
    # force_python_path) they import it and print the same results.
    g = c4()
    graph = tmp_path / "c4.g6"
    graph.write_text("Cl\n")
    valid, invalid = tmp_path / "valid.json", tmp_path / "invalid.json"
    valid.write_text(json.dumps(coloring_to_json(g, EdgeColoring(3, (1, 2, 2, 3)))))
    invalid.write_text(json.dumps(coloring_to_json(g, EdgeColoring(2, (1, 1, 2, 2)))))
    probe = (
        "import contextlib, io, sys\n"
        "from intervalcolor import (\n"
        "    EdgeColoring, compute_W, find_interval_coloring, generate_connected_catalog,\n"
        "    parse_graph6, run_survey, solver, validate_interval,\n"
        ")\n"
        "from intervalcolor.cli import main\n"
        "path, graph, valid, invalid = sys.argv[1:]\n"
        "if path == 'python':\n"
        "    import pytest\n"
        "    from conftest import force_python_path\n"
        "    force_python_path(pytest.MonkeyPatch())\n"
        "assert (solver._native().__name__ == 'intervalcolor._reference') == (path == 'python')\n"
        "g = parse_graph6('Cl')\n"
        "results = [\n"
        "    compute_W(g),\n"
        "    find_interval_coloring(g, 3),\n"
        "    list(generate_connected_catalog(6)),\n"
        "    list(run_survey(generate_connected_catalog(6), with_doubling=True)),\n"
        "    validate_interval(g, EdgeColoring(2, (1, 1, 2, 2))),\n"
        "]\n"
        "commands = [\n"
        "    ['validate', '--graph', graph, '--coloring', invalid],\n"
        "    ['solve', '--graph', graph],\n"
        "    ['solve', '--graph', graph, '--t', '3'],\n"
        "    ['double', '--graph', graph, '--coloring', valid],\n"
        "    ['bounds', '--graph', graph],\n"
        "    ['survey', '--gen-n', '5', '--with-doubling'],\n"
        "]\n"
        "out = io.StringIO()\n"
        "with contextlib.redirect_stdout(out):\n"
        "    codes = [main(command) for command in commands]\n"
        "print(repr(results))\n"
        "print(codes)\n"
        "print(out.getvalue())\n"
        "print('intervalcolor._reference' in sys.modules)"
    )
    src = str(Path(intervalcolor.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, str(Path(__file__).parent)])}
    printed = {}
    for path in ("kernel", "python"):
        result = subprocess.run(
            [sys.executable, "-c", probe, path, str(graph), str(valid), str(invalid)],
            capture_output=True, text=True, env=env, check=True, timeout=300,
        )
        *text, imported = result.stdout.splitlines()
        assert imported == str(path == "python"), path
        printed[path] = text
    assert printed["kernel"] == printed["python"]
    assert printed["kernel"][0].count("SurveyRecord(") == 112  # the n = 6 catalog
    assert printed["kernel"][1] == "[1, 0, 0, 0, 0, 0]"  # the invalid coloring exits 1
