from __future__ import annotations

import hashlib
import io
from pathlib import Path

import pytest

from intervalcolor import (
    EdgeColoring,
    InternalInvariantError,
    SearchLimits,
    SolveOutcome,
    SolveStatus,
    SurveyRecord,
    generate_connected_catalog,
    run_survey,
    survey_graph,
    write_survey_csv,
)
from intervalcolor import _reference, bounds, coloring, graph, survey
from intervalcolor.cli import main
from intervalcolor.survey import CSV_COLUMNS, record_to_row
from smallgraphs import c4, k1, k2, k3, p3, two_k2


class TestSurveyRecords:
    def test_k2_p3_k3_roundup(self):
        records = list(run_survey([k2(), p3(), k3()], with_doubling=True))
        ws = [r.w for r in records]
        assert ws == [1, 2, "not-colorable"]
        assert [r.slack for r in records] == [0, 0, None]
        assert [r.doubling_ok for r in records] == [True, True, None]

    def test_disconnected_is_skipped_not_fatal(self):
        records = list(run_survey([two_k2(), k2()]))
        assert records[0].connected is False
        assert records[0].w is None and records[0].best_bound is None
        assert records[1].w == 1

    def test_edgeless_connected_graph_recorded_blank(self):
        rec = survey_graph(k1())
        assert rec.connected is True
        assert rec.w is None and rec.best_bound is None

    def test_tight_theorems(self):
        rec = survey_graph(c4())
        assert rec.w == 3 and rec.best_bound == 3 and rec.slack == 0
        assert rec.tight_theorems == ("T1_triangle_free",)

    def test_doubling_flag_off_by_default(self):
        assert survey_graph(c4()).doubling_ok is None
        assert survey_graph(c4(), with_doubling=True).doubling_ok is True

    def test_aborted_rendering(self):
        rec = survey_graph(c4(), limits=SearchLimits(node_limit=1))
        assert rec.w == "aborted"
        assert rec.slack is None

    def test_w_above_a_bound_is_a_defect(self, monkeypatch):
        # P3 is triangle-free, so T1 caps W at n - 1 = 2; a solver reporting 3 must be caught.
        wrong = SolveOutcome(SolveStatus.FOUND, EdgeColoring(3, (1, 2)), w=3)
        monkeypatch.setattr("intervalcolor.survey.compute_W", lambda g, limits: wrong)
        with pytest.raises(InternalInvariantError, match="T1_triangle_free"):
            survey_graph(p3())

    def test_one_claims_walk_per_graph(self, catalogs, monkeypatch):
        # The survey's own claims give its best bound; compute_W takes its
        # cutoff from the registry without building claims.
        walks = []
        walk = bounds.applicable_bounds

        def counted(g, cls, planar_asserted=False):
            walks.append(g)
            return walk(g, cls, planar_asserted)

        monkeypatch.setattr(survey, "applicable_bounds", counted)
        monkeypatch.setattr(bounds, "applicable_bounds", counted)
        records = list(run_survey(catalogs[4]))
        assert len(walks) == len(records) == 6
        assert [r.best_bound for r in records] == [3, 3, 4, 3, 4, 4]

    def test_catalog_n4_all_sound(self, catalogs):
        records = list(run_survey(catalogs[4], with_doubling=True))
        assert len(records) == 6
        for rec in records:
            if isinstance(rec.w, int):
                assert rec.delta <= rec.w <= rec.best_bound
                assert rec.slack is not None and rec.slack >= 0
                assert rec.doubling_ok is True
            else:
                assert rec.w == "not-colorable"


class TestCsvOutput:
    def render(self, graphs, **kwargs) -> str:
        buf = io.StringIO()
        write_survey_csv(run_survey(graphs, **kwargs), buf)
        return buf.getvalue()

    def test_header_and_shape(self):
        text = self.render([k2()])
        lines = text.splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        assert len(lines) == 2

    def test_record_fields_are_the_columns(self):
        # SurveyRecord's fields in order, w spelled W, pinned byte for byte.
        assert ",".join(CSV_COLUMNS) == ("graph6,n,m,delta,connected,bipartite,regular_r,"
                                          "triangle_free,W,best_bound,slack,tight_theorems,doubling_ok")

    def test_row_rendering(self):
        row = record_to_row(survey_graph(k3()))
        assert row == ["Bw", "3", "3", "2", "true", "false", "2", "false",
                       "not-colorable", "2", "", "", ""]

    def test_every_value_kind_in_every_column(self):
        # Each column's values, None included where its type allows one,
        # rendered by hand; SurveyRecord's fields are the columns, in order.
        kinds = {
            "graph6": [("Bw", "Bw")],
            "n": [(3, "3"), (12, "12")],
            "m": [(0, "0"), (3, "3")],
            "delta": [(0, "0"), (2, "2")],
            "connected": [(True, "true"), (False, "false")],
            "bipartite": [(True, "true"), (False, "false")],
            "regular_r": [(None, ""), (0, "0"), (2, "2")],
            "triangle_free": [(True, "true"), (False, "false")],
            "W": [(None, ""), ("aborted", "aborted"), ("not-colorable", "not-colorable"),
                  (7, "7")],
            "best_bound": [(None, ""), (9, "9")],
            "slack": [(None, ""), (0, "0"), (2, "2")],
            "tight_theorems": [((), ""), (("T1_triangle_free",), "T1_triangle_free"),
                               (("T1_triangle_free", "T4_general_n3"),
                                "T1_triangle_free;T4_general_n3")],
            "doubling_ok": [(None, ""), (True, "true"), (False, "false")],
        }
        assert list(kinds) == list(CSV_COLUMNS)
        names = SurveyRecord._fields
        base = {name: values[0] for name, values in zip(names, kinds.values())}
        rows = 0
        for column, (name, values) in enumerate(zip(names, kinds.values())):
            for value, text in values:
                fields_of = {**base, name: (value, text)}
                rec = SurveyRecord(**{k: v for k, (v, _) in fields_of.items()})
                assert record_to_row(rec) == [t for _, t in fields_of.values()], (name, value)
                assert record_to_row(rec)[column] == text
                rows += 1
        assert rows == 31

    def test_missing_values_render_empty(self):
        row = record_to_row(survey_graph(two_k2()))
        assert row[4] == "false"  # connected
        assert row[8] == "" and row[9] == "" and row[10] == ""

    def test_empty_input_gives_header_only(self):
        assert self.render([]).splitlines() == [",".join(CSV_COLUMNS)]

    def test_the_kernel_builds_every_graph_and_coloring_of_a_survey(self, monkeypatch):
        # The n = 6 survey with doubling, with the Python references of
        # Graph and EdgeColoring refusing to run: the kernel's index_graph
        # and in_palette build every graph, witness and certificate.
        def refuse(*args):
            raise AssertionError("a Python reference ran")

        monkeypatch.setattr(graph, "_index_py", refuse)
        monkeypatch.setattr(coloring, "_check_colors_py", refuse)
        text = self.render(generate_connected_catalog(6), with_doubling=True)
        reference = Path(__file__).resolve().parent.parent / "bench" / "reference" / "survey6.csv"
        assert text == reference.read_text()

    def test_the_kernel_classifies_every_graph_of_a_survey(self, capsys, monkeypatch):
        # survey --gen-n 6 --with-doubling with _classify_py refusing to
        # run: the kernel's classify gives the class of every surveyed
        # graph and of every compute_W call.
        def refuse(g):
            raise AssertionError("_classify_py ran")

        monkeypatch.setattr(_reference, "_classify_py", refuse)
        assert main(["survey", "--gen-n", "6", "--with-doubling"]) == 0
        reference = Path(__file__).resolve().parent.parent / "bench" / "reference" / "survey6.csv"
        assert capsys.readouterr().out == reference.read_text()

    def test_the_n7_survey_matches_its_digest(self, capsys):
        assert main(["survey", "--gen-n", "7", "--with-doubling"]) == 0
        digest = hashlib.md5(capsys.readouterr().out.encode()).hexdigest()
        assert digest == "4ec279f0352182cec998d82a3121938a"

    def test_byte_identical_reruns(self, catalogs):
        graphs = catalogs[4]
        first = self.render(graphs, with_doubling=True)
        second = self.render(graphs, with_doubling=True)
        assert first == second
