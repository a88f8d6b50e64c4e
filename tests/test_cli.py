from __future__ import annotations

import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import intervalcolor
from intervalcolor import EdgeColoring, Graph, coloring_to_json, write_graph6
from intervalcolor.cli import main
from intervalcolor.graph import EDGE_LIST_MAX_N
from conftest import force_python_path
from smallgraphs import c4, k3

try:
    import resource
except ImportError:  # not on Windows
    resource = None


@pytest.fixture()
def c4_files(tmp_path):
    graph = tmp_path / "c4.g6"
    graph.write_text(write_graph6(c4()) + "\n")
    coloring = tmp_path / "c4.json"
    coloring.write_text(json.dumps(coloring_to_json(c4(), EdgeColoring(3, (1, 2, 2, 3)))))
    return graph, coloring


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr()
    return code, out.out, out.err


def run_capped(argv):
    """Run the CLI in a child process capped at 60 s and 1 GiB."""
    if resource is None:
        pytest.skip("needs resource.setrlimit")
    src = str(Path(intervalcolor.__file__).resolve().parents[1])
    return subprocess.run(
        [sys.executable, "-m", "intervalcolor", *argv],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": src},
        timeout=60,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30)),
    )


class TestValidate:
    def test_valid_coloring_exits_zero(self, capsys, c4_files):
        graph, coloring = c4_files
        code, out, _ = run(capsys, ["validate", "--graph", str(graph), "--coloring", str(coloring)])
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_invalid_coloring_exits_one(self, capsys, tmp_path, c4_files):
        graph, _ = c4_files
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(coloring_to_json(c4(), EdgeColoring(4, (1, 2, 2, 3)))))
        code, out, _ = run(capsys, ["validate", "--graph", str(graph), "--coloring", str(bad)])
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] is False
        assert doc["failures"][0]["kind"] == "surjective"

    def test_malformed_graph_exits_two(self, capsys, tmp_path, c4_files):
        _, coloring = c4_files
        bad = tmp_path / "bad.g6"
        bad.write_text("A_x\n")
        code, _, err = run(capsys, ["validate", "--graph", str(bad), "--coloring", str(coloring)])
        assert code == 2
        assert "byte 2" in err

    def test_edges_format(self, capsys, tmp_path, c4_files):
        _, coloring = c4_files
        graph = tmp_path / "c4.edges"
        graph.write_text("4\n0 1\n1 2\n2 3\n0 3\n")
        code, out, _ = run(
            capsys,
            ["validate", "--graph", str(graph), "--format", "edges", "--coloring", str(coloring)],
        )
        assert code == 0 and json.loads(out)["verdict"] is True

    def test_huge_palette_returns_promptly(self, tmp_path):
        graph = tmp_path / "k2.g6"
        graph.write_text("A_\n")
        doc = tmp_path / "k2.json"
        doc.write_text(json.dumps({"t": 10**12, "edges": [{"u": 0, "v": 1, "color": 5}]}))
        # Listing 10**12 unused colors one by one would exhaust the child's
        # time and memory.
        result = run_capped(["validate", "--graph", str(graph), "--coloring", str(doc)])
        assert result.returncode == 1
        failures = [(f["subject"], f["detail"]) for f in json.loads(result.stdout)["failures"]]
        assert failures == [
            (1, "colors 1..4 are unused"),
            (6, f"colors 6..{10**12} are unused"),
        ]


class TestSolve:
    def test_compute_w(self, capsys, c4_files):
        graph, _ = c4_files
        code, out, _ = run(capsys, ["solve", "--graph", str(graph)])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "found" and doc["W"] == 3
        assert doc["witness"]["t"] == 3

    def test_single_t_infeasible(self, capsys, tmp_path):
        graph = tmp_path / "k3.g6"
        graph.write_text("Bw\n")
        code, out, _ = run(capsys, ["solve", "--graph", str(graph), "--t", "3"])
        assert code == 1
        assert json.loads(out)["status"] == "infeasible"

    def test_t_out_of_range_is_usage_error(self, capsys, c4_files):
        graph, _ = c4_files
        code, _, err = run(capsys, ["solve", "--graph", str(graph), "--t", "9"])
        assert code == 2 and "outside" in err

    def test_deep_path_edge_list(self, capsys, tmp_path):
        # One search depth per edge: 1,200 exceeds the default recursion limit.
        graph = tmp_path / "p1201.edges"
        graph.write_text("1201\n" + "".join(f"{i} {i + 1}\n" for i in range(1200)))
        code, out, _ = run(capsys, ["solve", "--graph", str(graph), "--format", "edges"])
        assert code == 0
        doc = json.loads(out)
        assert doc["status"] == "found" and doc["W"] == 1200

    def test_out_of_memory_exits_one(self, tmp_path):
        n = EDGE_LIST_MAX_N
        graph = tmp_path / "path.edges"
        graph.write_text(f"{n}\n" + "".join(f"{i} {i + 1}\n" for i in range(n - 1)))
        # The search holds (t + 1) / 64 + 1 mask words per vertex: 1.25 GB at t = n - 1.
        result = run_capped(["solve", "--graph", str(graph), "--format", "edges"])
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr == "error: out of memory\n"

    def test_node_limit_aborts(self, capsys, c4_files):
        graph, _ = c4_files
        code, out, _ = run(capsys, ["solve", "--graph", str(graph), "--node-limit", "1"])
        assert code == 1
        assert json.loads(out)["status"] == "aborted"


    def test_huge_node_limit_acts_as_unlimited(self, capsys, tmp_path):
        # Beyond the kernel's 64-bit node counter; no search gets that far.
        graph = tmp_path / "k2.edges"
        graph.write_text("2\n0 1\n")
        argv = ["solve", "--graph", str(graph), "--format", "edges", "--node-limit"]
        code, out, _ = run(capsys, [*argv, str(10**23)])
        assert code == 0
        assert json.loads(out) == json.loads(run(capsys, [*argv, "0"])[1])


class TestDouble:
    def test_certificate_output(self, capsys, c4_files):
        graph, coloring = c4_files
        code, out, _ = run(capsys, ["double", "--graph", str(graph), "--coloring", str(coloring)])
        assert code == 0
        doc = json.loads(out)
        assert doc["validation"]["verdict"] is True
        assert doc["final"]["t"] == 5

    def test_boolean_in_coloring_is_parse_error(self, capsys, tmp_path):
        graph = tmp_path / "k2.g6"
        graph.write_text("A_\n")
        coloring = tmp_path / "alpha.json"
        coloring.write_text('{"t": true, "edges": [{"u": 0, "v": 1, "color": true}]}')
        for command in ("validate", "double"):
            argv = [command, "--graph", str(graph), "--coloring", str(coloring)]
            code, out, err = run(capsys, argv)
            assert code == 2, command
            assert out == ""
            assert "integer" in err

    def test_edges_not_a_list_is_parse_error(self, capsys, tmp_path):
        graph = tmp_path / "k2.g6"
        graph.write_text("A_\n")
        for edges in ("5", "null"):
            coloring = tmp_path / "alpha.json"
            coloring.write_text(f'{{"t": 1, "edges": {edges}}}')
            for command in ("validate", "double"):
                argv = [command, "--graph", str(graph), "--coloring", str(coloring)]
                code, out, err = run(capsys, argv)
                assert code == 2, (command, edges)
                assert out == ""
                assert "must be a list" in err

    def test_n_above_31_fails_before_doubling(self, capsys, tmp_path):
        # The certificate holds H, on 2n vertices, as graph6 (n <= 62).
        for n, expected in ((31, 0), (32, 2)):
            path = Graph(n, tuple((i, i + 1) for i in range(n - 1)))
            graph = tmp_path / "path.edges"
            graph.write_text(f"{n}\n" + "".join(f"{a} {b}\n" for a, b in path.edges))
            coloring = tmp_path / "path.json"
            doc = coloring_to_json(path, EdgeColoring(n - 1, tuple(range(1, n))))
            coloring.write_text(json.dumps(doc))
            argv = ["double", "--graph", str(graph), "--coloring", str(coloring)]
            code, out, err = run(capsys, [*argv, "--format", "edges"])
            assert code == expected, n
        assert out == "" and "double supports n <= 31 vertices" in err

    def test_disconnected_graph_is_usage_error(self, capsys, tmp_path):
        graph = tmp_path / "2k2.edges"
        graph.write_text("4\n0 1\n2 3\n")
        coloring = tmp_path / "alpha.json"
        doc = coloring_to_json(Graph(4, ((0, 1), (2, 3))), EdgeColoring(1, (1, 1)))
        coloring.write_text(json.dumps(doc))
        argv = ["double", "--graph", str(graph), "--format", "edges", "--coloring", str(coloring)]
        code, out, err = run(capsys, argv)
        assert code == 2
        assert out == "" and err == "error: graph is disconnected\n"

    def test_invalid_source_coloring_exits_one(self, capsys, tmp_path):
        graph = tmp_path / "k3.g6"
        graph.write_text("Bw\n")
        coloring = tmp_path / "alpha.json"
        coloring.write_text(json.dumps(coloring_to_json(k3(), EdgeColoring(3, (1, 2, 3)))))
        code, _, err = run(capsys, ["double", "--graph", str(graph), "--coloring", str(coloring)])
        assert code == 1
        assert "interval" in err


class TestBounds:
    def test_huge_edge_list_vertex_count_is_parse_error(self, tmp_path):
        graph = tmp_path / "huge.edges"
        graph.write_text("100000000\n0 1\n")
        # Building 10**8 adjacency lists would exhaust the child's memory.
        result = run_capped(["bounds", "--graph", str(graph), "--format", "edges"])
        assert result.returncode == 2
        assert result.stdout == ""
        assert f"1..{EDGE_LIST_MAX_N}" in result.stderr

    def test_report(self, capsys, c4_files):
        graph, _ = c4_files
        code, out, _ = run(capsys, ["bounds", "--graph", str(graph)])
        assert code == 0
        doc = json.loads(out)
        assert doc["best"] == 3
        assert {c["theorem_id"] for c in doc["claims"]} == {
            "T1_triangle_free",
            "T3_general",
            "T4_general_n3",
        }

    def test_edgeless_graph_is_usage_error(self, capsys, tmp_path):
        graph = tmp_path / "k1.g6"
        graph.write_text("@\n")
        code, out, err = run(capsys, ["bounds", "--graph", str(graph)])
        assert code == 2
        assert out == ""
        assert "at least one edge" in err

    def test_planar_flag(self, capsys, c4_files):
        graph, _ = c4_files
        code, out, _ = run(capsys, ["bounds", "--graph", str(graph), "--planar"])
        doc = json.loads(out)
        assert any(c["theorem_id"] == "T6_planar_asserted" for c in doc["claims"])


class TestSurvey:
    def test_gen_n(self, capsys):
        code, out, _ = run(capsys, ["survey", "--gen-n", "3", "--with-doubling"])
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == 3  # header + P3 + K3
        assert lines[0].startswith("graph6,")

    def test_input_file_and_out(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("A_\nBw\n")
        dst = tmp_path / "out.csv"
        code, out, _ = run(capsys, ["survey", "--input", str(src), "--out", str(dst)])
        assert code == 0 and out == ""
        lines = dst.read_text().splitlines()
        assert len(lines) == 3
        assert lines[1].split(",")[8] == "1"  # W(K2)
        assert lines[2].split(",")[8] == "not-colorable"

    def test_stdin_default(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.stdin", io.StringIO("A_\n"))
        code, out, _ = run(capsys, ["survey"])
        assert code == 0
        assert len(out.splitlines()) == 2

    def test_stdin_is_read_line_by_line(self, capsys, monkeypatch):
        class LinesOnly:
            def __iter__(self):
                return iter(["A_\n", "Bw\n"])

            def read(self, *args):
                raise AssertionError("the survey read its whole input at once")

        monkeypatch.setattr("sys.stdin", LinesOnly())
        code, out, _ = run(capsys, ["survey", "--input", "-"])
        assert code == 0
        assert [row.split(",")[0] for row in out.splitlines()[1:]] == ["A_", "Bw"]

    def test_closed_output_pipe_exits_one_quietly(self, tmp_path, c4_files):
        graph, _ = c4_files
        src = tmp_path / "in.g6"
        src.write_text("A_\n" * 5000)  # its CSV overfills a pipe buffer
        env = {**os.environ, "PYTHONPATH": str(Path(intervalcolor.__file__).resolve().parents[1])}
        # The survey fails while writing; solve, whose reader is gone before
        # it starts, fails at the flush in main.
        runs = ((["survey", "--input", str(src)], 1), (["solve", "--graph", str(graph)], 0))
        for argv, lines_read in runs:
            proc = subprocess.Popen(
                [sys.executable, "-m", "intervalcolor", *argv],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
                env=env,
            )
            for _ in range(lines_read):
                proc.stdout.readline()
            proc.stdout.close()
            err = proc.stderr.read()
            assert proc.wait(timeout=60) == 1, argv
            assert err == b"", argv

    def test_malformed_stream_is_usage_error(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("A_\n!!!\n")
        code, _, err = run(capsys, ["survey", "--input", str(src)])
        assert code == 2

    def test_malformed_line_is_named_and_fatal(self, capsys, tmp_path):
        src = tmp_path / "in.g6"
        src.write_text("A_\n\nBw\nB!\nBw\n")  # the bad graph is on line 4
        code, out, err = run(capsys, ["survey", "--input", str(src)])
        assert code == 2
        assert "line 4: byte 1:" in err
        assert len(out.splitlines()) == 3  # header and the two rows before it

    def test_out_of_range_gen_n_writes_nothing(self, capsys, tmp_path):
        dst = tmp_path / "out.csv"
        dst.write_bytes(b"earlier results\n")
        for n in ("9", "0"):
            code, out, err = run(capsys, ["survey", "--gen-n", n])
            assert code == 2 and out == "" and "error:" in err
            code, out, _ = run(capsys, ["survey", "--gen-n", n, "--out", str(dst)])
            assert code == 2 and out == ""
            assert dst.read_bytes() == b"earlier results\n"

    def test_missing_input_leaves_out_as_it_was(self, capsys, tmp_path):
        dst = tmp_path / "results.csv"
        dst.write_bytes(b"earlier\n")
        argv = ["survey", "--input", str(tmp_path / "missing.g6"), "--out", str(dst)]
        code, out, err = run(capsys, argv)
        assert code == 2 and out == "" and "missing.g6" in err
        assert dst.read_bytes() == b"earlier\n"

    def test_deterministic_output(self, capsys):
        code1, out1, _ = run(capsys, ["survey", "--gen-n", "4", "--with-doubling"])
        code2, out2, _ = run(capsys, ["survey", "--gen-n", "4", "--with-doubling"])
        assert code1 == code2 == 0
        assert out1 == out2


class TestUsage:
    def test_non_utf8_input_is_parse_error(self, capsys, monkeypatch, tmp_path, c4_files):
        graph, _ = c4_files
        junk = tmp_path / "junk"
        junk.write_bytes(b"\xff\xfe\x00A_\n")
        argvs = [
            ["validate", "--graph", str(graph), "--coloring", str(junk)],
            ["solve", "--graph", str(junk)],
            ["survey", "--input", str(junk)],
        ]
        for argv in argvs:
            code, _, err = run(capsys, argv)
            assert code == 2 and "UTF-8" in err, argv
            stdin = io.TextIOWrapper(io.BytesIO(junk.read_bytes()), encoding="utf-8")
            monkeypatch.setattr("sys.stdin", stdin)
            stdin_argv = [arg if arg != str(junk) else "-" for arg in argv]
            code, _, err = run(capsys, stdin_argv)
            assert code == 2 and "UTF-8" in err, stdin_argv

    def test_deeply_nested_coloring_is_parse_error(self, capsys, tmp_path, c4_files):
        graph, _ = c4_files
        coloring = tmp_path / "deep.json"
        coloring.write_text("[" * 200_000 + "]" * 200_000)
        for command in ("validate", "double"):
            argv = [command, "--graph", str(graph), "--coloring", str(coloring)]
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "", command
            assert "nested too deeply" in err

    def test_missing_file_exits_two(self, capsys):
        code, _, err = run(capsys, ["solve", "--graph", "/nonexistent/file.g6"])
        assert code == 2

    def test_unknown_command_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2



def _coloring(t, colored):
    return {"t": t, "edges": [{"u": u, "v": v, "color": c} for u, v, c in colored]}


# The coloring documents that the cases below name after --coloring.
COLORINGS = {
    "k34": _coloring(6, [(i, 3 + j, i + j + 1) for i in range(3) for j in range(4)]),
    "k3": _coloring(3, [(0, 1, 1), (0, 2, 2), (1, 2, 3)]),
    "p3-t5": _coloring(5, [(0, 1, 1), (1, 2, 2)]),
    "2k2-t1": _coloring(1, [(0, 1, 1), (2, 3, 1)]),
    "2k2-t2": _coloring(2, [(0, 1, 1), (2, 3, 1)]),
}

# (exit code, command line); --graph takes a graph6 code, --coloring a key of COLORINGS.
BOTH_PATHS = [
    # K_{3,4} doubles (exit 0). K3's coloring is not interval (exit 1). 2K2
    # is disconnected (exit 2), which is reported before its coloring,
    # which leaves color 2 unused, is looked at.
    (0, "double --graph FFzf? --coloring k34"),
    (1, "double --graph Bw --coloring k3"),
    (2, "double --graph C` --coloring 2k2-t2"),
    # K_{3,4} colored i + j + 1 is valid (exit 0); K3 colored 1, 2, 3 is not
    # interval (exit 1). P3 colored 1, 2 with t = 5 > m leaves colors unused
    # (exit 1), and t > m always takes the Python report. 2K2 with both
    # edges colored 1 is valid, disconnected or not.
    (0, "validate --graph FFzf? --coloring k34"),
    (1, "validate --graph Bw --coloring k3"),
    (1, "validate --graph Bg --coloring p3-t5"),
    (0, "validate --graph C` --coloring 2k2-t1"),
    # C8, the Petersen graph, K_{3,5} and a star exit 0; K1 and 2K2, outside
    # the registry's domain, exit 2.
    (0, "bounds --graph GhCGKC"),
    (0, "bounds --graph IheA@GUAo"),
    (0, "bounds --graph GFzfF?"),
    (0, "bounds --graph Esa?"),
    (2, "bounds --graph @"),
    (2, "bounds --graph C`"),
    # E@NG: layers t = 6 and 5 are infeasible in 2 and 9 nodes and t = 4
    # finds W in 8, so node limits 2 and 11 run out exactly at a layer's
    # end, 6, 10 and 18 inside a layer, and 22 leaves room. The Petersen
    # graph's layers t = 7 .. 3 are all infeasible, t = 7 in 312 nodes and
    # t = 6 in 1,875. C8 has W = 5. Found exits 0, anything else 1; 2K2,
    # disconnected, exits 2.
    (0, "solve --graph E@NG"),
    (1, "solve --graph E@NG --node-limit 2"),
    (1, "solve --graph E@NG --node-limit 6"),
    (1, "solve --graph E@NG --node-limit 10"),
    (1, "solve --graph E@NG --node-limit 11"),
    (1, "solve --graph E@NG --node-limit 18"),
    (0, "solve --graph E@NG --node-limit 22"),
    (1, "solve --graph E@NG --t 5"),
    (1, "solve --graph E@NG --t 4 --node-limit 3"),
    (1, "solve --graph IheA@GUAo"),
    (1, "solve --graph IheA@GUAo --node-limit 312"),
    (1, "solve --graph IheA@GUAo --node-limit 395"),
    (1, "solve --graph IheA@GUAo --node-limit 1000"),
    (0, "solve --graph GhCGKC --t 5"),
    (1, "solve --graph GhCGKC --t 4 --node-limit 2"),
    (2, "solve --graph C` --t 1"),
    # The n = 6 survey, whose output with the kernel is
    # bench/reference/survey6.csv (tests/test_survey.py).
    (0, "survey --gen-n 6 --with-doubling"),
]


class TestWithoutTheKernel:
    """Each command gives the same stdout, stderr and exit code on the
    Python path, with ``solver._native`` giving the twin, as with the kernel."""

    @pytest.mark.parametrize("expected, line", BOTH_PATHS, ids=[line for _, line in BOTH_PATHS])
    def test_same_output(self, capsys, monkeypatch, tmp_path, expected, line):
        argv = line.split()
        for flag, name, text in (
            ("--graph", "g.g6", lambda code: code + "\n"),
            ("--coloring", "alpha.json", lambda key: json.dumps(COLORINGS[key])),
        ):
            if flag in argv:
                at = argv.index(flag) + 1
                (tmp_path / name).write_text(text(argv[at]))
                argv[at] = str(tmp_path / name)
        native = run(capsys, argv)
        force_python_path(monkeypatch)
        assert run(capsys, argv) == native
        assert native[0] == expected
