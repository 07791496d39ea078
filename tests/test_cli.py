"""Command line interface, driven through main() in-process."""

import json

import pytest

import stargraph as sg
from stargraph.cli import main

from conftest import BIBLIOGRAPHY, COAUTHOR_QUERY, SUPERVISOR_QUERY


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "graph.nt").write_text(BIBLIOGRAPHY, encoding="utf-8")
    (tmp_path / "supervisor.q").write_text(SUPERVISOR_QUERY, encoding="utf-8")
    (tmp_path / "coauthor.q").write_text(COAUTHOR_QUERY, encoding="utf-8")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


class TestPartitionCommand:
    def test_edge_random(self, workdir, capsys):
        code = run(
            "partition", workdir / "graph.nt", "-m", 3, "--seed", 7,
            "--out", workdir / "segs",
        )
        assert code == 0
        assert "edge-random: 3 segments" in capsys.readouterr().err
        dec = sg.read_segments(workdir / "segs")
        assert len(dec) == 3
        assert sum(len(s) for s in dec.segments) == 15

    def test_vertex_hash(self, workdir, capsys):
        code = run(
            "partition", workdir / "graph.nt", "--method", "vertex-hash",
            "-m", 3, "--out", workdir / "segs",
        )
        assert code == 0
        dec = sg.read_segments(workdir / "segs")
        assert dec.is_s_decomposition

    def test_import_nodes(self, workdir):
        lines = []
        for block, names in enumerate(
            (
                ("<Article1>", "<Article3>", "<Journal2>", "<Person4>"),
                ("<Person1>", "<Person2>", "<Person3>"),
                ("<Article2>", "<Journal1>"),
            )
        ):
            lines += [f"{n}\t{block}" for n in names]
        (workdir / "nodes.tsv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        code = run(
            "partition", workdir / "graph.nt", "--method", "import",
            "--assign", workdir / "nodes.tsv", "--out", workdir / "segs",
        )
        assert code == 0
        dec = sg.read_segments(workdir / "segs")
        assert dec.method == "node-import"
        assert [len(s) for s in dec.segments] == [9, 6, 6]

    def test_import_without_assign_is_a_usage_error(self, workdir):
        assert (
            run(
                "partition", workdir / "graph.nt", "--method", "import",
                "--out", workdir / "segs",
            )
            == 2
        )

    def test_missing_assign_file_is_a_parse_error(self, workdir, capsys):
        code = run(
            "partition", workdir / "graph.nt", "--method", "import",
            "--assign", workdir / "no-such.tsv", "--out", workdir / "segs",
        )
        assert code == 2
        assert "no-such.tsv" in capsys.readouterr().err

    def test_too_many_segments_is_semantic(self, workdir):
        assert (
            run(
                "partition", workdir / "graph.nt", "--method", "vertex-hash",
                "-m", 99, "--out", workdir / "segs",
            )
            == 3
        )

    def test_malformed_graph_is_a_parse_error(self, workdir):
        (workdir / "bad.nt").write_text('"lit" <p> <x> .\n', encoding="utf-8")
        assert run("partition", workdir / "bad.nt", "--out", workdir / "segs") == 2


class TestDecomposeCommand:
    def test_plan_to_stdout(self, workdir, capsys):
        code = run("decompose", workdir / "supervisor.q", "--method", "min-subquery")
        assert code == 0
        captured = capsys.readouterr()
        plan = json.loads(captured.out)
        assert plan["method"] == "min-subquery"
        assert len(plan["subqueries"]) == 2
        assert "min-subquery: 2 subqueries" in captured.err

    def test_plan_file_round_trips_through_eval(self, workdir, capsys):
        assert run("partition", workdir / "graph.nt", "-m", 3,
                   "--out", workdir / "segs") == 0
        assert run("decompose", workdir / "coauthor.q", "--method", "max-degree",
                   "--out", workdir / "plan.json") == 0
        code = run(
            "eval", "--data", workdir / "segs", "--query", workdir / "coauthor.q",
            "--plan", workdir / "plan.json", "--algorithm", "stars",
            "--out", workdir / "answers.tsv",
        )
        assert code == 0
        got = sg.AnswerSet.from_tsv(
            (workdir / "answers.tsv").read_text(encoding="utf-8")
        )
        want = sg.oracle_answers(
            sg.parse_query(COAUTHOR_QUERY), sg.parse_data(BIBLIOGRAPHY)
        )
        assert got == want

    def test_unknown_method_is_usage_error(self, workdir):
        with pytest.raises(SystemExit) as exc:
            run("decompose", workdir / "supervisor.q", "--method", "nope")
        assert exc.value.code == 2


class TestEvalCommand:
    def setup_segments(self, workdir, method="edge-random"):
        run(
            "partition", workdir / "graph.nt", "--method", method, "-m", 3,
            "--seed", 7, "--out", workdir / "segs",
        )

    def test_answers_match_oracle_across_engines(self, workdir, capsys):
        want = sg.oracle_answers(
            sg.parse_query(SUPERVISOR_QUERY), sg.parse_data(BIBLIOGRAPHY)
        )
        self.setup_segments(workdir)
        run(
            "oracle", "--graph", workdir / "graph.nt",
            "--query", workdir / "supervisor.q", "--out", workdir / "oracle.tsv",
        )
        assert sg.AnswerSet.from_tsv(
            (workdir / "oracle.tsv").read_text(encoding="utf-8")
        ) == want
        for algo in ("qejpe", "stars"):
            code = run(
                "eval", "--data", workdir / "segs",
                "--query", workdir / "supervisor.q", "--algorithm", algo,
                "--method", "min-res", "--out", workdir / f"{algo}.tsv",
            )
            assert code == 0
            got = sg.AnswerSet.from_tsv(
                (workdir / f"{algo}.tsv").read_text(encoding="utf-8")
            )
            assert got == want, algo

    def test_redundancy_needs_node_partition(self, workdir):
        self.setup_segments(workdir)
        code = run(
            "eval", "--data", workdir / "segs", "--query", workdir / "supervisor.q",
            "--algorithm", "redundancy",
        )
        assert code == 3
        self.setup_segments(workdir, method="vertex-hash")
        code = run(
            "eval", "--data", workdir / "segs", "--query", workdir / "supervisor.q",
            "--algorithm", "redundancy", "--out", workdir / "red.tsv",
        )
        assert code == 0

    def test_stats_shape(self, workdir):
        self.setup_segments(workdir)
        code = run(
            "eval", "--data", workdir / "segs", "--query", workdir / "supervisor.q",
            "--workers", 4, "--out", workdir / "a.tsv",
            "--stats", workdir / "stats.json",
        )
        assert code == 0
        stats = json.loads((workdir / "stats.json").read_text(encoding="utf-8"))
        assert stats["algorithm"] == "qejpe"
        assert stats["workers"] == 4
        assert stats["answers"] == 2
        assert [s["stage"] for s in stats["stages"]] == [
            "useful-partials", "complete-borders", "join-answers"
        ]
        for s in stats["stages"]:
            assert set(s) == {
                "stage", "recordsIn", "recordsOut", "distinctKeys", "wallMillis"
            }
        assert set(stats["subqueryEmbeddings"]) == {"Q1", "Q2"}
        assert all(n > 0 for n in stats["subqueryEmbeddings"].values())

    def test_worker_outputs_identical(self, workdir):
        self.setup_segments(workdir)
        outs = []
        for w in (1, 4, 8):
            run(
                "eval", "--data", workdir / "segs",
                "--query", workdir / "coauthor.q", "--method", "max-degree",
                "--workers", w, "--out", workdir / f"w{w}.tsv",
            )
            outs.append((workdir / f"w{w}.tsv").read_bytes())
        assert outs[0] == outs[1] == outs[2]

    def test_cap_exit_code(self, workdir):
        self.setup_segments(workdir)
        code = run(
            "eval", "--data", workdir / "segs", "--query", workdir / "supervisor.q",
            "--cartesian-cap", 1,
        )
        assert code == 4

    def test_method_and_plan_conflict(self, workdir):
        self.setup_segments(workdir)
        with pytest.raises(SystemExit) as exc:
            run(
                "eval", "--data", workdir / "segs",
                "--query", workdir / "supervisor.q",
                "--method", "naive", "--plan", workdir / "plan.json",
            )
        assert exc.value.code == 2

    def test_plan_for_another_query_rejected(self, workdir):
        self.setup_segments(workdir)
        run("decompose", workdir / "coauthor.q", "--out", workdir / "plan.json")
        code = run(
            "eval", "--data", workdir / "segs", "--query", workdir / "supervisor.q",
            "--plan", workdir / "plan.json",
        )
        assert code == 3


def _drop_border_file(workdir):
    (workdir / "segs" / "segment-01.border").unlink()
    return ()


def _corrupt_manifest(workdir):
    (workdir / "segs" / "manifest.json").write_text("{not json", encoding="utf-8")
    return ()


def _latin1_query(workdir):
    (workdir / "supervisor.q").write_bytes("?a <caf\xe9> ?b .\n".encode("latin-1"))
    return ()


def _missing_plan(workdir):
    return ("--plan", workdir / "no-such-plan.json")


def _misshapen_plan(workdir):
    (workdir / "plan.json").write_text(json.dumps({"query": 3}), encoding="utf-8")
    return ("--plan", workdir / "plan.json")


class TestEvalInputErrors:
    """Unreadable or malformed eval inputs exit 2 with one line, no traceback."""

    @pytest.mark.parametrize(
        "breaker",
        [
            _drop_border_file,
            _corrupt_manifest,
            _latin1_query,
            _missing_plan,
            _misshapen_plan,
        ],
    )
    def test_parse_error_exit_code(self, workdir, capsys, breaker):
        run(
            "partition", workdir / "graph.nt", "-m", 3, "--seed", 7,
            "--out", workdir / "segs",
        )
        extra = breaker(workdir)
        capsys.readouterr()
        code = run(
            "eval", "--data", workdir / "segs", "--query", workdir / "supervisor.q",
            *extra,
        )
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ")
        assert err.count("\n") == 1
        assert "Traceback" not in err


class TestGenCommand:
    def test_deterministic_output(self, workdir, capsys):
        assert run("gen", "--triples", 40, "--seed", 9,
                   "--out", workdir / "g1.nt") == 0
        assert run("gen", "--triples", 40, "--seed", 9,
                   "--out", workdir / "g2.nt") == 0
        assert (workdir / "g1.nt").read_bytes() == (workdir / "g2.nt").read_bytes()
        g = sg.load_data(workdir / "g1.nt")
        assert len(g) == 40

    def test_gen_feeds_the_pipeline(self, workdir):
        run("gen", "--triples", 60, "--seed", 3, "--out", workdir / "g.nt")
        code = run(
            "partition", workdir / "g.nt", "--method", "vertex-hash", "-m", 4,
            "--out", workdir / "segs",
        )
        assert code == 0

    def test_bad_ratio_is_semantic(self, workdir):
        assert run("gen", "--triples", 10, "--literal-ratio", "2.0") in (2, 3)
