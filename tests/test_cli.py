"""Command line interface, driven through main() in-process."""

import json

import pytest

import stargraph as sg
from stargraph.cli import main

from conftest import (
    BIBLIOGRAPHY,
    COAUTHOR_QUERY,
    EDGE_BLOCKS,
    JOURNAL_ARTICLE_QUERY,
    NODE_BLOCKS,
    SUPERVISOR_QUERY,
    answers_from_tsv,
)


@pytest.fixture()
def workdir(tmp_path):
    (tmp_path / "graph.nt").write_text(BIBLIOGRAPHY, encoding="utf-8")
    (tmp_path / "supervisor.q").write_text(SUPERVISOR_QUERY, encoding="utf-8")
    (tmp_path / "coauthor.q").write_text(COAUTHOR_QUERY, encoding="utf-8")
    (tmp_path / "journal.q").write_text(JOURNAL_ARTICLE_QUERY, encoding="utf-8")
    return tmp_path


def run(*argv):
    return main([str(a) for a in argv])


def _node_lines(blocks=NODE_BLOCKS):
    return [f"{n}\t{i}" for i, names in enumerate(blocks) for n in names]


_EDGE_LINES = [f"{line}\t{blk}" for line, blk in EDGE_BLOCKS.items()]

# assignment file lines, and the one error line its import must end in
BAD_ASSIGNMENTS = {
    "unknown-node": (
        _node_lines() + ["<Nowhere>\t0"],
        "block node <Nowhere> is not in the graph",
    ),
    "literal": (
        _node_lines() + ['"2008"\t1'],
        'literal "2008" cannot be in a node block',
    ),
    "uncovered-node": (
        [line for line in _node_lines() if not line.startswith("<Person3>")],
        "node <Person3> is not covered by any block",
    ),
    "skipped-block-id": (
        _node_lines(NODE_BLOCKS[:2] + ((), NODE_BLOCKS[2])),
        "node block ids must be exactly 0..3, but 2 is skipped",
    ),
    "negative-block-id": (
        [line.replace("\t2", "\t-1") for line in _node_lines()],
        "node block id -1 on line 8 is negative",
    ),
    # the skipped id is found without counting up to the huge one
    "huge-node-block-id": (
        [
            line.replace("<Journal1>\t2", f"<Journal1>\t{10**12}")
            for line in _node_lines()
        ],
        f"node block ids must be exactly 0..{10**12}, but 3 is skipped",
    ),
    "huge-edge-block-id": (
        _EDGE_LINES[:-1] + [_EDGE_LINES[-1].rpartition("\t")[0] + f"\t{10**12}"],
        f"edge block ids must be exactly 0..{10**12}, but 3 is skipped",
    ),
    "negative-edge-block-id": (
        [_EDGE_LINES[0].rpartition("\t")[0] + "\t-1"] + _EDGE_LINES[1:],
        "edge block id -1 of triple <Article1> <hasAuthor> <Person4> . is negative",
    ),
    "unknown-triple": (
        _EDGE_LINES + ["<Nowhere> <hasAuthor> <Person1> .\t0"],
        "assigned triple <Nowhere> <hasAuthor> <Person1> . is not in the graph",
    ),
    "missing-triple": (
        _EDGE_LINES[1:],
        "triple <Article1> <hasAuthor> <Person4> . has no block assignment",
    ),
    "empty-file": ([], "no assignment lines in {path}"),
    "duplicate-node": (
        _node_lines() + ["<Person3>\t0"],
        "node <Person3> is assigned on lines 7 and 10",
    ),
    "duplicate-triple": (
        _EDGE_LINES + [_EDGE_LINES[0]],
        "triple <Article1> <hasAuthor> <Person4> . is assigned on lines 1 and 16",
    ),
}


class TestPartitionCommand:
    @pytest.mark.parametrize("case", list(BAD_ASSIGNMENTS))
    def test_bad_assignment_file_is_semantic(self, workdir, capsys, case):
        lines, message = BAD_ASSIGNMENTS[case]
        path = workdir / "assign.tsv"
        path.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
        code = run(
            "partition", workdir / "graph.nt", "--method", "import",
            "--assign", path, "--out", workdir / "segs",
        )
        assert code == 3
        assert capsys.readouterr().err == f"error: {message.format(path=path)}\n"
        assert not (workdir / "segs").exists()

    def test_assignment_line_without_a_tab_is_a_parse_error(self, workdir, capsys):
        path = workdir / "assign.tsv"
        path.write_text("\n".join(_node_lines() + ["<Person3> 1"]) + "\n", encoding="utf-8")
        code = run(
            "partition", workdir / "graph.nt", "--method", "import",
            "--assign", path, "--out", workdir / "segs",
        )
        assert code == 2
        assert capsys.readouterr().err == (
            f"error: line {len(_node_lines()) + 1}: expected <entry><TAB><block id>\n"
        )

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

    @pytest.mark.parametrize("m", [2, 4])
    def test_partition_over_a_node_partition_replaces_it(self, workdir, capsys, m):
        segs = workdir / "segs"
        run(
            "partition", workdir / "graph.nt", "--method", "vertex-hash", "-m", 4,
            "--out", segs,
        )
        run(
            "partition", workdir / "graph.nt", "--method", "edge-random", "-m", m,
            "--out", segs,
        )
        capsys.readouterr()
        code = run("eval", "--data", segs, "--query", workdir / "supervisor.q")
        assert code == 0
        assert answers_from_tsv(capsys.readouterr().out) == sg.oracle_answers(
            sg.parse_query(SUPERVISOR_QUERY), sg.parse_data(BIBLIOGRAPHY)
        )
        assert not sg.read_segments(segs).is_s_decomposition

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
        got = answers_from_tsv(
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
        assert answers_from_tsv(
            (workdir / "oracle.tsv").read_text(encoding="utf-8")
        ) == want
        for algo in ("qejpe", "stars"):
            code = run(
                "eval", "--data", workdir / "segs",
                "--query", workdir / "supervisor.q", "--algorithm", algo,
                "--method", "min-res", "--out", workdir / f"{algo}.tsv",
            )
            assert code == 0
            got = answers_from_tsv(
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

    @pytest.mark.parametrize(
        "center", ["?A", '"lit"', '"a"b"'],
        ids=["valid", "not-a-star-centre", "malformed"],
    )
    def test_centres_of_older_plans_are_ignored(self, workdir, center):
        # plans once recorded a centre per subquery; eval derives each
        # centre from the triples, so whatever an old plan recorded loads
        q = sg.parse_query(SUPERVISOR_QUERY)
        want = sg.oracle_answers(q, sg.parse_data(BIBLIOGRAPHY))
        plan = sg.write_plan(sg.naive_decomposition(q))
        for entry in plan["subqueries"]:
            entry["center"] = center
        (workdir / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
        self.setup_segments(workdir, method="vertex-hash")
        for algo in ("qejpe", "stars", "redundancy"):
            code = run(
                "eval", "--data", workdir / "segs",
                "--query", workdir / "supervisor.q", "--algorithm", algo,
                "--plan", workdir / "plan.json", "--out", workdir / "a.tsv",
            )
            assert code == 0, algo
            got = answers_from_tsv((workdir / "a.tsv").read_text(encoding="utf-8"))
            assert got == want, algo

    def test_stats_shape(self, workdir):
        self.setup_segments(workdir)
        shapes = {
            # the same two stages whether or not a subquery lacks a border
            # node, as each of min-res's four does
            "naive": (["useful-partials", "join-answers"], 2),
            "min-res": (["useful-partials", "join-answers"], 4),
        }
        for method, (stages, subqueries) in shapes.items():
            code = run(
                "eval", "--data", workdir / "segs",
                "--query", workdir / "supervisor.q", "--method", method,
                "--workers", 4, "--out", workdir / "a.tsv",
                "--stats", workdir / "stats.json",
            )
            assert code == 0
            stats = json.loads((workdir / "stats.json").read_text(encoding="utf-8"))
            assert stats["algorithm"] == "qejpe"
            assert stats["workers"] == 4
            assert stats["answers"] == 2
            assert [s["stage"] for s in stats["stages"]] == stages
            for s in stats["stages"]:
                assert set(s) == {
                    "stage", "recordsIn", "recordsOut", "distinctKeys",
                    "maxGroupSize", "wallMillis",
                }
            assert set(stats["subqueryEmbeddings"]) == {
                f"Q{i + 1}" for i in range(subqueries)
            }
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


def _zero_segment_manifest(workdir):
    manifest = workdir / "segs" / "manifest.json"
    data = json.loads(manifest.read_text(encoding="utf-8"))
    manifest.write_text(json.dumps(dict(data, segments=0)), encoding="utf-8")
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
            _zero_segment_manifest,
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

    # JSON that parses by the grammar but that the parser gives up on, and
    # the reason the error line gives for it
    UNREADABLE_JSON = {
        "huge-integer": (
            '{"segments": 1' + "0" * 5000 + ', "method": 1' + "0" * 5000 + "}",
            "an integer has too many digits",
        ),
        "deep-nesting": ("[" * 200_000, "nested too deeply"),
    }

    @pytest.mark.parametrize("shape", sorted(UNREADABLE_JSON))
    @pytest.mark.parametrize("target", ["manifest", "plan"])
    def test_json_the_parser_gives_up_on_is_a_parse_error(
        self, workdir, capsys, target, shape
    ):
        run(
            "partition", workdir / "graph.nt", "-m", 3, "--seed", 7,
            "--out", workdir / "segs",
        )
        text, reason = self.UNREADABLE_JSON[shape]
        if target == "manifest":
            path, extra = workdir / "segs" / "manifest.json", ()
        else:
            path = workdir / "plan.json"
            extra = ("--plan", path)
        path.write_text(text, encoding="utf-8")
        capsys.readouterr()
        code = run(
            "eval", "--data", workdir / "segs", "--query", workdir / "supervisor.q",
            *extra,
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == f"error: {path}: not valid JSON ({reason})\n"

    def test_huge_manifest_count_is_a_parse_error(self, workdir, capsys):
        # the check costs one step per segment file present, so a count no
        # directory could hold fails at once
        run(
            "partition", workdir / "graph.nt", "-m", 3, "--seed", 7,
            "--out", workdir / "segs",
        )
        manifest = workdir / "segs" / "manifest.json"
        data = json.loads(manifest.read_text(encoding="utf-8"))
        manifest.write_text(json.dumps(dict(data, segments=10**12)), encoding="utf-8")
        capsys.readouterr()
        code = run(
            "eval", "--data", workdir / "segs", "--query", workdir / "supervisor.q"
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            f"error: extra segment file segment-00.nt (manifest: {10**12} segments)\n"
        )

    def test_segment_file_beyond_the_manifest_is_a_parse_error(self, workdir, capsys):
        (workdir / "three.nt").write_text(
            "<a> <p> <b> .\n<c> <p> <d> .\n<e> <p> <f> .\n", encoding="utf-8"
        )
        (workdir / "edges.tsv").write_text(
            "<a> <p> <b> .\t0\n<c> <p> <d> .\t1\n<e> <p> <f> .\t2\n",
            encoding="utf-8",
        )
        (workdir / "edge.q").write_text("?x <p> ?y .\n", encoding="utf-8")
        run(
            "partition", workdir / "three.nt", "--method", "import",
            "--assign", workdir / "edges.tsv", "--out", workdir / "segs",
        )
        manifest = workdir / "segs" / "manifest.json"
        data = json.loads(manifest.read_text(encoding="utf-8"))
        manifest.write_text(json.dumps(dict(data, segments=2)), encoding="utf-8")
        capsys.readouterr()
        code = run("eval", "--data", workdir / "segs", "--query", workdir / "edge.q")
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == (
            "error: extra segment file segment-02.nt (manifest: 2 segments)\n"
        )

    def test_repl_files_beside_an_edge_partition_are_semantic(self, workdir, capsys):
        run(
            "partition", workdir / "graph.nt", "-m", 3, "--seed", 7,
            "--out", workdir / "segs",
        )
        for nt in (workdir / "segs").glob("segment-*.nt"):
            nt.with_suffix(".repl").write_text("", encoding="utf-8")
        capsys.readouterr()
        code = run(
            "eval", "--data", workdir / "segs", "--query", workdir / "supervisor.q"
        )
        err = capsys.readouterr().err
        assert code == 3
        assert err.startswith("error: stored .repl files: node ")
        assert err.endswith(" appears in two blocks\n")
        assert err.count("\n") == 1

    def test_node_segment_edited_by_hand_is_semantic(self, workdir, capsys):
        # segment 0 drops a triple that segment 1 still holds, so the blocks
        # the .repl files imply route a segment the directory lacks
        segs = workdir / "segs"
        nodes = workdir / "nodes.tsv"
        nodes.write_text("\n".join(_node_lines()) + "\n", encoding="utf-8")
        run(
            "partition", workdir / "graph.nt", "--method", "import",
            "--assign", nodes, "--out", segs,
        )
        seg0 = segs / "segment-00.nt"
        lines = seg0.read_text(encoding="utf-8").splitlines(keepends=True)
        seg0.write_text("".join(lines[1:]), encoding="utf-8")
        capsys.readouterr()
        code = run("eval", "--data", segs, "--query", workdir / "supervisor.q")
        captured = capsys.readouterr()
        assert code == 3
        assert captured.out == ""
        assert captured.err == (
            "error: stored .repl files: node blocks do not induce the segments\n"
        )


# (partition method or None, command arguments after the partition, message)
LIMIT_SITES = {
    "fragment-join": (
        "edge-random",
        ("--query", "supervisor.q", "--algorithm", "qejpe", "--cartesian-cap", 1),
        "star join exceeded 1 embeddings for one centre image",
    ),
    "star-assembly": (
        "edge-random",
        ("--query", "supervisor.q", "--algorithm", "stars", "--method", "naive",
         "--cartesian-cap", 1),
        "star join exceeded 1 embeddings for one centre image",
    ),
    "border-completion": (
        "vertex-hash",
        ("--query", "supervisor.q", "--algorithm", "redundancy",
         "--method", "min-res", "--cartesian-cap", 1),
        "join exceeded 1 live rows",
    ),
    # at cap 2 qejpe's star joins pass and the final join of its one group,
    # keyed by an empty common border, trips
    "qejpe-border-completion": (
        "edge-random",
        ("--query", "coauthor.q", "--algorithm", "qejpe", "--method", "min-res",
         "--cartesian-cap", 2),
        "join exceeded 2 live rows",
    ),
    "final-join": (
        "vertex-hash",
        ("--query", "journal.q", "--algorithm", "redundancy", "--method", "naive",
         "--cartesian-cap", 1),
        "join exceeded 1 live rows",
    ),
    "search-space": (
        None,
        ("chain17.q", "--method", "min-subquery"),
        "17 candidate stars exceed the subset-search guard (16)",
    ),
}


class TestLimitErrors:
    """Every resource guard reached from the CLI exits 4 with one line."""

    @pytest.mark.parametrize("site", list(LIMIT_SITES))
    def test_limit_exit_code_and_message(self, workdir, capsys, site):
        method, args, message = LIMIT_SITES[site]
        chain = "".join(f"?v{i} <p> ?v{i + 1} .\n" for i in range(17))
        (workdir / "chain17.q").write_text(chain, encoding="utf-8")
        if method is None:
            argv = ("decompose", workdir / args[0], *args[1:])
        else:
            run(
                "partition", workdir / "graph.nt", "--method", method, "-m", 3,
                "--seed", 7, "--out", workdir / "segs",
            )
            argv = (
                "eval", "--data", workdir / "segs", args[0], workdir / args[1],
                *args[2:],
            )
        capsys.readouterr()
        code = run(*argv)
        err = capsys.readouterr().err
        assert code == 4
        assert err == f"error: {message}\n"


def _write_into_missing_dir(workdir, command):
    missing = workdir / "no-such-dir"
    segs = ("--data", workdir / "segs", "--query", workdir / "supervisor.q")
    return {
        "gen": ("gen", "--triples", 5, "--out", missing / "g.nt"),
        "oracle": (
            "oracle", "--graph", workdir / "graph.nt",
            "--query", workdir / "supervisor.q", "--out", missing / "a.tsv",
        ),
        "eval-out": ("eval", *segs, "--out", missing / "a.tsv"),
        "eval-stats": ("eval", *segs, "--stats", missing / "s.json"),
        "partition": (
            "partition", workdir / "graph.nt", "--out", workdir / "graph.nt",
        ),
        "decompose": (
            "decompose", workdir / "supervisor.q", "--out", missing / "p.json",
        ),
    }[command]


class TestWriteErrors:
    """An output path that cannot be written exits 2 with one line."""

    @pytest.mark.parametrize(
        "command",
        ["gen", "oracle", "eval-out", "eval-stats", "partition", "decompose"],
    )
    def test_unwritable_output_exit_code(self, workdir, capsys, command):
        run("partition", workdir / "graph.nt", "-m", 3, "--out", workdir / "segs")
        capsys.readouterr()
        code = run(*_write_into_missing_dir(workdir, command))
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: cannot write ")
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
