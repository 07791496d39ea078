"""Parsing, serialization, segment directories, plans, and answer files."""

import json

import pytest
from hypothesis import given, strategies as st

import stargraph as sg
from stargraph.errors import (
    LiteralSubject,
    MalformedLine,
    NotADecomposition,
    NotAPartition,
    ParseError,
    VariableInData,
    VariablePredicate,
)

from conftest import BIBLIOGRAPHY, SUPERVISOR_QUERY, answers_from_tsv


class TestParseErrors:
    def test_malformed_line_reports_line_number(self):
        with pytest.raises(MalformedLine) as err:
            sg.parse_data("<a> <p> <b> .\nnot a triple\n")
        assert err.value.line == 2
        assert "line 2" in str(err.value)

    def test_literal_subject(self):
        with pytest.raises(LiteralSubject):
            sg.parse_data('"lit" <p> <b> .\n')

    def test_variable_predicate(self):
        with pytest.raises(VariablePredicate):
            sg.parse_query("?s ?p <b> .\n")

    def test_literal_predicate(self):
        with pytest.raises(MalformedLine):
            sg.parse_data('<a> "p" <b> .\n')

    @pytest.mark.parametrize(
        "parse, text, error, message",
        [
            (sg.parse_data, '"lit" <p> <b> .', LiteralSubject, "literal in subject"),
            (sg.parse_query, "?s ?p <b> .", VariablePredicate, "variable in predicate"),
            (sg.parse_data, '<a> "p" <b> .', MalformedLine, "literal in predicate"),
            (sg.parse_data, "<a> <p> ?x .", VariableInData, "variable in a data"),
        ],
    )
    def test_triple_constructor_errors_carry_the_line(self, parse, text, error, message):
        with pytest.raises(error) as err:
            parse(text + "\n")
        assert err.value.line == 1
        assert str(err.value).startswith(f"line 1: {message}")

    @pytest.mark.parametrize(
        "text, error",
        [
            ('"lit" ?p ?o .', LiteralSubject),
            ('?s ?p "p" .', VariablePredicate),
            ('?s "p" ?o .', MalformedLine),
        ],
    )
    def test_several_faults_report_the_first_in_precedence(self, text, error):
        # literal subject, then variable predicate, then literal predicate,
        # then a variable in data
        with pytest.raises(error) as err:
            sg.parse_data("<a> <p> <b> .\n" + text + "\n")
        assert type(err.value) is error
        assert err.value.line == 2

    def test_variable_in_data(self):
        with pytest.raises(VariableInData):
            sg.parse_data("<a> <p> ?x .\n")

    def test_missing_dot(self):
        with pytest.raises(MalformedLine):
            sg.parse_data("<a> <p> <b>\n")

    def test_bad_escape(self):
        with pytest.raises(MalformedLine):
            sg.parse_data('<a> <p> "bad \\n escape" .\n')

    def test_comments_and_blanks_skipped(self):
        g = sg.parse_data("# header\n\n<a> <p> <b> .\n")
        assert len(g.triples) == 1


BAD_IRI_TOKENS = ["<a b>", "<a\tb>", "<a\u3000b>", "<a\x85b>", "<a<b>", "<a>b>"]
# a literal whose body holds an unescaped quote
BAD_LITERAL_TOKEN = '"a"b"'
# tokens with a newline, which a line or a row never hands over whole
BAD_WHOLE_TOKENS = ["?s\n", '"a\nb"']

TOKEN_ENTRY_POINTS = {
    "term_from_token": sg.term_from_token,
    "parse_data": lambda tok: sg.parse_data(f"{tok} <p> <o> .\n"),
    "parse_query": lambda tok: sg.parse_query(f"?s <p> {tok} .\n"),
    "answer_tsv": lambda tok: answers_from_tsv(f"?x\n{tok}\n"),
    "plan_query": lambda tok: sg.read_plan(
        {"query": [f"{tok} <p> ?o ."], "subqueries": []}
    ),
    "plan_center": lambda tok: sg.read_plan(
        {
            "query": ["?s <p> ?o ."],
            "subqueries": [{"center": tok, "triples": ["?s <p> ?o ."]}],
        }
    ),
}

BAD_TOKEN_CASES = [
    (entry, token)
    for token in [*BAD_IRI_TOKENS, BAD_LITERAL_TOKEN]
    for entry in sorted(TOKEN_ENTRY_POINTS)
] + [
    (entry, token)
    for token in BAD_WHOLE_TOKENS
    for entry in ["plan_center", "term_from_token"]
]


@pytest.mark.parametrize("entry, token", BAD_TOKEN_CASES)
def test_bad_iri_token_is_malformed_from_every_entry_point(entry, token):
    with pytest.raises(MalformedLine) as err:
        TOKEN_ENTRY_POINTS[entry](token)
    assert "\n" not in str(err.value)


class TestRoundTrips:
    def test_fixture_graph_round_trip(self, bibliography):
        assert sg.parse_data(sg.serialize_graph(bibliography)) == bibliography

    def test_fixture_query_round_trip(self, supervisor_query):
        text = "".join(t.token() + "\n" for t in supervisor_query.canonical)
        assert sg.parse_query(text) == supervisor_query

    def test_escaped_literal_round_trip(self):
        g = sg.parse_data('<a> <p> "quote \\" and slash \\\\" .\n')
        t = next(iter(g))
        assert t.o.lexical == 'quote " and slash \\'
        assert sg.parse_data(sg.serialize_graph(g)) == g

    @given(
        st.lists(
            st.tuples(
                st.sampled_from("abc"),
                st.sampled_from("pq"),
                st.sampled_from(["<d>", '"v w"', '"x\\"y"', "<e>"]),
            ),
            min_size=1,
            max_size=10,
        )
    )
    def test_serialize_parse_identity(self, raw):
        triples = [
            sg.DataTriple(
                sg.iri(s), sg.iri(p), sg.ntio.term_from_token(o)
            )
            for s, p, o in raw
        ]
        g = sg.DataGraph(triples)
        assert sg.parse_data(sg.serialize_graph(g)) == g


class TestSegmentsOnDisk:
    def test_edge_split_round_trip(self, edge_split, tmp_path):
        sg.write_segments(edge_split, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == [
            "manifest.json",
            "segment-00.border",
            "segment-00.nt",
            "segment-01.border",
            "segment-01.nt",
            "segment-02.border",
            "segment-02.nt",
        ]
        back = sg.read_segments(tmp_path)
        assert back.graph == edge_split.graph
        assert back.segments == edge_split.segments
        assert back.borders == edge_split.borders
        assert not back.is_s_decomposition

    def test_node_split_round_trip_keeps_blocks(self, node_split, tmp_path):
        sg.write_segments(node_split, tmp_path)
        assert (tmp_path / "segment-00.repl").exists()
        back = sg.read_segments(tmp_path)
        assert back.is_s_decomposition
        assert back.node_blocks == node_split.node_blocks
        assert back.replicated == node_split.replicated

    @pytest.mark.parametrize("m", [2, 4])
    def test_write_over_a_node_partition_replaces_it(self, bibliography, tmp_path, m):
        # four node segments, then m edge segments: no segment file of the
        # first partition may outlive the second, above all no .repl file
        sg.write_segments(sg.vertex_hash_partition(bibliography, 4, seed=1), tmp_path)
        (tmp_path / "notes.txt").write_text("kept\n")
        edge = sg.edge_random_partition(bibliography, m, seed=1)
        sg.write_segments(edge, tmp_path)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["manifest.json", "notes.txt"] + [
            f"segment-{i:02d}.{kind}" for i in range(m) for kind in ("border", "nt")
        ]
        back = sg.read_segments(tmp_path)
        assert not back.is_s_decomposition
        assert back.segments == edge.segments

    def test_manifest_honors_source_date_epoch(
        self, edge_split, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("SOURCE_DATE_EPOCH", "0")
        sg.write_segments(edge_split, tmp_path)
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["created"] == "1970-01-01T00:00:00Z"
        assert manifest["segments"] == 3

    def test_tampered_border_file_is_rejected(self, edge_split, tmp_path):
        sg.write_segments(edge_split, tmp_path)
        (tmp_path / "segment-00.border").write_text("<Article2>\n")
        with pytest.raises(NotAPartition):
            sg.read_segments(tmp_path)

    def test_empty_repl_files_beside_an_edge_partition_are_rejected(
        self, edge_split, tmp_path
    ):
        sg.write_segments(edge_split, tmp_path)
        for nt in tmp_path.glob("segment-*.nt"):
            nt.with_suffix(".repl").write_text("")
        with pytest.raises(NotAPartition) as err:
            sg.read_segments(tmp_path)
        assert "\n" not in str(err.value)

    def test_node_moved_between_repl_files_is_rejected(self, node_split, tmp_path):
        sg.write_segments(node_split, tmp_path)
        # a node of block 0 that segment 1 replicates now claims block 1
        node = min(node_split.replicated[1] & node_split.node_blocks[0])
        for name, repl in [
            ("segment-00.repl", node_split.replicated[0] | {node}),
            ("segment-01.repl", node_split.replicated[1] - {node}),
        ]:
            text = "".join(n.token() + "\n" for n in sorted(repl))
            (tmp_path / name).write_text(text)
        with pytest.raises(NotAPartition, match="do not induce the segments"):
            sg.read_segments(tmp_path)

    @pytest.mark.parametrize("segment, token", [(0, "<zzz>"), (1, '"lit"')])
    def test_repl_file_naming_a_node_it_does_not_replicate_is_rejected(
        self, node_split, tmp_path, segment, token
    ):
        # a node outside the segment leaves its block as it was, so only the
        # comparison with ``replicated`` sees the edit
        sg.write_segments(node_split, tmp_path)
        repl = tmp_path / f"segment-{segment:02d}.repl"
        repl.write_text(repl.read_text() + token + "\n")
        with pytest.raises(NotAPartition, match="disagree with the replicated nodes"):
            sg.read_segments(tmp_path)

    def test_segment_file_beyond_the_manifest_is_a_parse_error(self, tmp_path):
        g = sg.parse_data("<a> <p> <b> .\n<c> <p> <d> .\n<e> <p> <f> .\n")
        sg.write_segments(
            sg.from_edge_assignment(g, {t: i for i, t in enumerate(g)}), tmp_path
        )
        manifest = tmp_path / "manifest.json"
        data = json.loads(manifest.read_text())
        manifest.write_text(json.dumps(dict(data, segments=2)))
        with pytest.raises(ParseError, match="extra segment file segment-02.nt"):
            sg.read_segments(tmp_path)

    def test_missing_manifest_is_a_parse_error(self, tmp_path):
        with pytest.raises(ParseError):
            sg.read_segments(tmp_path)

    @pytest.mark.parametrize("count", [0, -1])
    def test_segment_count_below_one_is_a_parse_error(
        self, edge_split, tmp_path, count
    ):
        sg.write_segments(edge_split, tmp_path)
        manifest = tmp_path / "manifest.json"
        data = json.loads(manifest.read_text())
        manifest.write_text(json.dumps(dict(data, segments=count)))
        with pytest.raises(ParseError, match="'segments' must be a positive integer"):
            sg.read_segments(tmp_path)


# The supervisor plan as write_plan used to write it, with six keys of
# evaluation layout that read_plan never read; such files must keep loading.
PLAN_WITH_LAYOUT_KEYS = """{
  "method": "fixture",
  "query": ["?A <hasAuthor> ?P1 .", "?A <hasAuthor> ?P2 .",
            "?A <publishedIn> <Journal1> .", "?A <title> ?T .",
            "?P1 <hasSupervisor> ?P2 ."],
  "subqueries": [
    {"center": "?A", "triples": ["?A <hasAuthor> ?P1 .", "?A <title> ?T ."]},
    {"center": "?A",
     "triples": ["?A <hasAuthor> ?P2 .", "?A <publishedIn> <Journal1> ."]},
    {"center": "?P1", "triples": ["?P1 <hasSupervisor> ?P2 ."]}
  ],
  "borderNodes": ["?A", "?P1", "?P2"],
  "nonborderNodes": ["<Journal1>", "?T"],
  "triples": ["?A <hasAuthor> ?P1 .", "?A <hasAuthor> ?P2 .",
              "?A <publishedIn> <Journal1> .", "?A <title> ?T .",
              "?P1 <hasSupervisor> ?P2 ."],
  "commonBorder": [],
  "missingBorder": [["?A", 2], ["?P1", 1], ["?P2", 0]],
  "prototypes": [
    {"border": "++-", "nonborder": "-+", "triples": "+--+-"},
    {"border": "+-+", "nonborder": "+-", "triples": "-++--"},
    {"border": "-++", "nonborder": "--", "triples": "----+"}
  ]
}
"""


class TestPlans:
    def test_plan_round_trip(self, supervisor_decomposition, tmp_path):
        path = tmp_path / "plan.json"
        doc = sg.write_plan(supervisor_decomposition, path)
        assert list(doc) == ["method", "query", "subqueries"]
        assert json.loads(path.read_text()) == doc
        back = sg.read_plan(path)
        assert back.query == supervisor_decomposition.query
        assert back.subqueries == supervisor_decomposition.subqueries
        assert back.centers == supervisor_decomposition.centers

    def test_plan_for_other_query_rejected(
        self, supervisor_decomposition, journal_article_query
    ):
        doc = sg.write_plan(supervisor_decomposition)
        with pytest.raises(NotADecomposition):
            sg.read_plan(doc, journal_article_query)

    def test_plan_with_layout_keys_still_loads(
        self, supervisor_decomposition, tmp_path
    ):
        path = tmp_path / "plan.json"
        path.write_text(PLAN_WITH_LAYOUT_KEYS)
        old = sg.read_plan(path)
        assert old == sg.read_plan(sg.write_plan(supervisor_decomposition))
        assert old.subqueries == supervisor_decomposition.subqueries
        assert old.centers == supervisor_decomposition.centers


class TestAnswerSet:
    def test_rows_are_deduped_and_sorted(self):
        a, b = sg.iri("a"), sg.iri("b")
        ans = sg.AnswerSet([sg.variable("x")], [(b,), (a,), (b,)])
        assert ans.rows == ((a,), (b,))

    def test_tsv_round_trip(self, oracle_answers_supervisor):
        text = oracle_answers_supervisor.to_tsv()
        back = answers_from_tsv(text)
        assert back == oracle_answers_supervisor
        assert back.to_tsv() == text

    def test_boolean_satisfiable(self):
        ans = sg.AnswerSet([], [()])
        assert ans.to_tsv() == "\n\n"
        back = answers_from_tsv(ans.to_tsv())
        assert len(back) == 1

    def test_boolean_unsatisfiable(self):
        ans = sg.AnswerSet([], [])
        assert ans.to_tsv() == "\n"
        assert len(answers_from_tsv(ans.to_tsv())) == 0

    def test_header_token_must_be_a_variable(self):
        with pytest.raises(MalformedLine, match=r"^line 1: header token <a> is not a variable$"):
            answers_from_tsv("<a>\n<b>\n")
        with pytest.raises(MalformedLine, match=r"^line 1: "):
            answers_from_tsv('?x\t"a"\n<b>\t"c"\n')

    def test_row_of_the_wrong_width_is_a_malformed_line(self):
        with pytest.raises(MalformedLine, match=r"^line 3: row has 2 values for 1 variables$"):
            answers_from_tsv("?x\n<a>\n<b>\t<c>\n")
        with pytest.raises(MalformedLine, match=r"^line 2: "):
            answers_from_tsv("?x\t?y\n<a>\n")
        with pytest.raises(MalformedLine, match=r"^line 2: "):
            answers_from_tsv("\n<a>\n")

    def test_width_mismatch_rejected(self):
        with pytest.raises(ValueError):
            sg.AnswerSet([sg.variable("x")], [(sg.iri("a"), sg.iri("b"))])

    def test_equality_is_binding_based(self):
        x, y = sg.variable("x"), sg.variable("y")
        a, b = sg.iri("a"), sg.iri("b")
        left = sg.AnswerSet([x, y], [(a, b)])
        right = sg.AnswerSet([y, x], [(b, a)])
        assert left == right

    def test_fixture_graph_parses_to_fifteen_triples(self):
        assert len(sg.parse_data(BIBLIOGRAPHY).triples) == 15
        assert len(sg.parse_query(SUPERVISOR_QUERY).triples) == 5
