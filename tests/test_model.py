"""Core data model: terms, triples, graphs, queries, decompositions."""

import copy
import dataclasses
import pickle

import pytest
from hypothesis import given, strategies as st

import stargraph as sg
from stargraph.errors import (
    EmptyGraph,
    EmptyQuery,
    LiteralSubject,
    NotADecomposition,
    NotAPartition,
    ParseError,
    VariableInData,
    VariablePredicate,
)
from stargraph.model import Term, TermKind

from conftest import NODE_BLOCKS, QueryShape, classify_query, q3


def triples(line):
    return list(sg.parse_data(line + "\n"))


def terms():
    text = st.text(
        alphabet=st.characters(whitelist_categories=("Ll", "Lu", "Nd")),
        min_size=1,
        max_size=6,
    )
    return st.one_of(
        text.map(sg.iri),
        text.map(sg.literal),
        text.map(sg.variable),
    )


class TestTerm:
    def test_interning_returns_identical_objects(self):
        assert sg.iri("a") is sg.iri("a")
        assert sg.literal("a") is sg.literal("a")
        assert sg.iri("a") is not sg.literal("a")

    @given(terms())
    def test_identity_survives_pickle_and_copy(self, t):
        assert pickle.loads(pickle.dumps(t)) is t
        assert pickle.loads(pickle.dumps((t, [t]), protocol=0))[1][0] is t
        assert copy.copy(t) is t
        assert copy.deepcopy({"k": (t,)})["k"][0] is t

    def test_direct_construction_returns_the_interned_term(self):
        t = sg.iri("direct")
        assert Term(TermKind.IRI, "direct") is t
        assert Term(0, "direct") is t
        assert Term(0, "direct").kind is TermKind.IRI
        assert Term(TermKind.VARIABLE, "direct") is sg.variable("direct")

    def test_direct_construction_rejects_bad_parts(self):
        with pytest.raises(ValueError):
            Term(7, "x")
        with pytest.raises(TypeError):
            Term(TermKind.IRI, 3)

    def test_terms_are_immutable(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            sg.iri("a").lexical = "b"

    def test_equality_and_hash_are_identity(self):
        a = sg.literal("h")
        assert a == sg.literal("h") and hash(a) == hash(sg.literal("h"))
        assert a != sg.iri("h")
        assert {a: 1}[Term(TermKind.LITERAL, "h")] == 1

    def test_kinds_are_disjoint(self):
        assert sg.iri("x") != sg.literal("x") != sg.variable("x")

    def test_token_rendering(self):
        assert sg.iri("a").token() == "<a>"
        assert sg.literal('say "hi"').token() == '"say \\"hi\\""'
        assert sg.variable("x").token() == "?x"

    @given(terms(), terms())
    def test_order_is_lexical_then_kind(self, a, b):
        if a.lexical != b.lexical:
            assert (a < b) == (a.lexical < b.lexical)
        elif a.kind != b.kind:
            assert (a < b) == (int(a.kind) < int(b.kind))
        else:
            assert a == b

    @given(st.lists(terms(), min_size=1, max_size=8))
    def test_sorting_is_deterministic(self, ts):
        assert sorted(ts) == sorted(reversed(ts))


class TestTriples:
    def test_literal_subject_rejected(self):
        with pytest.raises(LiteralSubject):
            sg.DataTriple(sg.literal("x"), sg.iri("p"), sg.iri("y"))

    def test_variable_predicate_rejected(self):
        with pytest.raises(VariablePredicate):
            sg.TriplePattern(sg.variable("s"), sg.variable("p"), sg.variable("o"))

    def test_variable_in_data_rejected(self):
        with pytest.raises(VariableInData):
            sg.DataTriple(sg.variable("s"), sg.iri("p"), sg.iri("o"))

    def test_data_triple_never_equals_the_pattern_of_its_terms(self):
        terms = (sg.iri("a"), sg.iri("p"), sg.literal("v"))
        data, pattern = sg.DataTriple(*terms), sg.TriplePattern(*terms)
        assert data != pattern and pattern != data
        assert data == sg.DataTriple(*terms)
        assert len({data, pattern}) == 2

    def test_data_triple_survives_pickle(self):
        t = sg.DataTriple(sg.iri("a"), sg.iri("p"), sg.literal("v"))
        back = pickle.loads(pickle.dumps(t))
        assert back == t and type(back) is sg.DataTriple
        assert back.s is t.s and back.o is t.o
        assert repr(back) == 'DataTriple(<a> <p> "v" .)'

    def test_self_loop_pattern_has_one_node(self):
        pat = q3("?x", "<p>", "?x")
        assert pat.nodes == (sg.variable("x"),)


class TestDataGraph:
    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            sg.DataGraph([])

    def test_empty_graph_message(self):
        with pytest.raises(EmptyGraph, match="^a data graph needs at least one triple$"):
            sg.DataGraph(iter(()))

    def test_repr_counts_triples(self, bibliography):
        assert repr(bibliography) == "DataGraph(15 triples)"

    def test_never_equals_a_query(self):
        g = sg.DataGraph([sg.DataTriple(sg.iri("a"), sg.iri("p"), sg.iri("b"))])
        q = sg.Query([q3("<a>", "<p>", "<b>")])
        assert g != q and q != g
        assert sg.DataGraph(g.triples) == g and sg.Query(q.triples) == q

    def test_canonical_order_is_subject_predicate_object(self, bibliography):
        keys = [(t.s.key, t.p.key, t.o.key) for t in bibliography.canonical]
        assert keys == sorted(keys)

    @given(st.data())
    def test_canonical_order_equals_nested_key_order(self, data):
        def nested_key(t):
            return (t.s.key, t.p.key, t.o.key)

        # lexical forms that are prefixes of each other and shared by all
        # three kinds, so the kind field and tuple length both get tested
        lexicals = st.sampled_from(["", "a", "ab", "b"])
        iris = lexicals.map(sg.iri)
        objects = st.one_of(iris, lexicals.map(sg.literal))
        nodes = st.one_of(iris, lexicals.map(sg.variable))
        triples = data.draw(
            st.lists(st.builds(sg.DataTriple, iris, iris, objects), min_size=1)
        )
        g = sg.DataGraph(triples)
        assert list(g.canonical) == sorted(g.triples, key=nested_key)
        patterns = data.draw(
            st.lists(
                st.builds(sg.TriplePattern, nodes, iris, st.one_of(objects, nodes)),
                min_size=1,
            )
        )
        q = sg.Query(patterns)
        assert list(q.canonical) == sorted(q.triples, key=nested_key)

    def test_nodes_exclude_nothing_and_literals_are_flagged(self, bibliography):
        assert sg.literal("2008") in bibliography.nodes
        assert sg.literal("2008").is_literal
        assert sg.iri("Article1") in bibliography.nodes
        assert not sg.iri("Article1").is_literal

    def test_equality_ignores_construction_order(self, bibliography):
        again = sg.DataGraph(list(reversed(list(bibliography))))
        assert again == bibliography
        assert hash(again) == hash(bibliography)


class TestQuery:
    def test_empty_query_rejected(self):
        with pytest.raises(EmptyQuery):
            sg.Query([])

    def test_empty_query_message(self):
        with pytest.raises(
            EmptyQuery, match="^a query needs at least one triple pattern$"
        ):
            sg.Query(iter(()))

    def test_repr_counts_patterns(self, supervisor_query):
        assert repr(supervisor_query) == "Query(5 patterns)"

    def test_equal_sets_are_equal_and_hash_alike(self, supervisor_query):
        again = sg.Query(reversed(list(supervisor_query)))
        assert again == supervisor_query
        assert hash(again) == hash(supervisor_query)
        assert list(again) == list(supervisor_query.canonical)
        assert len(again) == 5 and supervisor_query.canonical[0] in again

    def test_output_pattern_orders_variables_by_first_appearance(
        self, supervisor_query
    ):
        assert supervisor_query.output_pattern == (
            sg.variable("A"),
            sg.variable("P1"),
            sg.variable("P2"),
            sg.variable("T"),
        )

    def test_constants_include_literals_and_iris(self, journal_article_query):
        assert sg.literal("2008") in journal_article_query.constants
        assert sg.iri("Journal1") in journal_article_query.constants

    def test_incident_returns_all_triples_touching_a_node(self, supervisor_query):
        touching = supervisor_query.incident(sg.variable("P2"))
        assert len(touching) == 2


class TestShapes:
    def test_single_star_query(self, journal_article_query):
        shapes = classify_query(journal_article_query)
        assert QueryShape.STAR in shapes
        assert QueryShape.S_QUERY in shapes
        assert QueryShape.SO_QUERY in shapes
        assert sg.star_centers(journal_article_query) == (sg.variable("A"),)
        assert sg.so_centers(journal_article_query) == (sg.variable("A"),)

    def test_o_query_is_not_so(self):
        q = sg.Query([q3("?x", "<p>", "?c"), q3("?y", "<p>", "?c")])
        shapes = classify_query(q)
        assert QueryShape.O_QUERY in shapes
        assert QueryShape.SO_QUERY not in shapes
        assert sg.so_centers(q) == ()

    def test_s_query(self):
        q = sg.Query([q3("?c", "<p>", "?x"), q3("?c", "<q>", "?y")])
        shapes = classify_query(q)
        assert QueryShape.S_QUERY in shapes
        assert QueryShape.SO_QUERY in shapes
        assert QueryShape.O_QUERY not in shapes

    def test_mixed_star_is_so_but_not_s(self):
        q = sg.Query([q3("?c", "<p>", "?x"), q3("?y", "<q>", "?c")])
        shapes = classify_query(q)
        assert QueryShape.SO_QUERY in shapes
        assert QueryShape.S_QUERY not in shapes

    def test_two_edge_path_is_also_a_star(self):
        q = sg.Query([q3("?a", "<p>", "?b"), q3("?b", "<p>", "?c")])
        assert QueryShape.STAR in classify_query(q)
        assert sg.star_centers(q) == (sg.variable("b"),)

    def test_three_edge_path_is_no_star(self):
        q = sg.Query(
            [q3("?a", "<p>", "?b"), q3("?b", "<p>", "?c"), q3("?c", "<p>", "?d")]
        )
        assert QueryShape.STAR not in classify_query(q)

    def test_supervisor_query_is_no_star(self, supervisor_query):
        assert sg.star_centers(supervisor_query) == ()

    def test_star_centers_in_term_order_and_kept(self):
        q = sg.Query([q3("<a>", "<p>", '"a"')])
        centers = sg.star_centers(q)
        assert centers == (sg.iri("a"), sg.literal("a"))
        assert centers == tuple(sorted(q.nodes))
        assert sg.star_centers(q) is centers


class TestQueryDecomposition:
    def test_union_must_equal_query(self, supervisor_query):
        sub = sg.Query([q3("?A", "<hasAuthor>", "?P1")])
        with pytest.raises(NotADecomposition):
            sg.QueryDecomposition(supervisor_query, (sub,), method="bad")

    def test_fixture_decomposition_is_accepted(self, supervisor_decomposition):
        assert len(supervisor_decomposition) == 3


class TestDataDecomposition:
    def test_union_must_equal_graph(self, bibliography):
        seg = sg.DataGraph([next(iter(bibliography))])
        with pytest.raises(NotADecomposition):
            sg.DataDecomposition(graph=bibliography, segments=(seg,), method="bad")

    def test_edge_split_borders(self, edge_split):
        tok = lambda ns: {n.token() for n in ns}
        assert tok(edge_split.borders[0]) == {"<Article1>", "<Person4>"}
        assert tok(edge_split.borders[1]) == {"<Article1>", "<Article2>", "<Person4>"}
        assert tok(edge_split.borders[2]) == {"<Article1>", "<Article2>"}
        assert edge_split.replicated is None
        assert not edge_split.is_s_decomposition

    def test_node_split_is_s_decomposition(self, node_split):
        assert node_split.is_s_decomposition
        assert [len(s) for s in node_split.segments] == [9, 6, 6]
        tok = lambda ns: sorted(n.token() for n in ns)
        assert tok(node_split.replicated[0]) == [
            "<Journal1>",
            "<Person1>",
            "<Person2>",
        ]
        assert tok(node_split.replicated[1]) == [
            "<Article1>",
            "<Article2>",
            "<Person4>",
        ]
        assert tok(node_split.replicated[2]) == [
            "<Article1>",
            "<Person2>",
            "<Person3>",
        ]

    def test_borders_exclude_literals(self, node_split):
        for border in node_split.borders:
            assert not any(n.is_literal for n in border)

    def test_blocks_that_do_not_induce_the_segments_are_rejected(
        self, bibliography, edge_split
    ):
        # an edge split's segments paired with node blocks used to answer
        # wrongly: segment i need not hold the stars of block i. Blocks now
        # route their own segments, so none can be given with them
        blocks = tuple(
            frozenset(map(sg.ntio.term_from_token, blk)) for blk in NODE_BLOCKS
        )
        with pytest.raises(NotADecomposition, match="give segments or blocks"):
            sg.DataDecomposition(
                bibliography, edge_split.segments, method="hand", node_blocks=blocks
            )

    def test_blocks_route_the_segments_in_canonical_order(self, node_split):
        blocks = [set(b) for b in node_split.node_blocks]
        dec = sg.DataDecomposition(node_split.graph, method="hand", node_blocks=blocks)
        assert dec.node_blocks == node_split.node_blocks
        assert dec.segments == node_split.segments
        for seg, block in zip(dec.segments, dec.node_blocks):
            assert seg.canonical == tuple(
                t for t in node_split.graph.canonical if t.s in block or t.o in block
            )

    # Only a directory on disk can pair node blocks with segments they do
    # not route to: read_segments takes the blocks from the .repl files.

    @pytest.mark.parametrize(
        "edit_segment_0",
        [
            lambda ts: ts[1:],
            # both ends lie in block 1, and segment 0 holds both already
            lambda ts: ts + triples("<Person1> <hasSupervisor> <Person2> ."),
            # <Article1> lies in block 0 and <Person1> in block 1, but the
            # graph lacks the triple, so segment 1 does not hold it
            lambda ts: ts + triples("<Article1> <hasSupervisor> <Person1> ."),
        ],
        ids=["missing triple", "triple outside the block", "triple not in the graph"],
    )
    def test_edited_segment_is_rejected(self, node_split, tmp_path, edit_segment_0):
        sg.write_segments(node_split, tmp_path)
        edited = sg.DataGraph(edit_segment_0(list(node_split.segments[0])))
        (tmp_path / "segment-00.nt").write_text(sg.serialize_graph(edited))
        with pytest.raises(
            NotAPartition,
            match="^stored .repl files: node blocks do not induce the segments$",
        ):
            sg.read_segments(tmp_path)

    def test_swapped_blocks_are_rejected(self, node_split, tmp_path):
        # segments 0 and 1 trade places, their .repl files stay
        sg.write_segments(node_split, tmp_path)
        seg0, seg1 = tmp_path / "segment-00.nt", tmp_path / "segment-01.nt"
        text0, text1 = seg0.read_text(), seg1.read_text()
        seg0.write_text(text1)
        seg1.write_text(text0)
        with pytest.raises(NotAPartition, match="^stored .repl files: "):
            sg.read_segments(tmp_path)

    def test_node_blocks_of_the_wrong_length_are_rejected(self, node_split, tmp_path):
        # two .repl files imply two blocks for three segments
        sg.write_segments(node_split, tmp_path)
        (tmp_path / "segment-02.repl").unlink()
        with pytest.raises(ParseError, match="segment-02.repl"):
            sg.read_segments(tmp_path)
