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
    VariableInData,
    VariablePredicate,
)
from stargraph.model import QueryShape, Term, TermKind, classify_query

from conftest import q3


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

    def test_self_loop_pattern_has_one_node(self):
        pat = q3("?x", "<p>", "?x")
        assert pat.nodes == (sg.variable("x"),)

    def test_pattern_ground(self):
        pat = q3("?x", "<p>", '"v"')
        t = pat.ground(sg.iri("a"), sg.literal("v"))
        assert t == sg.DataTriple(sg.iri("a"), sg.iri("p"), sg.literal("v"))


class TestDataGraph:
    def test_empty_graph_rejected(self):
        with pytest.raises(EmptyGraph):
            sg.DataGraph([])

    def test_canonical_order_is_subject_predicate_object(self, bibliography):
        keys = [(t.s.key, t.p.key, t.o.key) for t in bibliography.canonical]
        assert keys == sorted(keys)

    def test_nodes_exclude_nothing_and_literals_are_flagged(self, bibliography):
        assert sg.literal("2008") in bibliography.nodes
        assert sg.literal("2008") in bibliography.literals
        assert sg.iri("Article1") not in bibliography.literals

    def test_equality_ignores_construction_order(self, bibliography):
        again = sg.DataGraph(list(reversed(list(bibliography))))
        assert again == bibliography
        assert hash(again) == hash(bibliography)


class TestQuery:
    def test_empty_query_rejected(self):
        with pytest.raises(EmptyQuery):
            sg.Query([])

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
        shapes = classify_query(q)
        assert QueryShape.PATH in shapes
        assert QueryShape.STAR in shapes
        assert sg.star_centers(q) == (sg.variable("b"),)

    def test_three_edge_path_is_no_star(self):
        q = sg.Query(
            [q3("?a", "<p>", "?b"), q3("?b", "<p>", "?c"), q3("?c", "<p>", "?d")]
        )
        shapes = classify_query(q)
        assert QueryShape.PATH in shapes
        assert QueryShape.STAR not in shapes

    def test_branching_is_no_path(self):
        q = sg.Query([q3("?a", "<p>", "?b"), q3("?a", "<q>", "?c")])
        assert QueryShape.PATH not in classify_query(q)

    def test_supervisor_query_is_no_star(self, supervisor_query):
        assert sg.star_centers(supervisor_query) == ()


class TestQueryDecomposition:
    def test_union_must_equal_query(self, supervisor_query):
        sub = sg.Query([q3("?A", "<hasAuthor>", "?P1")])
        with pytest.raises(NotADecomposition):
            sg.QueryDecomposition(
                supervisor_query, (sub,), (sg.variable("A"),), method="bad"
            )

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


class TestSubgraph:
    def test_is_subgraph(self, bibliography):
        some = sg.DataGraph(list(bibliography)[:3])
        assert sg.is_subgraph(some, bibliography)
        other = sg.DataGraph([sg.DataTriple(sg.iri("zz"), sg.iri("p"), sg.iri("y"))])
        assert not sg.is_subgraph(other, bibliography)
