"""Embedding enumeration, encoding, and fragment joining."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stargraph as sg
from stargraph.embedding import (
    embedding_sort_key,
    enumerate_useful_partial,
    is_useful,
    totals_from_fragments,
)

from conftest import q3


def d3(s, p, o):
    return sg.DataTriple(sg.term_from_token(s), sg.term_from_token(p), sg.term_from_token(o))


NINE_GRAPH = sg.DataGraph(
    [d3("<c>", "<p1>", f"<c1{i}>") for i in (1, 2, 3)]
    + [d3("<c>", "<p2>", f"<c2{i}>") for i in (1, 2, 3)]
)
NINE_QUERY = sg.Query([q3("<c>", "<p1>", "?X"), q3("<c>", "<p2>", "?Y")])


class TestEnumerateTotal:
    def test_fixture_counts(
        self, bibliography, journal_article_query, supervisor_query, coauthor_query
    ):
        assert len(sg.enumerate_total(journal_article_query, bibliography)) == 2
        assert len(sg.enumerate_total(supervisor_query, bibliography)) == 2
        assert len(sg.enumerate_total(coauthor_query, bibliography)) == 1

    def test_supervisor_bindings(self, bibliography, supervisor_query):
        rows = {
            tuple(e[n] for n in supervisor_query.output_pattern)
            for e in sg.enumerate_total(supervisor_query, bibliography)
        }
        assert rows == {
            tuple(sg.term_from_token(t) for t in row)
            for row in (
                ("<Article1>", "<Person4>", "<Person1>", '"Title1"'),
                ("<Article2>", "<Person2>", "<Person3>", '"Title2"'),
            )
        }

    def test_total_embeddings_bind_every_node(self, bibliography, coauthor_query):
        for e in sg.enumerate_total(coauthor_query, bibliography):
            assert e.domain == coauthor_query.nodes

    def test_cartesian_star_product(self):
        assert len(sg.enumerate_total(NINE_QUERY, NINE_GRAPH)) == 9
        left = sg.Query([q3("<c>", "<p1>", "?X")])
        right = sg.Query([q3("<c>", "<p2>", "?Y")])
        assert len(sg.enumerate_total(left, NINE_GRAPH)) == 3
        assert len(sg.enumerate_total(right, NINE_GRAPH)) == 3

    def test_no_answers_on_empty_intersection(self, bibliography):
        q = sg.Query([q3("?A", "<nope>", "?B")])
        assert sg.enumerate_total(q, bibliography) == []


class TestCompatibilityAlgebra:
    nodes = st.sampled_from(
        [sg.variable(c) for c in "xyzw"] + [sg.iri(c) for c in "ab"]
    )
    values = st.sampled_from([sg.iri(f"n{i}") for i in range(4)])
    embeddings = st.dictionaries(nodes, values, max_size=5).map(sg.Embedding)

    @given(embeddings, embeddings)
    def test_compatibility_is_symmetric(self, e1, e2):
        assert sg.is_compatible(e1, e2) == sg.is_compatible(e2, e1)

    @given(embeddings, embeddings)
    def test_join_merges_or_raises(self, e1, e2):
        if sg.is_compatible(e1, e2):
            j = sg.join(e1, e2)
            assert j.domain == e1.domain | e2.domain
            for n in e1:
                assert j[n] == e1[n]
            for n in e2:
                assert j[n] == e2[n]
            assert j == sg.join(e2, e1)
        else:
            with pytest.raises(ValueError):
                sg.join(e1, e2)

    @given(embeddings)
    def test_self_compatibility(self, e):
        assert sg.is_compatible(e, e)
        assert sg.join(e, e) == e

    @given(embeddings, st.sets(nodes))
    def test_restrict_is_a_subset(self, e, keep):
        r = sg.restrict(e, keep)
        assert r.domain == e.domain & frozenset(keep)
        for n in r:
            assert r[n] == e[n]

    @given(embeddings, embeddings)
    def test_sort_key_orders_consistently_with_equality(self, e1, e2):
        if embedding_sort_key(e1) == embedding_sort_key(e2):
            assert e1 == e2


class TestUsefulPartials:
    def layout(self, supervisor_decomposition):
        return sg.preprocess(supervisor_decomposition)

    def test_fragment_counts_per_subquery_and_segment(
        self, edge_split, supervisor_decomposition
    ):
        layout = sg.preprocess(supervisor_decomposition)
        counts = {}
        for i, sub in enumerate(layout.subqueries):
            for j, seg in enumerate(edge_split.segments):
                frags = enumerate_useful_partial(sub, seg, edge_split.borders[j])
                counts[(i, j)] = len(frags)
        assert counts == {
            (0, 0): 3, (0, 1): 4, (0, 2): 1,
            (1, 0): 1, (1, 1): 4, (1, 2): 2,
            (2, 0): 0, (2, 1): 2, (2, 2): 0,
        }

    def test_partial_witness(self, edge_split, supervisor_decomposition):
        # segment 0 holds (Article1 hasAuthor Person4) but no publishedIn
        # triple, so the star survives there only as a half-matched partial
        layout = sg.preprocess(supervisor_decomposition)
        sub = layout.subqueries[1]
        frags = enumerate_useful_partial(
            sub, edge_split.segments[0], edge_split.borders[0]
        )
        witness = sg.Embedding(
            {
                sg.variable("A"): sg.iri("Article1"),
                sg.variable("P2"): sg.iri("Person4"),
            }
        )
        assert [e for e, _ in frags] == [witness]

    def test_matched_indexes_refer_to_canonical_order(
        self, edge_split, supervisor_decomposition
    ):
        layout = sg.preprocess(supervisor_decomposition)
        for i, sub in enumerate(layout.subqueries):
            n = len(sub.canonical)
            for j, seg in enumerate(edge_split.segments):
                for e, matched in enumerate_useful_partial(
                    sub, seg, edge_split.borders[j]
                ):
                    assert matched and all(0 <= k < n for k in matched)
                    assert is_useful(e, sub, seg, edge_split.borders[j])

    def test_trivial_embedding_is_not_useful(self, edge_split, supervisor_decomposition):
        layout = sg.preprocess(supervisor_decomposition)
        assert not is_useful(
            sg.Embedding({}),
            layout.subqueries[0],
            edge_split.segments[0],
            edge_split.borders[0],
        )

    def test_closure_condition_rejects_halfbound_interior(self):
        # ?X maps to a node with two outgoing triples but only one matched,
        # and the image is neither border nor literal, so the partial is dead
        g = sg.DataGraph([d3("<a>", "<p>", "<b>"), d3("<a>", "<q>", "<c>")])
        sub = sg.Query([q3("?X", "<p>", "?Y"), q3("?X", "<q>", "?Z")])
        e = sg.Embedding({sg.variable("X"): sg.iri("a"), sg.variable("Y"): sg.iri("b")})
        assert not is_useful(e, sub, g, frozenset())
        # once the image sits on the border the closure requirement lifts
        assert is_useful(e, sub, g, frozenset({sg.iri("a")}))


class TestLayout:
    def test_fixture_layout(self, supervisor_decomposition):
        layout = sg.preprocess(supervisor_decomposition)
        assert layout.border_nodes == (
            sg.variable("A"), sg.variable("P1"), sg.variable("P2")
        )
        assert layout.nonborder_nodes == (sg.iri("Journal1"), sg.variable("T"))
        assert layout.common_border == ()
        assert layout.missing_border == (
            (sg.variable("A"), 2),
            (sg.variable("P1"), 1),
            (sg.variable("P2"), 0),
        )

    def test_border_sets_exclude_literals(self, coauthor_cover_decomposition):
        layout = sg.preprocess(coauthor_cover_decomposition)
        assert all(not n.is_literal for n in layout.border_nodes)
        assert layout.common_border == (sg.variable("P1"),)
        assert layout.missing_border == (
            (sg.variable("A"), 1),
            (sg.variable("J"), 2),
        )


class TestTotalsFromFragments:
    def collect(self, layout, edge_split, i):
        sub = layout.subqueries[i]
        frags = []
        for j, seg in enumerate(edge_split.segments):
            for e, matched in enumerate_useful_partial(
                sub, seg, edge_split.borders[j]
            ):
                frags.append((e, matched, j))
        return totals_from_fragments(sub, frags)

    def test_fixture_totals(self, bibliography, edge_split, supervisor_decomposition):
        layout = sg.preprocess(supervisor_decomposition)
        expected_counts = [5, 5, 2]
        for i, sub in enumerate(layout.subqueries):
            totals = self.collect(layout, edge_split, i)
            assert sorted(totals, key=embedding_sort_key) == sorted(
                sg.enumerate_total(sub, bibliography), key=embedding_sort_key
            )
            assert len(totals) == expected_counts[i]

    def test_cap_guard(self, edge_split, supervisor_decomposition):
        layout = sg.preprocess(supervisor_decomposition)
        sub = layout.subqueries[0]
        frags = []
        for j, seg in enumerate(edge_split.segments):
            for e, matched in enumerate_useful_partial(
                sub, seg, edge_split.borders[j]
            ):
                frags.append((e, matched, j))
        with pytest.raises(sg.CartesianCapExceeded):
            totals_from_fragments(sub, frags, cap=1)
