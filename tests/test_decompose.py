"""Query decomposition strategies and their structural guarantees."""

import pytest

import stargraph as sg
from stargraph.errors import NotANodeCover, SearchSpaceTooLarge
from conftest import QueryShape, classify_query, layout_centres, q3


def triple_sets(dec):
    return [frozenset(s.triples) for s in dec.subqueries]


def by_index(query, *indexes):
    canon = query.canonical
    return frozenset(canon[i] for i in indexes)


class TestNaive:
    def test_single_star_query_yields_one_star(self, journal_article_query):
        dec = sg.naive_decomposition(journal_article_query)
        assert len(dec) == 1
        assert dec.subqueries[0].triples == journal_article_query.triples
        assert layout_centres(dec) == (sg.variable("A"),)

    def test_coauthor_query_yields_three_overlapping_stars(self, coauthor_query):
        dec = sg.naive_decomposition(coauthor_query)
        assert triple_sets(dec) == [
            by_index(coauthor_query, 0, 1, 2, 3),
            by_index(coauthor_query, 4, 5, 6),
            by_index(coauthor_query, 0, 4, 7),
        ]
        assert layout_centres(dec) == (
            sg.variable("A"),
            sg.iri("Article1"),
            sg.variable("P1"),
        )

    def test_every_star_is_an_so_query(self, supervisor_query):
        report = sg.validate_decomposition(
            supervisor_query, sg.naive_decomposition(supervisor_query)
        )
        assert report.is_decomposition and report.all_stars and report.all_so


class TestMinRes:
    def test_coauthor_trace(self, coauthor_query):
        dec = sg.min_res_decomposition(coauthor_query)
        assert triple_sets(dec) == [
            by_index(coauthor_query, 0, 3),
            by_index(coauthor_query, 1, 3),
            by_index(coauthor_query, 2, 3),
            by_index(coauthor_query, 4, 7),
            by_index(coauthor_query, 5),
            by_index(coauthor_query, 6),
        ]
        assert layout_centres(dec) == (
            sg.variable("A"),
            sg.variable("A"),
            sg.variable("A"),
            sg.variable("P1"),
            sg.iri("Article1"),
            sg.iri("Article1"),
        )

    def test_supervisor_trace(self, supervisor_query):
        dec = sg.min_res_decomposition(supervisor_query)
        assert triple_sets(dec) == [
            by_index(supervisor_query, 0, 2),
            by_index(supervisor_query, 1, 2),
            by_index(supervisor_query, 2, 3),
            by_index(supervisor_query, 4),
        ]

    def test_at_most_two_variables_per_subquery(self, coauthor_query):
        dec = sg.min_res_decomposition(coauthor_query)
        report = sg.validate_decomposition(coauthor_query, dec)
        assert report.max_variables <= 2
        assert report.is_decomposition and report.all_so

    def test_object_star_wins_when_strictly_larger(self):
        # one variable-variable edge; the object end has two outgoing
        # single-variable triples, the subject end only one
        q = sg.Query(
            [
                q3("?x", "<e>", "?y"),
                q3("?x", "<p>", '"a"'),
                q3("?y", "<q>", '"b"'),
                q3("?y", "<r>", '"c"'),
            ]
        )
        dec = sg.min_res_decomposition(q)
        assert triple_sets(dec) == [
            frozenset({q.canonical[0], q.canonical[2], q.canonical[3]}),
            frozenset({q.canonical[1]}),
        ]
        assert layout_centres(dec) == (sg.variable("y"), sg.variable("x"))

    def test_object_star_needs_an_outgoing_seed(self):
        # the object end only has incoming triples, so the subject star is
        # chosen even though the object star would be larger
        q = sg.Query(
            [
                q3("?x", "<e>", "?y"),
                q3("<c1>", "<p>", "?y"),
                q3("<c2>", "<q>", "?y"),
            ]
        )
        dec = sg.min_res_decomposition(q)
        # the subject star holds the edge alone; the object star would have
        # taken both incoming triples with it
        assert triple_sets(dec) == [
            frozenset({q3("?x", "<e>", "?y")}),
            frozenset({q3("<c1>", "<p>", "?y")}),
            frozenset({q3("<c2>", "<q>", "?y")}),
        ]


class TestMinSubquery:
    def test_coauthor_needs_all_three_stars(self, coauthor_query):
        dec = sg.min_subquery_decomposition(coauthor_query)
        assert len(dec) == 3

    def test_supervisor_two_stars_suffice(self, supervisor_query):
        dec = sg.min_subquery_decomposition(supervisor_query)
        assert sorted(len(s) for s in dec.subqueries) == [2, 4]

    def test_guard_rejects_huge_search_spaces(self):
        chain = [q3(f"?v{i}", "<p>", f"?v{i + 1}") for i in range(17)]
        with pytest.raises(SearchSpaceTooLarge):
            sg.min_subquery_decomposition(sg.Query(chain))

    def test_cardinality_is_minimal(self, supervisor_query, coauthor_query):
        for q in (supervisor_query, coauthor_query):
            n = len(sg.min_subquery_decomposition(q))
            for make in sg.DECOMPOSERS.values():
                assert n <= len(make(q))


class TestMaxDegree:
    def test_coauthor_trace(self, coauthor_query):
        dec = sg.max_degree_decomposition(coauthor_query)
        assert triple_sets(dec) == [
            by_index(coauthor_query, 0, 1, 2, 3),
            by_index(coauthor_query, 4, 5, 6),
            by_index(coauthor_query, 7),
        ]
        assert sg.validate_decomposition(coauthor_query, dec).non_redundant

    def test_redundancy_variant_adds_constant_far_ends(self, coauthor_query):
        dec = sg.max_degree_redundancy_decomposition(coauthor_query)
        assert triple_sets(dec) == [
            by_index(coauthor_query, 0, 1, 2, 3),
            by_index(coauthor_query, 4, 5, 6),
            by_index(coauthor_query, 4, 7),
        ]
        assert not sg.validate_decomposition(coauthor_query, dec).non_redundant

    def test_reshaping_matches_plain_when_nothing_to_reshape(self, coauthor_query):
        plain = sg.max_degree_decomposition(coauthor_query)
        reshaped = sg.max_degree_reshaping_decomposition(coauthor_query)
        assert triple_sets(plain) == triple_sets(reshaped)

    def test_reshaping_donates_an_outgoing_triple(self):
        q = sg.Query(
            [
                q3("?m", "<p>", "?a"),
                q3("?b", "<q>", "?m"),
                q3("?e", "<u>", "?m"),
                q3("?a", "<r>", "?c"),
                q3("?a", "<s>", "?d"),
            ]
        )
        dec = sg.max_degree_reshaping_decomposition(q)
        assert triple_sets(dec) == [
            frozenset({q3("?a", "<r>", "?c"), q3("?a", "<s>", "?d")}),
            frozenset(
                {
                    q3("?m", "<p>", "?a"),
                    q3("?b", "<q>", "?m"),
                    q3("?e", "<u>", "?m"),
                }
            ),
        ]
        assert layout_centres(dec) == (sg.variable("a"), sg.variable("m"))
        report = sg.validate_decomposition(q, dec)
        assert report.is_decomposition and report.all_so and report.non_redundant


class TestStarFromCover:
    def test_coauthor_cover(self, coauthor_query, coauthor_cover_decomposition):
        dec = coauthor_cover_decomposition
        assert triple_sets(dec) == [
            by_index(coauthor_query, 0, 2, 3),
            by_index(coauthor_query, 4, 5, 6),
            by_index(coauthor_query, 1, 7),
        ]
        assert layout_centres(dec) == (
            sg.variable("A"),
            sg.iri("Article1"),
            sg.variable("P2"),
        )

    def test_literal_cover_node_rejected(self, coauthor_query):
        with pytest.raises(NotANodeCover):
            sg.star_decomposition_from_cover(
                coauthor_query, {sg.variable("A"), sg.literal("2008")}
            )

    def test_non_node_rejected(self, coauthor_query):
        with pytest.raises(NotANodeCover):
            sg.star_decomposition_from_cover(coauthor_query, {sg.variable("zz")})

    def test_uncovered_triple_rejected(self, coauthor_query):
        with pytest.raises(NotANodeCover):
            sg.star_decomposition_from_cover(
                coauthor_query, {sg.variable("A"), sg.iri("Article1")}
            )

    def test_cover_node_with_empty_star_is_dropped(self):
        q = sg.Query([q3("?x", "<p>", "?y")])
        dec = sg.star_decomposition_from_cover(
            q, {sg.variable("x"), sg.variable("y")}
        )
        assert dec.subqueries == (q,)


class TestReports:
    def test_o_query_subquery_flagged(self, coauthor_query):
        dec = sg.star_decomposition_from_cover(
            coauthor_query,
            {sg.variable("A"), sg.iri("Article1"), sg.variable("P2")},
        )
        report = sg.validate_decomposition(coauthor_query, dec)
        assert not report.all_so
        assert QueryShape.O_QUERY in classify_query(dec.subqueries[2])

    def test_all_decomposers_validate_on_fixture_queries(
        self, journal_article_query, supervisor_query, coauthor_query
    ):
        for q in (journal_article_query, supervisor_query, coauthor_query):
            for name, make in sg.DECOMPOSERS.items():
                report = sg.validate_decomposition(q, make(q))
                assert report.is_decomposition, name
                assert report.all_stars and report.all_so, name
