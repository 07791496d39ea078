"""Single-machine reference evaluation."""

import stargraph as sg

from conftest import q3


class TestOracle:
    def test_fixture_answers(
        self, bibliography, journal_article_query, supervisor_query, coauthor_query
    ):
        assert len(sg.oracle_answers(journal_article_query, bibliography).rows) == 2
        assert len(sg.oracle_answers(supervisor_query, bibliography).rows) == 2
        assert len(sg.oracle_answers(coauthor_query, bibliography).rows) == 1

    def test_projection_deduplicates(self, bibliography):
        # two authors of Article2 collapse onto one projected row
        q = sg.parse_query('?A <year> "2008" .\n?A <hasAuthor> ?W .\n')
        full = len(sg.enumerate_total(q, bibliography))
        projected = sg.Query(
            [q3("?A", "<year>", '"2008"'), q3("?A", "<hasAuthor>", "?W")]
        )
        assert full == 3
        only_a = sg.oracle_answers(
            sg.parse_query('?A <year> "2008" .\n'), bibliography
        )
        assert len(only_a.rows) == 2

    def test_boolean_query(self, bibliography):
        sat = sg.Query([q3("<Article1>", "<publishedIn>", "<Journal1>")])
        unsat = sg.Query([q3("<Article1>", "<publishedIn>", "<Journal2>")])
        assert sg.oracle_answers(sat, bibliography).rows == ((),)
        assert sg.oracle_answers(unsat, bibliography).rows == ()

    def test_headers_follow_the_output_pattern(self, bibliography, coauthor_query):
        ans = sg.oracle_answers(coauthor_query, bibliography)
        assert ans.variables == coauthor_query.output_pattern
