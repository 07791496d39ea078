"""Single-machine reference evaluation."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stargraph as sg

from conftest import q3
from naive_eval import naive_answers

HUB = sg.iri("hub")
IRIS = [HUB, sg.iri("a"), sg.iri("b"), sg.iri("c")]
LITERALS = [sg.literal("x"), sg.literal("y")]
PREDICATES = [sg.iri("p"), sg.iri("q")]
VARIABLES = [sg.variable(n) for n in ("x", "y", "z")]
# constants that no drawn graph contains
ABSENT = [sg.iri("absent"), sg.literal("absent"), sg.iri("r")]


@st.composite
def graphs(draw):
    """Small graphs with self-loops, literal objects and, often, a hub that
    links to every node."""
    triples = draw(
        st.lists(
            st.builds(
                sg.DataTriple,
                st.sampled_from(IRIS),
                st.sampled_from(PREDICATES),
                st.sampled_from(IRIS + LITERALS),
            ),
            min_size=1,
            max_size=14,
        )
    )
    if draw(st.booleans()):
        p = draw(st.sampled_from(PREDICATES))
        triples += [sg.DataTriple(HUB, p, o) for o in IRIS + LITERALS]
    return sg.DataGraph(triples)


# subjects and objects may be variables (so ?x p ?x is a self-loop), graph
# constants, literal objects, or constants absent from every graph
patterns = st.builds(
    sg.TriplePattern,
    st.sampled_from(VARIABLES + IRIS + ABSENT[:1]),
    st.sampled_from(PREDICATES + ABSENT[2:]),
    st.sampled_from(VARIABLES + IRIS + LITERALS + ABSENT[:2]),
)
queries = st.lists(patterns, min_size=1, max_size=4).map(sg.Query)


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
        full = len(sg.enumerate_total(q, bibliography, tuple(sorted(q.nodes))))
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


HUB_GRAPH = """\
<hub> <p> <a> .
<hub> <p> <b> .
<hub> <p> <c> .
<hub> <p> "x" .
<a> <p> <a> .
<b> <q> <hub> .
<c> <q> "y" .
"""


class TestOracleAgainstNaiveEvaluator:
    """The oracle shares its matching code with the engines, so it is checked
    against an evaluator that shares none."""

    @pytest.mark.parametrize(
        "query,rows",
        [
            ("?h <p> ?x .\n?h <p> ?y .\n", 17),  # hub: 4 x 4 pairs, <a> 1
            ("?x <p> ?x .\n", 1),  # self-loop in data and query
            ('?x <p> "x" .\n?y <q> "y" .\n', 1),  # literal objects
            ("<absent> <p> ?x .\n", 0),  # constant absent from the graph
            ('?x <p> "absent" .\n', 0),
            ("?x <q> ?y .\n?y <q> ?x .\n", 0),  # empty answers
            ("?x <p> ?y .\n?y <q> ?x .\n", 1),
            ("?x <q> ?y .\n?y <p> ?z .\n", 4),
        ],
    )
    def test_named_shapes(self, query, rows):
        g = sg.parse_data(HUB_GRAPH)
        q = sg.parse_query(query)
        want = naive_answers(q, g)
        assert len(want) == rows
        assert set(sg.oracle_answers(q, g).rows) == want

    @settings(max_examples=300, deadline=None)
    @given(graphs(), queries)
    def test_same_rows_as_naive_evaluator(self, g, q):
        assert set(sg.oracle_answers(q, g).rows) == naive_answers(q, g)
