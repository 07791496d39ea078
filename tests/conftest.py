"""Shared fixtures: a small bibliography graph, three queries over it, and
the frozen partitions and decompositions the golden tests rely on; the
helpers that read the engines' ID vectors and stars' star-assembly keys
back as terms; and readers that
only tests need (query shape classes, answer files, token-keyed edge
assignments)."""

import enum

import pytest

import stargraph as sg
from stargraph.embedding import enumerate_useful_partial
from stargraph.errors import MalformedLine, ParseError
from stargraph.model import UNBOUND, star_centers

BIBLIOGRAPHY = """\
<Article1> <hasAuthor> <Person1> .
<Article1> <hasAuthor> <Person2> .
<Article1> <hasAuthor> <Person4> .
<Article2> <hasAuthor> <Person2> .
<Article2> <hasAuthor> <Person3> .
<Article3> <hasAuthor> <Person4> .
<Person4> <hasSupervisor> <Person1> .
<Person2> <hasSupervisor> <Person3> .
<Article1> <publishedIn> <Journal1> .
<Article2> <publishedIn> <Journal1> .
<Article3> <publishedIn> <Journal2> .
<Article1> <title> "Title1" .
<Article2> <title> "Title2" .
<Article2> <year> "2008" .
<Article3> <year> "2008" .
"""

JOURNAL_ARTICLE_QUERY = """\
?A <hasAuthor> ?W .
?A <title> ?T .
?A <year> "2008" .
?A <publishedIn> <Journal1> .
"""

SUPERVISOR_QUERY = """\
?A <hasAuthor> ?P1 .
?P1 <hasSupervisor> ?P2 .
?A <hasAuthor> ?P2 .
?A <publishedIn> <Journal1> .
?A <title> ?T .
"""

COAUTHOR_QUERY = """\
?A <hasAuthor> ?P1 .
?A <hasAuthor> ?P2 .
?A <publishedIn> ?J .
?A <year> "2008" .
<Article1> <hasAuthor> ?P1 .
<Article1> <publishedIn> ?J .
<Article1> <title> ?T .
?P1 <hasSupervisor> ?P2 .
"""

# Hand-picked triple-to-block map: block 0 around Article3 plus two Article1
# edges, block 1 the authorship/supervision core, block 2 the Journal1 side.
EDGE_BLOCKS = {
    "<Article1> <hasAuthor> <Person4> .": 0,
    '<Article1> <title> "Title1" .': 0,
    "<Article3> <hasAuthor> <Person4> .": 0,
    "<Article3> <publishedIn> <Journal2> .": 0,
    '<Article3> <year> "2008" .': 0,
    "<Article1> <hasAuthor> <Person1> .": 1,
    "<Article1> <hasAuthor> <Person2> .": 1,
    "<Article2> <hasAuthor> <Person2> .": 1,
    "<Article2> <hasAuthor> <Person3> .": 1,
    "<Person4> <hasSupervisor> <Person1> .": 1,
    "<Person2> <hasSupervisor> <Person3> .": 1,
    "<Article1> <publishedIn> <Journal1> .": 2,
    "<Article2> <publishedIn> <Journal1> .": 2,
    '<Article2> <title> "Title2" .': 2,
    '<Article2> <year> "2008" .': 2,
}

NODE_BLOCKS = (
    ("<Article1>", "<Article3>", "<Journal2>", "<Person4>"),
    ("<Person1>", "<Person2>", "<Person3>"),
    ("<Article2>", "<Journal1>"),
)


def triple_blocks(assignment):
    """A {DataTriple: block} edge assignment from one keyed by triple lines,
    as ``from_edge_assignment`` takes it."""
    return {sg.parse_data(line).canonical[0]: blk for line, blk in assignment.items()}


class QueryShape(enum.Enum):
    STAR = "star"
    S_QUERY = "s-query"
    O_QUERY = "o-query"
    SO_QUERY = "so-query"


def classify_query(q):
    """All shape classes q belongs to.

    A query is a generalized star when some node occurs in every triple; it is
    an s-query / o-query when some node is the subject / object of every
    triple; it is an so-query when some star center is the subject of at least
    one triple. A single-triple query without a self-loop lands in every class.
    """
    shapes = set()
    centers = star_centers(q)
    if centers:
        shapes.add(QueryShape.STAR)
    if any(all(t.s == c for t in q.triples) for c in centers):
        shapes.add(QueryShape.S_QUERY)
    if any(all(t.o == c for t in q.triples) for c in centers):
        shapes.add(QueryShape.O_QUERY)
    if sg.so_centers(q):
        shapes.add(QueryShape.SO_QUERY)
    return frozenset(shapes)


def answers_from_tsv(text):
    """The AnswerSet an answers file spells out, the inverse of
    ``AnswerSet.to_tsv``: a header of variable tokens, then one row per line
    (an empty line is the one row of a satisfied boolean query)."""
    lines = text.splitlines()
    if not lines:
        raise ParseError("empty answers file")
    variables = tuple(
        sg.term_from_token(tok, 1) for tok in lines[0].split("\t") if tok
    )
    for v in variables:
        if not v.is_variable:
            raise MalformedLine(f"header token {v.token()} is not a variable", 1)
    rows = []
    for idx, raw in enumerate(lines[1:], start=2):
        if not raw:
            if not variables:
                rows.append(())
            continue
        row = tuple(sg.term_from_token(tok, idx) for tok in raw.split("\t"))
        if len(row) != len(variables):
            raise MalformedLine(
                f"row has {len(row)} values for {len(variables)} variables", idx
            )
        rows.append(row)
    return sg.AnswerSet(variables, rows)


def layout_centres(dec):
    """The centre of each subquery's layout star, as the engines read it."""
    layout = sg.preprocess(dec)
    return tuple(layout.nodes[star.centre] for star in layout.stars)


def decode(dictionary, ids):
    """The terms of a vector of IDs in ``dictionary``, None for UNBOUND."""
    terms = dictionary.terms
    return tuple(None if i == UNBOUND else terms[i] for i in ids)


def assembly_key(dictionary, key):
    """A stars ``star-assembly`` key read back as (subquery, central term):
    the key is ``subquery * len(dictionary.terms) + image``, the image being
    the central term's ID in ``dictionary``."""
    sub, img = divmod(key, len(dictionary.terms))
    return sub, dictionary.terms[img]


def interior_of(segment, border, dictionary):
    """The IDs of segment's non-literal nodes outside ``border``: the images
    the closure rule applies to, as ``DataDecomposition.interiors`` holds
    them for each segment of a partition."""
    ids = dictionary.ids
    return frozenset(ids[n] for n in segment.nodes - border if not n.is_literal)


def term_partials(sub, segment, border, nodes, dictionary=None):
    """``enumerate_useful_partial`` of sub against segment, whose border is
    ``border``, each flat fragment decoded to an (images, mask) pair, None
    for an unbound image, in the order the search returned them.
    ``dictionary`` defaults to the segment's own."""
    dictionary = dictionary or segment.dictionary
    interior = interior_of(segment, border, dictionary)
    frags = enumerate_useful_partial(sub, segment, interior, nodes, dictionary)
    for frag in frags:  # one int per node, then the mask
        assert type(frag) is tuple and len(frag) == len(nodes) + 1
        assert all(type(v) is int for v in frag)
    return [(decode(dictionary, frag[:-1]), frag[-1]) for frag in frags]


def q3(s, p, o):
    """Shorthand: build a pattern from three tokens."""
    return sg.TriplePattern(
        sg.ntio.term_from_token(s),
        sg.ntio.term_from_token(p),
        sg.ntio.term_from_token(o),
    )


@pytest.fixture(scope="session")
def bibliography():
    return sg.parse_data(BIBLIOGRAPHY)


@pytest.fixture(scope="session")
def journal_article_query():
    return sg.parse_query(JOURNAL_ARTICLE_QUERY)


@pytest.fixture(scope="session")
def supervisor_query():
    return sg.parse_query(SUPERVISOR_QUERY)


@pytest.fixture(scope="session")
def coauthor_query():
    return sg.parse_query(COAUTHOR_QUERY)


@pytest.fixture(scope="session")
def edge_split(bibliography):
    """Three-segment edge partition of the bibliography graph, imported from
    an explicit assignment so every test sees the same borders."""
    return sg.from_edge_assignment(bibliography, triple_blocks(EDGE_BLOCKS))


@pytest.fixture(scope="session")
def node_split(bibliography):
    """Three-block node partition of the bibliography graph (segments carry
    replicated cross-block triples)."""
    blocks = [
        frozenset(sg.ntio.term_from_token(tok) for tok in blk) for blk in NODE_BLOCKS
    ]
    return sg.s_decompose(bibliography, blocks)


@pytest.fixture(scope="session")
def supervisor_decomposition(supervisor_query):
    """The three-subquery split of the supervisor query used by the golden
    tests: authorship+title star, coauthor+journal star, supervision edge."""
    a, p1, p2, t = "?A", "?P1", "?P2", "?T"
    sub1 = sg.Query(
        [q3(a, "<hasAuthor>", p1), q3(a, "<title>", t)]
    )
    sub2 = sg.Query(
        [q3(a, "<hasAuthor>", p2), q3(a, "<publishedIn>", "<Journal1>")]
    )
    sub3 = sg.Query([q3(p1, "<hasSupervisor>", p2)])
    return sg.QueryDecomposition(
        supervisor_query, (sub1, sub2, sub3), method="fixture"
    )


@pytest.fixture(scope="session")
def coauthor_cover_decomposition(coauthor_query):
    """Star decomposition of the coauthor query from the node cover
    {Article1, ?A, ?P2}."""
    cover = {
        sg.iri("Article1"),
        sg.variable("A"),
        sg.variable("P2"),
    }
    return sg.star_decomposition_from_cover(coauthor_query, cover)


@pytest.fixture(scope="session")
def oracle_answers_supervisor(supervisor_query, bibliography):
    return sg.oracle_answers(supervisor_query, bibliography)
