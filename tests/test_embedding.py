"""Embedding enumeration, the query layout, and fragment joining.

Every primitive reports an embedding as the tuple of the images of a node
order the caller gives, None (or UNBOUND, for the ID vectors the fragment
join reads) where a node is unbound; these tests pass that order explicitly.
"""

from collections import Counter

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stargraph as sg
from stargraph.embedding import (
    candidates,
    enumerate_useful_partial,
    star_of,
    totals_from_fragments,
)
from stargraph.model import UNBOUND, DataTriple

from conftest import BIBLIOGRAPHY, q3


def images_over(nodes, bindings):
    """The images of nodes under a {node: image} dict, None where unbound."""
    return tuple(map(bindings.get, nodes))


def mask_of(indexes):
    return sum(1 << i for i in indexes)


# The reference for enumerate_total: the search as it stood before it matched
# on a slot vector in a fixed order, with a dict of bindings copied on every
# extension and the most-constrained triple picked afresh at every search
# node. Kept verbatim apart from its name and the package prefix on types.
# Its two helpers serve reference_useful_partials below as well.
def _value_of(term: sg.Term, bindings: dict[sg.Term, sg.Term]) -> sg.Term | None:
    if term.is_constant:
        return term
    return bindings.get(term)


def _extended(bindings: dict, t: sg.TriplePattern, inst: DataTriple) -> dict | None:
    """Bindings plus whatever inst pins down; None on conflict. inst comes
    from ``candidates``, so it already agrees with t's constants."""
    new = bindings
    for node, img in ((t.s, inst.s), (t.o, inst.o)):
        if node.is_constant:
            continue
        cur = new.get(node)
        if cur is None:
            if new is bindings:
                new = dict(bindings)
            new[node] = img
        elif cur != img:
            return None
    return dict(new) if new is bindings else new


def reference_totals(
    q: sg.Query, g: sg.DataGraph, nodes: tuple[sg.Term, ...]
) -> list[tuple[sg.Term | None, ...]]:
    """All total embeddings of q in g, in the order the search finds them,
    each as the images of ``nodes``: a constant of q maps to itself, and a
    node not in q to None."""
    triples = list(q.canonical)
    n = len(triples)
    results: list[tuple[sg.Term | None, ...]] = []

    def bound_count(t: sg.TriplePattern, bindings) -> int:
        return sum(1 for x in (t.s, t.o) if _value_of(x, bindings) is not None)

    def dfs(remaining: list[int], bindings: dict):
        if not remaining:
            results.append(tuple(map(bindings.get, nodes)))
            return
        # most-constrained first: prefer patterns with more bound endpoints
        pick = max(remaining, key=lambda i: (bound_count(triples[i], bindings), -i))
        rest = [i for i in remaining if i != pick]
        t = triples[pick]
        for inst in candidates(g, t, _value_of(t.s, bindings), _value_of(t.o, bindings)):
            nb = _extended(bindings, t, inst)
            if nb is not None:
                dfs(rest, nb)

    # the search reads constants off the patterns, so binding each to itself
    # up front only puts it in the results
    dfs(list(range(n)), {c: c for c in q.constants})
    return results


# The reference for enumerate_useful_partial: the exhaustive search and the
# candidate validator as they stood before the search tracked its matched
# sets itself, kept verbatim apart from the names of the two public functions,
# the package prefix on types, and the last step, which reports each result
# as its images over ``nodes`` and its matched set as a bit mask. Every leaf
# is re-checked against the three useful-partial rules and its matched set
# recomputed from the segment.
def _matched_under(
    triples: tuple[sg.TriplePattern, ...],
    full: dict[sg.Term, sg.Term],
    segment: sg.DataGraph,
) -> frozenset[int]:
    matched = set()
    for i, t in enumerate(triples):
        sv = full.get(t.s) if t.s.is_variable else (t.s if t.s in full else None)
        ov = full.get(t.o) if t.o.is_variable else (t.o if t.o in full else None)
        if sv is None or ov is None or sv.is_literal:
            continue
        if DataTriple(sv, t.p, ov) in segment:
            matched.add(i)
    return frozenset(matched)


def _validate_partial(
    sub: sg.Query,
    segment: sg.DataGraph,
    border: frozenset[sg.Term],
    full: dict[sg.Term, sg.Term],
) -> frozenset[int] | None:
    """Useful-partial checks; returns the matched triple set or None."""
    triples = sub.canonical
    matched = _matched_under(triples, full, segment)
    if not matched:
        return None
    # every constant of the subquery present in the segment must be bound
    seg_nodes = segment.nodes
    for c in sub.constants:
        if c in seg_nodes and c not in full:
            return None
    # every bound variable needs a matched triple as witness
    for node in full:
        if not node.is_variable:
            continue
        if not any(node in triples[i].nodes for i in matched):
            return None
    # bound nodes mapped outside border/literals must be fully matched here
    for node, img in full.items():
        if img.is_literal or img in border:
            continue
        for i, t in enumerate(triples):
            if node in t.nodes and i not in matched:
                return None
    return matched


def reference_useful_partials(
    sub: sg.Query, segment: sg.DataGraph, border: frozenset[sg.Term], nodes
) -> list[tuple[tuple, int]]:
    triples = sub.canonical
    seg_nodes = segment.nodes
    present_constants = [c for c in sorted(sub.constants) if c in seg_nodes]
    results: dict = {}

    def finalize(bindings: dict):
        full = dict(bindings)
        for c in present_constants:
            full[c] = c
        if not full:
            return
        key = frozenset(full.items())
        if key in results:
            return
        matched = _validate_partial(sub, segment, border, full)
        if matched is not None:
            results[key] = (images_over(nodes, full), mask_of(matched))

    def dfs(i: int, bindings: dict):
        if i == len(triples):
            finalize(bindings)
            return
        dfs(i + 1, bindings)
        t = triples[i]
        for inst in candidates(
            segment, t, _value_of(t.s, bindings), _value_of(t.o, bindings)
        ):
            nb = _extended(bindings, t, inst)
            if nb is not None:
                dfs(i + 1, nb)

    dfs(0, {})
    return list(results.values())


def reference_is_useful(
    images: tuple, nodes, sub: sg.Query, segment: sg.DataGraph, border: frozenset[sg.Term]
) -> bool:
    """Check arbitrary images of nodes against the useful-partial conditions."""
    full = {n: v for n, v in zip(nodes, images) if v is not None}
    if not full:
        return False
    return _validate_partial(sub, segment, border, full) is not None


def d3(s, p, o):
    return sg.DataTriple(sg.term_from_token(s), sg.term_from_token(p), sg.term_from_token(o))


def nodes_of(q):
    return tuple(sorted(q.nodes))


NINE_GRAPH = sg.DataGraph(
    [d3("<c>", "<p1>", f"<c1{i}>") for i in (1, 2, 3)]
    + [d3("<c>", "<p2>", f"<c2{i}>") for i in (1, 2, 3)]
)
NINE_QUERY = sg.Query([q3("<c>", "<p1>", "?X"), q3("<c>", "<p2>", "?Y")])


_IRIS = [sg.iri(c) for c in "abcd"]
_LITERALS = [sg.literal("l1"), sg.literal("l2")]
_PREDICATES = [sg.iri("p"), sg.iri("q")]
_VARIABLES = [sg.variable(c) for c in "xyz"]


@st.composite
def useful_partial_cases(draw):
    """A small segment, a subquery over it and a border set. Two predicates
    force repeats, and patterns may use a third that the data lacks;
    subjects and objects share nodes, so self-loops occur in data and query
    alike; queries mix variables, IRIs and literals."""
    data = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_IRIS),
                st.sampled_from(_PREDICATES),
                st.sampled_from(_IRIS + _LITERALS),
            ),
            min_size=1,
            max_size=10,
        )
    )
    segment = sg.DataGraph(sg.DataTriple(s, p, o) for s, p, o in data)
    patterns = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_VARIABLES + _IRIS[:2]),
                st.sampled_from(_PREDICATES + [sg.iri("r")]),
                st.sampled_from(_VARIABLES + _IRIS[:2] + _LITERALS[:1]),
            ),
            min_size=1,
            max_size=4,
        )
    )
    sub = sg.Query(sg.TriplePattern(s, p, o) for s, p, o in patterns)
    border = frozenset(draw(st.sets(st.sampled_from(_IRIS))))
    return sub, segment, border


# ?y binds to a literal and is then a subject, which matches nothing; the
# strategy draws such a case in only some runs
_LITERAL_SUBJECT_CASE = (
    sg.Query([q3("?x", "<p>", "?y"), q3("?y", "<q>", "?z")]),
    sg.DataGraph([d3("<a>", "<p>", '"l1"'), d3("<a>", "<q>", "<b>")]),
    frozenset(),
)
# the constant makes the search start at the second canonical triple, so
# the totals come in ?y's order, not ?x's; random cases rarely show it
_FIXED_ORDER_CASE = (
    sg.Query([q3("?x", "<p>", "?y"), q3("?y", "<q>", "<a>")]),
    sg.DataGraph(
        [
            d3("<c>", "<p>", "<e>"), d3("<d>", "<p>", "<b>"),
            d3("<b>", "<q>", "<a>"), d3("<e>", "<q>", "<a>"),
        ]
    ),
    frozenset(),
)


class TestEnumerateTotal:
    def test_fixture_counts(
        self, bibliography, journal_article_query, supervisor_query, coauthor_query
    ):
        for q, count in (
            (journal_article_query, 2), (supervisor_query, 2), (coauthor_query, 1)
        ):
            assert len(sg.enumerate_total(q, bibliography, nodes_of(q))) == count

    def test_supervisor_bindings(self, bibliography, supervisor_query):
        rows = set(
            sg.enumerate_total(
                supervisor_query, bibliography, supervisor_query.output_pattern
            )
        )
        assert rows == {
            tuple(sg.term_from_token(t) for t in row)
            for row in (
                ("<Article1>", "<Person4>", "<Person1>", '"Title1"'),
                ("<Article2>", "<Person2>", "<Person3>", '"Title2"'),
            )
        }

    def test_total_embeddings_bind_every_node(self, bibliography, coauthor_query):
        # a constant maps to itself, and a node outside the query to None
        foreign = sg.variable("Foreign")
        nodes = nodes_of(coauthor_query) + (foreign,)
        totals = sg.enumerate_total(coauthor_query, bibliography, nodes)
        assert totals
        for images in totals:
            assert images[-1] is None
            for node, img in zip(nodes[:-1], images):
                assert img is not None
                if node.is_constant:
                    assert img == node

    def test_cartesian_star_product(self):
        assert len(sg.enumerate_total(NINE_QUERY, NINE_GRAPH, nodes_of(NINE_QUERY))) == 9
        left = sg.Query([q3("<c>", "<p1>", "?X")])
        right = sg.Query([q3("<c>", "<p2>", "?Y")])
        assert len(sg.enumerate_total(left, NINE_GRAPH, nodes_of(left))) == 3
        assert len(sg.enumerate_total(right, NINE_GRAPH, nodes_of(right))) == 3

    def test_no_answers_on_empty_intersection(self, bibliography):
        q = sg.Query([q3("?A", "<nope>", "?B")])
        assert sg.enumerate_total(q, bibliography, nodes_of(q)) == []

    @settings(max_examples=300, deadline=None)
    @given(useful_partial_cases())
    @example(_LITERAL_SUBJECT_CASE)
    @example(_FIXED_ORDER_CASE)
    def test_same_list_as_the_reference(self, case):
        sub, segment, _border = case
        nodes = nodes_of(sub) + (sg.variable("foreign"),)
        assert sg.enumerate_total(sub, segment, nodes) == reference_totals(
            sub, segment, nodes
        )


class TestUsefulPartials:
    def test_fragment_counts_per_subquery_and_segment(
        self, edge_split, supervisor_decomposition
    ):
        layout = sg.preprocess(supervisor_decomposition)
        counts = {}
        for i, sub in enumerate(layout.subqueries):
            for j, seg in enumerate(edge_split.segments):
                frags = enumerate_useful_partial(
                    sub, seg, edge_split.borders[j], layout.nodes
                )
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
            sub, edge_split.segments[0], edge_split.borders[0], layout.nodes
        )
        witness = images_over(
            layout.nodes,
            {
                sg.variable("A"): sg.iri("Article1"),
                sg.variable("P2"): sg.iri("Person4"),
            },
        )
        assert [e for e, _ in frags] == [witness]

    def test_matched_indexes_refer_to_canonical_order(
        self, edge_split, supervisor_decomposition
    ):
        layout = sg.preprocess(supervisor_decomposition)
        for sub in layout.subqueries:
            n = len(sub.canonical)
            for j, seg in enumerate(edge_split.segments):
                border = edge_split.borders[j]
                for e, matched in enumerate_useful_partial(
                    sub, seg, border, layout.nodes
                ):
                    assert 0 < matched < 1 << n
                    assert reference_is_useful(e, layout.nodes, sub, seg, border)

    def test_trivial_embedding_is_not_useful(self, edge_split, supervisor_decomposition):
        layout = sg.preprocess(supervisor_decomposition)
        assert not reference_is_useful(
            (None,) * len(layout.nodes),
            layout.nodes,
            layout.subqueries[0],
            edge_split.segments[0],
            edge_split.borders[0],
        )
        for sub in layout.subqueries:
            for j, seg in enumerate(edge_split.segments):
                for e, matched in enumerate_useful_partial(
                    sub, seg, edge_split.borders[j], layout.nodes
                ):
                    assert any(v is not None for v in e) and matched

    def test_closure_condition_rejects_halfbound_interior(self):
        # ?X maps to a node with two outgoing triples but only one matched,
        # and the image is neither border nor literal, so the partial is dead
        g = sg.DataGraph([d3("<a>", "<p>", "<b>"), d3("<a>", "<q>", "<c>")])
        sub = sg.Query([q3("?X", "<p>", "?Y"), q3("?X", "<q>", "?Z")])
        nodes = nodes_of(sub)
        e = images_over(
            nodes, {sg.variable("X"): sg.iri("a"), sg.variable("Y"): sg.iri("b")}
        )
        assert not reference_is_useful(e, nodes, sub, g, frozenset())
        assert e not in dict(enumerate_useful_partial(sub, g, frozenset(), nodes))
        # once the image sits on the border the closure requirement lifts
        on_border = frozenset({sg.iri("a")})
        assert reference_is_useful(e, nodes, sub, g, on_border)
        assert dict(enumerate_useful_partial(sub, g, on_border, nodes))[e] == 0b01

    def test_closure_rule_exempts_literals_and_border_nodes(self):
        # ?Y has two incident triples and only <p> matches here: bound to a
        # literal it stays useful, bound to a non-border IRI it is dropped
        # until that IRI is on the border
        sub = sg.Query([q3("?X", "<p>", "?Y"), q3("?Z", "<q>", "?Y")])
        nodes = nodes_of(sub)
        p_only = mask_of({sub.canonical.index(q3("?X", "<p>", "?Y"))})
        for y, useful_off_border in ((sg.literal("l"), True), (sg.iri("c"), False)):
            g = sg.DataGraph([DataTriple(sg.iri("a"), sg.iri("p"), y)])
            e = images_over(nodes, {sg.variable("X"): sg.iri("a"), sg.variable("Y"): y})
            for border in (frozenset(), frozenset({y})):
                useful = useful_off_border or y in border
                assert reference_is_useful(e, nodes, sub, g, border) == useful
                want = [(e, p_only)] if useful else []
                assert enumerate_useful_partial(sub, g, border, nodes) == want

    def test_one_node_layout_gives_one_tuples(self):
        # ?x <p> ?x has a one-node layout, the case where a projection by
        # itemgetter would return bare terms instead of 1-tuples
        q = sg.Query([q3("?x", "<p>", "?x")])
        g = sg.DataGraph([d3("<a>", "<p>", "<a>"), d3("<a>", "<p>", "<b>")])
        layout = sg.preprocess(sg.naive_decomposition(q))
        assert layout.nodes == (sg.variable("x"),)
        assert enumerate_useful_partial(q, g, frozenset(), layout.nodes) == [
            ((sg.iri("a"),), 0b1)
        ]
        data = sg.edge_random_partition(g, 2, seed=1)
        res = sg.run_qejpe(data, q, sg.naive_decomposition(q))
        assert res.answers == sg.oracle_answers(q, g)
        assert res.answers.rows

    def test_matched_set_includes_triples_a_path_skipped(self):
        # the search reaches {X->a, Y->b} first by skipping <p> and matching
        # <q>; <p> matches under those bindings too, so it must be reported
        g = sg.DataGraph([d3("<a>", "<p>", "<b>"), d3("<a>", "<q>", "<b>")])
        sub = sg.Query([q3("?X", "<p>", "?Y"), q3("?X", "<q>", "?Y")])
        nodes = nodes_of(sub)
        e = images_over(
            nodes, {sg.variable("X"): sg.iri("a"), sg.variable("Y"): sg.iri("b")}
        )
        assert enumerate_useful_partial(sub, g, frozenset(), nodes) == [(e, 0b11)]

    def test_all_constant_triple_is_matched_without_bindings(self):
        # <a> <p> <b> binds nothing, so the leaf with no variable bound is
        # useful once the non-border constant <a> has all its triples matched
        g = sg.DataGraph([d3("<a>", "<p>", "<b>"), d3("<a>", "<q>", "<c>")])
        sub = sg.Query([q3("<a>", "<p>", "<b>"), q3("<a>", "<q>", "?Y")])
        nodes = nodes_of(sub)
        consts = {sg.iri("a"): sg.iri("a"), sg.iri("b"): sg.iri("b")}
        whole = images_over(nodes, {**consts, sg.variable("Y"): sg.iri("c")})
        assert enumerate_useful_partial(sub, g, frozenset(), nodes) == [(whole, 0b11)]
        on_border = enumerate_useful_partial(sub, g, frozenset({sg.iri("a")}), nodes)
        assert on_border == [(images_over(nodes, consts), 0b01), (whole, 0b11)]
        # with <b> missing from the segment the constant triple cannot match,
        # and <b> is left unbound
        g2 = sg.DataGraph([d3("<a>", "<q>", "<c>")])
        partial = images_over(
            nodes, {sg.iri("a"): sg.iri("a"), sg.variable("Y"): sg.iri("c")}
        )
        assert enumerate_useful_partial(sub, g2, frozenset(), nodes) == []
        assert enumerate_useful_partial(sub, g2, frozenset({sg.iri("a")}), nodes) == [
            (partial, 0b10)
        ]

    def test_images_follow_the_given_node_order(self, edge_split, supervisor_decomposition):
        # the same fragments over a reversed order with a foreign node added
        layout = sg.preprocess(supervisor_decomposition)
        flipped = (sg.variable("Foreign"),) + layout.nodes[::-1]
        for sub in layout.subqueries:
            for seg, border in zip(edge_split.segments, edge_split.borders):
                want = [
                    ((None,) + images[::-1], matched)
                    for images, matched in enumerate_useful_partial(
                        sub, seg, border, layout.nodes
                    )
                ]
                assert enumerate_useful_partial(sub, seg, border, flipped) == want


class TestUsefulPartialsAgainstReference:
    @settings(max_examples=300, deadline=None)
    @given(useful_partial_cases())
    @example(_LITERAL_SUBJECT_CASE)
    def test_same_pairs_as_the_reference(self, case):
        sub, segment, border = case
        nodes = nodes_of(sub)
        got = enumerate_useful_partial(sub, segment, border, nodes)
        want = reference_useful_partials(sub, segment, border, nodes)
        assert len(got) == len(set(got))
        assert set(got) == set(want)

    def test_fixture_pairs_match_the_reference(
        self, edge_split, supervisor_decomposition, coauthor_cover_decomposition
    ):
        for dec in (supervisor_decomposition, coauthor_cover_decomposition):
            nodes = sg.preprocess(dec).nodes
            for sub in dec.subqueries:
                for seg, border in zip(edge_split.segments, edge_split.borders):
                    got = enumerate_useful_partial(sub, seg, border, nodes)
                    want = reference_useful_partials(sub, seg, border, nodes)
                    assert set(got) == set(want)


class TestLayout:
    def test_fixture_layout(self, supervisor_decomposition):
        layout = sg.preprocess(supervisor_decomposition)
        assert layout.border_nodes == (
            sg.variable("A"), sg.variable("P1"), sg.variable("P2")
        )
        assert layout.nodes[3:] == (sg.iri("Journal1"), sg.variable("T"))
        assert layout.common_border == ()
        assert layout.missing_border == (
            (sg.variable("A"), 2),
            (sg.variable("P1"), 1),
            (sg.variable("P2"), 0),
        )
        index = {t: i for i, t in enumerate(layout.query.canonical)}
        for sub in layout.subqueries:
            assert all(t in index for t in sub.canonical)

    def test_border_sets_exclude_literals(self, coauthor_cover_decomposition):
        layout = sg.preprocess(coauthor_cover_decomposition)
        assert all(not n.is_literal for n in layout.border_nodes)
        assert layout.common_border == (sg.variable("P1"),)
        assert layout.missing_border == (
            (sg.variable("A"), 1),
            (sg.variable("J"), 2),
        )

    def test_nodes_put_the_border_first(
        self, supervisor_decomposition, coauthor_cover_decomposition
    ):
        for dec in (supervisor_decomposition, coauthor_cover_decomposition):
            layout = sg.preprocess(dec)
            k = len(layout.border_nodes)
            assert layout.nodes[:k] == layout.border_nodes
            rest = dec.query.nodes - set(layout.border_nodes)
            assert layout.nodes[k:] == tuple(sorted(rest))
            assert set(layout.nodes) == dec.query.nodes
            for node, pos in layout.node_index.items():
                assert layout.nodes[pos] == node


def fragments_of(sub, data, nodes):
    """Every useful partial of sub in every segment, as join input: images
    as their IDs in the data decomposition's dictionary."""
    code = data.dictionary.ids.__getitem__
    return [
        (tuple(map(code, images)), matched)
        for seg, border in zip(data.segments, data.borders)
        for images, matched in enumerate_useful_partial(sub, seg, border, nodes)
    ]


def joined_totals(sub, data, nodes, **kwargs):
    """totals_from_fragments over sub's fragments, decoded to terms."""
    frags = fragments_of(sub, data, nodes)
    totals = totals_from_fragments(sub, frags, nodes, star_of(sub, nodes), **kwargs)
    return [data.dictionary.decode(ids) for ids in totals]


# The bibliography plus self-loops and a second predicate between articles
# and their authors, so the self-loop and repeated-neighbour stars below
# have answers.
EXTENDED_BIBLIOGRAPHY = BIBLIOGRAPHY + """\
<Article1> <cites> <Article1> .
<Article2> <cites> <Article2> .
<Article2> <cites> <Article1> .
<Article1> <reviewedBy> <Person1> .
<Article1> <reviewedBy> <Person3> .
<Article2> <reviewedBy> <Person2> .
"""

# name -> (subquery, its star centres)
JOIN_SHAPES = {
    "constant-centre": (
        "<Article1> <hasAuthor> ?P .\n<Article1> <title> ?T .",
        ("<Article1>",),
    ),
    "self-loop-at-centre": ("?A <cites> ?A .\n?A <hasAuthor> ?P .", ("?A",)),
    # one node: the star's projection reads a single position
    "self-loop-alone": ("?A <cites> ?A .", ("?A",)),
    "repeated-neighbour": (
        "?A <hasAuthor> ?P .\n?A <reviewedBy> ?P .\n?A <title> ?T .",
        ("?A",),
    ),
    "literal-centre": ('?A <year> ?Y .\n?B <year> ?Y .', ("?Y",)),
    "centreless-path": (
        "?A <publishedIn> ?J .\n?A <hasAuthor> ?P .\n?P <hasSupervisor> ?S .",
        (),
    ),
    "centreless-disconnected": ("?A <title> ?T .\n?P <hasSupervisor> ?S .", ()),
}


class TestTotalsFromFragments:
    def test_fixture_totals(self, bibliography, edge_split, supervisor_decomposition):
        layout = sg.preprocess(supervisor_decomposition)
        expected_counts = [5, 5, 2]
        for i, sub in enumerate(layout.subqueries):
            totals = joined_totals(sub, edge_split, layout.nodes)
            assert len(totals) == len(set(totals)) == expected_counts[i]
            assert set(totals) == set(
                sg.enumerate_total(sub, bibliography, layout.nodes)
            )

    def test_cap_guard(self, edge_split, supervisor_decomposition):
        layout = sg.preprocess(supervisor_decomposition)
        with pytest.raises(sg.CartesianCapExceeded):
            joined_totals(layout.subqueries[0], edge_split, layout.nodes, cap=1)

    @pytest.mark.parametrize("shape", sorted(JOIN_SHAPES))
    def test_shape_totals_equal_enumerate_total(self, shape, bibliography, edge_split):
        text, centres = JOIN_SHAPES[shape]
        sub = sg.parse_query(text)
        assert sg.star_centers(sub) == tuple(map(sg.term_from_token, centres))
        extended = sg.parse_data(EXTENDED_BIBLIOGRAPHY)
        cases = [
            (bibliography, edge_split),
            (extended, sg.edge_random_partition(extended, 3, seed=5)),
        ]
        nodes = nodes_of(sub)
        star = star_of(sub, nodes)
        for graph, data in cases:
            got = joined_totals(sub, data, nodes)
            want = sg.enumerate_total(sub, graph, nodes)
            assert len(got) == len(set(got))
            assert set(got) == set(want)
            if star is not None and want:
                # a star's cap bounds the totals of one image of its centre
                at = star.centre
                largest = max(Counter(total[at] for total in want).values())
                assert len(joined_totals(sub, data, nodes, cap=largest)) == len(want)
                with pytest.raises(sg.CartesianCapExceeded):
                    joined_totals(sub, data, nodes, cap=largest - 1)
        # the extended graph gives every shape some totals
        assert want

    def test_fragments_with_different_centre_images_do_not_join(self):
        # ?C is the only centre; both fragments bind ?X and <k> alike
        sub = sg.Query(
            [q3("?C", "<p>", "?X"), q3("?C", "<q>", "?X"), q3("?C", "<r>", "<k>")]
        )
        assert sg.star_centers(sub) == (sg.variable("C"),)
        nodes = (sg.variable("C"), sg.variable("X"), sg.iri("k"))
        star = star_of(sub, nodes)

        def frag(centre, matched):
            return (centre, 7, 9), mask_of(matched)

        first, other_centre = frag(1, {0, 2}), frag(2, {1})
        assert totals_from_fragments(sub, [first, other_centre], nodes, star) == []
        same_centre = frag(1, {1})
        assert totals_from_fragments(
            sub, [first, other_centre, same_centre], nodes, star
        ) == [first[0]]

    def test_cap_counts_totals_per_centre_image(self):
        # one total per centre image stays under cap 1; two totals for one
        # image exceed it
        sub = sg.Query([q3("?C", "<p>", "?X"), q3("?C", "<q>", "?Y")])
        assert sg.star_centers(sub) == (sg.variable("C"),)
        nodes = tuple(sg.variable(v) for v in "CXY")
        star = star_of(sub, nodes)

        def frag(centre, x_image):
            return (centre, x_image, 100), 0b11

        frags = [frag(1, 5), frag(2, 5)]
        assert len(totals_from_fragments(sub, frags, nodes, star, cap=1)) == 2
        frags.append(frag(1, 6))
        with pytest.raises(
            sg.CartesianCapExceeded,
            match="star join exceeded 1 embeddings for one centre image",
        ):
            totals_from_fragments(sub, frags, nodes, star, cap=1)

    def test_centre_image_missing_a_triple_is_dropped_before_the_join(self):
        # centre 1's fragments all miss triple 1: there are more of them than
        # cap, yet the image yields no total and raises nothing, because it
        # is dropped before its join; centre 2 has one full fragment and
        # centre 3 two that cover both triples only together
        sub = sg.Query([q3("?C", "<p>", "?X"), q3("?C", "<q>", "?Y")])
        assert sg.star_centers(sub) == (sg.variable("C"),)
        nodes = tuple(sg.variable(v) for v in "CXY")
        star = star_of(sub, nodes)
        missing = [((1, x, UNBOUND), 0b01) for x in (5, 6, 7)]
        full = ((2, 5, 6), 0b11)
        halves = [((3, 5, UNBOUND), 0b01), ((3, UNBOUND, 6), 0b10)]
        frags = missing + [full] + halves
        assert totals_from_fragments(sub, frags, nodes, star, cap=1) == [
            (2, 5, 6), (3, 5, 6)
        ]
        # once another fragment completes centre 1's cover, its join exceeds cap
        frags = missing + [((1, 5, 8), 0b10)]
        with pytest.raises(sg.CartesianCapExceeded):
            totals_from_fragments(sub, frags, nodes, star, cap=1)

    def test_shared_far_node_drops_unmatched_images_before_the_join(self):
        # <p> and <q> both reach ?X; only X images 10 and 11 are matched by
        # both, 11 through one fragment of both triples, so the ten <p>
        # fragments with other images never become states and cap 2 holds
        sub = sg.Query(
            [q3("?C", "<p>", "?X"), q3("?C", "<q>", "?X"), q3("?C", "<r>", "?Y")]
        )
        nodes = tuple(sg.variable(v) for v in "CXY")
        star = star_of(sub, nodes)
        p_only = [((1, x, UNBOUND), 0b001) for x in (10, *range(12, 22))]
        frags = p_only + [
            ((1, 10, UNBOUND), 0b010),
            ((1, 11, UNBOUND), 0b011),
            ((1, UNBOUND, 5), 0b100),
        ]
        assert totals_from_fragments(sub, frags, nodes, star, cap=2) == [
            (1, 10, 5), (1, 11, 5)
        ]
        # without <q>'s image 10 only the two-triple fragment joins
        del frags[len(p_only)]
        assert totals_from_fragments(sub, frags, nodes, star, cap=1) == [(1, 11, 5)]

    def test_unbound_positions_fill_and_foreign_nodes_stay_unbound(self):
        # each fragment leaves the other's leaf UNBOUND; ?F is not in sub
        sub = sg.Query([q3("?C", "<p>", "?X"), q3("?C", "<q>", "?Y")])
        nodes = tuple(sg.variable(v) for v in "YFCX")
        star = star_of(sub, nodes)
        x_side = ((UNBOUND, UNBOUND, 1, 5), 0b01)
        y_side = ((6, UNBOUND, 1, UNBOUND), 0b10)
        clash = ((6, UNBOUND, 1, 8), 0b10)
        frags = [x_side, y_side, clash]
        assert totals_from_fragments(sub, frags, nodes, star) == [(6, UNBOUND, 1, 5)]


_ENDS = ("constant", "bound", "free")


class TestCandidates:
    @pytest.mark.parametrize("s_end", _ENDS)
    @pytest.mark.parametrize("o_end", _ENDS)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_candidates_agree_with_constant_and_bound_ends(self, s_end, o_end, data):
        # the references' _extended skips constant ends on the strength of
        # this: whatever candidates returns already carries each constant end
        # of the pattern
        triples = data.draw(
            st.lists(
                st.tuples(
                    st.sampled_from(_IRIS),
                    st.sampled_from(_PREDICATES),
                    st.sampled_from(_IRIS + _LITERALS),
                ),
                min_size=1,
                max_size=10,
            )
        )
        g = sg.DataGraph(sg.DataTriple(s, p, o) for s, p, o in triples)
        bindings = {}

        def end(kind, name, pool):
            if kind == "constant":
                return data.draw(st.sampled_from(pool))
            node = sg.variable(name)
            if kind == "bound":
                bindings[node] = data.draw(st.sampled_from(_IRIS + _LITERALS))
            return node

        t = sg.TriplePattern(
            end(s_end, "s", _IRIS),
            data.draw(st.sampled_from(_PREDICATES)),
            end(o_end, "o", _IRIS + _LITERALS),
        )
        s_val, o_val = _value_of(t.s, bindings), _value_of(t.o, bindings)
        got = candidates(g, t, s_val, o_val)
        for inst in got:
            assert inst in g and inst.p == t.p
            if t.s.is_constant:
                assert inst.s == t.s
            if t.o.is_constant:
                assert inst.o == t.o
        want = {
            inst
            for inst in g.canonical
            if inst.p == t.p
            and s_val in (None, inst.s)
            and o_val in (None, inst.o)
        }
        assert len(got) == len(set(got))
        assert set(got) == want
