"""Star-at-a-time evaluation with border witnesses."""

import itertools
from unittest import mock

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import stargraph as sg
from stargraph.embedding import star_totals
from stargraph.errors import NotADecomposition
from stargraph.model import UNBOUND
from stargraph.runtime import Emitter
from stargraph.stars import run_stars, stars_map1_records, stars_reduce1_fn

from conftest import q3


def t(token):
    return sg.term_from_token(token)


def centre_of(layout, sub_idx):
    """The node at the centre of the subquery's layout star."""
    return layout.nodes[layout.stars[sub_idx].centre]


def all_part1(layout, edge_split):
    grouped = {}
    for i in range(len(layout.subqueries)):
        for j, seg in enumerate(edge_split.segments):
            part1, _ = stars_map1_records(
                layout, i, seg, edge_split.borders[j], edge_split.dictionary
            )
            for key, val in part1:
                grouped.setdefault(key, []).append(val)
    return grouped


def decoded(split, record):
    """A stars record with its IDs decoded to terms."""
    key, val = record
    terms, decode = split.dictionary.terms, split.dictionary.decode
    if isinstance(key, tuple):  # part 1: ((sub, image), (k, image))
        return (key[0], terms[key[1]]), (val[0], terms[val[1]])
    return key, decode(val)  # a total: (sub, ids)


class TestMapRecords:
    def test_constant_center_star_in_one_segment(
        self, edge_split, coauthor_cover_decomposition
    ):
        layout = sg.preprocess(coauthor_cover_decomposition)
        part1, part2 = stars_map1_records(
            layout, 1, edge_split.segments[0], edge_split.borders[0],
            edge_split.dictionary,
        )
        assert [decoded(edge_split, r) for r in part1] == [
            ((1, t("<Article1>")), (0, t("<Person4>"))),
            ((1, t("<Article1>")), (2, t('"Title1"'))),
        ]
        assert part2 == []

    def test_whole_star_records_skip_border_images(
        self, edge_split, coauthor_cover_decomposition
    ):
        # Article3's star lives entirely inside segment 0 and its image is
        # off-border there, so it travels on the whole-star side
        layout = sg.preprocess(coauthor_cover_decomposition)
        _, part2 = stars_map1_records(
            layout, 0, edge_split.segments[0], edge_split.borders[0],
            edge_split.dictionary,
        )
        assert [decoded(edge_split, r) for r in part2] == [
            (0, (
                t("<Article3>"), t("<Journal2>"), t("<Person4>"),
                t('"2008"'), None, None, None,
            )),
        ]


def brute_force_part1(layout, sub_idx, segment, border, dictionary):
    """Part 1 by scanning every segment triple against every star triple."""
    sub, center = layout.subqueries[sub_idx], centre_of(layout, sub_idx)
    ids = dictionary.ids
    out = []
    for k, t in enumerate(sub.canonical):
        for inst in segment.triples:
            if inst.p != t.p or any(
                end.is_constant and end != img
                for end, img in ((t.s, inst.s), (t.o, inst.o))
            ):
                continue
            if t.s == center and t.o == center:
                if inst.s == inst.o and inst.s in border:
                    out.append(((sub_idx, ids[inst.s]), (k, ids[inst.s])))
            elif t.s == center:
                if inst.s in border:
                    out.append(((sub_idx, ids[inst.s]), (k, ids[inst.o])))
            elif inst.o in border or inst.o.is_literal:
                out.append(((sub_idx, ids[inst.o]), (k, ids[inst.s])))
    return out


# (segment of each data triple, star triples, centre). The centre's images
# that take part sit on the border, or are literals, and each case also has
# triples that part 1 must leave out.
PART1_CASES = {
    "self-loop-centre-on-a-border-node": (
        {
            "<a> <p> <a> .": 0, "<a> <p> <c> .": 0, "<c> <p> <c> .": 0,
            "<c> <p> <a> .": 0, "<a> <q> <b> .": 1, "<b> <p> <b> .": 1,
        },
        [("?x", "<p>", "?x"), ("?x", "<q>", "?y")],
        "?x",
    ),
    "constant-centre-with-a-constant-far-end": (
        {
            "<a> <q> <b> .": 0, "<a> <q> <c> .": 0, "<d> <q> <b> .": 0,
            "<a> <p> <e> .": 1, "<a> <q> <b2> .": 1,
        },
        [("<a>", "<q>", "<b>"), ("<a>", "<p>", "?z")],
        "<a>",
    ),
    "literal-centre": (
        {
            '<a> <p> "v" .': 0, '<b> <r> "v" .': 0, '<c> <p> "w" .': 0,
            '<a> <r> "v" .': 1, '<b> <p> "w" .': 1,
        },
        [("?x", "<p>", "?y"), ("<b>", "<r>", "?y")],
        "?y",
    ),
}


@pytest.mark.parametrize("case", sorted(PART1_CASES))
def test_part1_equals_a_scan_of_the_segment(case):
    assignment, star, centre = PART1_CASES[case]
    g = sg.parse_data("".join(line + "\n" for line in assignment))
    split = sg.from_edge_assignment(g, assignment)
    q = sg.Query([q3(*t) for t in star])
    dec = sg.QueryDecomposition(q, (q,), (t(centre),), "handmade")
    layout = sg.preprocess(dec)
    assert centre_of(layout, 0) == t(centre)
    found = 0
    for j, seg in enumerate(split.segments):
        part1, _ = stars_map1_records(
            layout, 0, seg, split.borders[j], split.dictionary
        )
        want = brute_force_part1(
            layout, 0, seg, split.borders[j], split.dictionary
        )
        assert sorted(part1) == sorted(want)
        found += len(part1)
    assert found


class TestReduce:
    def run_key(self, layout, grouped, key, split):
        """The reducer's records for a (subquery, central term) key, decoded."""
        sub_idx, img = key
        key = (sub_idx, split.dictionary.ids[img])
        em = Emitter()
        fn = stars_reduce1_fn(layout)
        fn(key, sorted(grouped.get(key, [])), em)
        return [decoded(split, r) for r in em.records]

    def test_witness_assembly_for_constant_center(
        self, edge_split, coauthor_cover_decomposition
    ):
        layout = sg.preprocess(coauthor_cover_decomposition)
        grouped = all_part1(layout, edge_split)
        key = (1, t("<Article1>"))
        witnesses = {}
        for k, other in grouped[(1, edge_split.dictionary.ids[key[1]])]:
            witnesses.setdefault(k, set()).add(edge_split.dictionary.terms[other])
        assert witnesses == {
            0: {t("<Person1>"), t("<Person2>"), t("<Person4>")},
            1: {t("<Journal1>")},
            2: {t('"Title1"')},
        }
        records = self.run_key(layout, grouped, key, edge_split)
        assert len(records) == 3
        j = layout.node_index[sg.variable("J")]
        assert {(k, images[j]) for k, images in records} == {(1, t("<Journal1>"))}

    def test_variable_center_assembly(self, edge_split, coauthor_cover_decomposition):
        layout = sg.preprocess(coauthor_cover_decomposition)
        grouped = all_part1(layout, edge_split)
        records = self.run_key(layout, grouped, (0, t("<Article2>")), edge_split)
        assert len(records) == 2
        a, j = (layout.node_index[sg.variable(n)] for n in ("A", "J"))
        assert {(k, images[a], images[j]) for k, images in records} == {
            (0, t("<Article2>"), t("<Journal1>"))
        }

    def test_missing_triple_kills_the_image(
        self, edge_split, coauthor_cover_decomposition
    ):
        layout = sg.preprocess(coauthor_cover_decomposition)
        grouped = all_part1(layout, edge_split)
        # Article1 never matches the year triple of the first star
        assert self.run_key(layout, grouped, (0, t("<Article1>")), edge_split) == []
        # Person4 collects hasAuthor witnesses but no supervision pair
        assert self.run_key(layout, grouped, (2, t("<Person4>")), edge_split) == []


def reference_reduce1(layout, key, values):
    """The totals of one part-1 key by witness intersection: per non-central
    node, the intersection of the far-end witnesses of its triples, then
    their cartesian product. A self-loop only has to be witnessed."""
    sub_idx, img = key
    sub, center = layout.subqueries[sub_idx], centre_of(layout, sub_idx)
    witnesses = {}
    for k, other in values:
        witnesses.setdefault(k, set()).add(other)
    if any(k not in witnesses for k in range(len(sub.canonical))):
        return set()
    node_order = [n for n in sorted(sub.nodes) if n != center]
    pools = []
    for node in node_order:
        pool = None
        for k, t in enumerate(sub.canonical):
            if node in t.nodes and not (t.s == center and t.o == center):
                pool = witnesses[k] if pool is None else pool & witnesses[k]
        if not pool:
            return set()
        pools.append(pool)
    vector = [UNBOUND] * len(layout.nodes)
    vector[layout.node_index[center]] = img
    slots = [layout.node_index[node] for node in node_order]
    totals = set()
    for combo in itertools.product(*pools):
        for pos, u in zip(slots, combo):
            vector[pos] = u
        totals.add(tuple(vector))
    return totals


@st.composite
def star_keys(draw):
    """A star (centre token, triple tokens) and one part-1 key's witnesses:
    the central image's ID and (k, far-end ID) pairs over a few IDs, so
    witnesses repeat as replicated triples make them. A self-loop's witness
    is the central image itself, as part 1 emits it."""
    centre = draw(st.sampled_from(["?c", "<c>", '"c"']))
    triples = set()
    for _ in range(draw(st.integers(1, 4))):
        p = draw(st.sampled_from(["<p>", "<q>"]))
        # a literal is never a subject, so a literal centre only has in-triples
        shapes = ["in"] if centre == '"c"' else ["out", "in", "loop"]
        shape = draw(st.sampled_from(shapes))
        if shape == "loop":
            triples.add((centre, p, centre))
        elif shape == "out":
            far = draw(st.sampled_from(["?x", "?y", "<k>", '"v"']))
            triples.add((centre, p, far))
        else:
            triples.add((draw(st.sampled_from(["?x", "?y", "<k>"])), p, centre))
    img = draw(st.integers(0, 3))
    witness = st.tuples(st.integers(0, len(triples) - 1), st.integers(0, 3))
    values = draw(st.lists(witness, max_size=12))
    return centre, sorted(triples), img, values


def star_layout(centre, triples):
    """A layout of the star as subquery 0 beside a second, disjoint star,
    so the vectors have positions the first star leaves unbound."""
    star = sg.Query([q3(*tr) for tr in triples])
    other = sg.Query([q3("?z", "<r>", "?w")])
    q = sg.Query(star.triples | other.triples)
    dec = sg.QueryDecomposition(q, (star, other), (t(centre), t("?z")), "handmade")
    return sg.preprocess(dec)


def self_loops_witness_the_centre(layout, img, values):
    sub, center = layout.subqueries[0], centre_of(layout, 0)
    loops = {
        k for k, tr in enumerate(sub.canonical) if tr.s == center and tr.o == center
    }
    return [(k, img if k in loops else other) for k, other in values]


class TestReduceAgainstReference:
    @given(star_keys())
    # a centre self-loop beside a far end
    @example(("?c", [("?c", "<p>", "?c"), ("?c", "<q>", "?x")], 1,
              [(0, 1), (1, 2), (1, 3)]))
    # a non-central node shared by an out- and an in-triple
    @example(("?c", [("?c", "<p>", "?x"), ("?x", "<q>", "?c")], 0,
              [(0, 1), (0, 2), (1, 2), (1, 3)]))
    # constant far ends, one of them a literal
    @example(("?c", [("?c", "<p>", "<k>"), ("?c", "<q>", '"v"')], 0,
              [(0, 2), (1, 3)]))
    # a literal centre
    @example(('"c"', [("<k>", "<q>", '"c"'), ("?x", "<p>", '"c"')], 2,
              [(0, 1), (1, 0), (1, 3)]))
    # the same witnesses twice, as a vertex-hash partition replicates them
    @example(("?c", [("?c", "<p>", "?x"), ("?c", "<q>", "?y")], 0,
              [(0, 1), (1, 2), (0, 1), (1, 2), (1, 3)]))
    # a triple without a witness
    @example(("?c", [("?c", "<p>", "?x"), ("?c", "<q>", "?y")], 0,
              [(0, 1), (0, 2), (0, 3)]))
    def test_totals_equal_the_witness_intersection(self, case):
        centre, triples, img, values = case
        layout = star_layout(centre, triples)
        values = self_loops_witness_the_centre(layout, img, values)
        n = len(layout.subqueries[0].canonical)
        joined = []

        def spy(img, witnessed, *args):
            joined.append(witnessed)
            return star_totals(img, witnessed, *args)

        em = Emitter()
        with mock.patch("stargraph.stars.star_totals", spy):
            stars_reduce1_fn(layout)((0, img), values, em)
        want = reference_reduce1(layout, (0, img), values)
        assert [key for key, _ in em.records] == [0] * len(em.records)
        assert {ids for _, ids in em.records} == want
        assert len(em.records) == len(want)
        # the product is reached only for a key whose witnesses cover every
        # triple, with each triple's distinct witnesses
        assert len(joined) == int({k for k, _ in values} == set(range(n)))
        for witnessed in joined:
            assert witnessed == [
                {other for k, other in values if k == i} for i in range(n)
            ]
        # the witness-intersection reducer raised when its product, the
        # number of totals, exceeded the cap; so does star_totals
        stars_reduce1_fn(layout, cap=len(want))((0, img), values, Emitter())
        if want:
            with pytest.raises(sg.CartesianCapExceeded):
                stars_reduce1_fn(layout, cap=len(want) - 1)(
                    (0, img), values, Emitter()
                )

    def test_shared_node_star_under_the_cap_answers(self):
        # ?x's witnesses for <a> and <c> meet in one image: two totals, while
        # joining <a> and <b> before <c> filters them would hold 4 x 2 states
        triples = [("?c", "<a>", "?x"), ("?c", "<b>", "?y"), ("?c", "<c>", "?x")]
        layout = star_layout("?c", triples)
        assert [tr.p for tr in layout.subqueries[0].canonical] == [
            t("<a>"), t("<b>"), t("<c>")
        ]
        values = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (2, 2)]
        want = reference_reduce1(layout, (0, 5), values)
        assert len(want) == 2
        em = Emitter()
        stars_reduce1_fn(layout, cap=2)((0, 5), values, em)
        assert {ids for _, ids in em.records} == want


class TestRunStars:
    def test_fixture_answer(
        self, bibliography, edge_split, coauthor_query, coauthor_cover_decomposition
    ):
        res = run_stars(edge_split, coauthor_query, coauthor_cover_decomposition)
        assert res.algorithm == "stars"
        assert res.answers == sg.oracle_answers(coauthor_query, bibliography)
        assert len(res.answers.rows) == 1
        assert res.subquery_embeddings == {0: 3, 1: 3, 2: 2}

    def test_answer_bindings(self, edge_split, coauthor_query, coauthor_cover_decomposition):
        res = run_stars(edge_split, coauthor_query, coauthor_cover_decomposition)
        assert res.answers.variables == tuple(
            sg.variable(v) for v in ("A", "P1", "P2", "J", "T")
        )
        assert res.answers.rows == (
            (
                t("<Article2>"),
                t("<Person2>"),
                t("<Person3>"),
                t("<Journal1>"),
                t('"Title1"'),
            ),
        )

    def test_every_decomposer_agrees_with_the_oracle(
        self, bibliography, edge_split, supervisor_query
    ):
        want = sg.oracle_answers(supervisor_query, bibliography)
        for name, make in sg.DECOMPOSERS.items():
            res = run_stars(edge_split, supervisor_query, make(supervisor_query))
            assert res.answers == want, name

    def test_literal_central_images_travel_by_witness(self):
        g = sg.parse_data('<a> <p> "v" .\n<b> <p> "v" .\n')
        q = sg.Query([q3("?x", "<p>", "?y"), q3("?z", "<p>", "?y")])
        dec = sg.QueryDecomposition(
            q,
            (sg.Query([q3("?x", "<p>", "?y")]), sg.Query([q3("?z", "<p>", "?y")])),
            (sg.variable("y"), sg.variable("y")),
            "handmade",
        )
        split = sg.edge_random_partition(g, 2, seed=3)
        assert all(len(seg) == 1 for seg in split.segments)
        res = run_stars(split, q, dec)
        assert res.answers == sg.oracle_answers(q, g)
        assert len(res.answers.rows) == 4

    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_worker_count_is_invisible(
        self, edge_split, coauthor_query, coauthor_cover_decomposition, workers
    ):
        base = run_stars(edge_split, coauthor_query, coauthor_cover_decomposition)
        res = run_stars(
            edge_split, coauthor_query, coauthor_cover_decomposition, workers=workers
        )
        assert res.answers.to_tsv() == base.answers.to_tsv()

    def test_cap_trips(self, edge_split, coauthor_query, coauthor_cover_decomposition):
        with pytest.raises(sg.CartesianCapExceeded):
            run_stars(
                edge_split,
                coauthor_query,
                coauthor_cover_decomposition,
                cartesian_cap=1,
            )

    def test_foreign_decomposition_rejected(
        self, edge_split, supervisor_query, coauthor_cover_decomposition
    ):
        with pytest.raises(NotADecomposition):
            run_stars(edge_split, supervisor_query, coauthor_cover_decomposition)


class TestLayoutStars:
    """``preprocess`` decides each subquery's centre once, in its layout's
    stars, for both engines that read one."""

    def test_recorded_centers_win(self, coauthor_cover_decomposition):
        layout = sg.preprocess(coauthor_cover_decomposition)
        assert tuple(centre_of(layout, i) for i in range(3)) == (
            sg.variable("A"),
            sg.iri("Article1"),
            sg.variable("P2"),
        )

    def test_invalid_recorded_center_falls_back(self):
        q = sg.Query([q3("?x", "<p>", "?y"), q3("?z", "<p>", "?y")])
        dec = sg.QueryDecomposition(q, (q,), (sg.variable("x"),), "handmade")
        assert centre_of(sg.preprocess(dec), 0) == sg.variable("y")

    def test_so_center_preferred_over_plain_star_center(self):
        # both endpoints center the single triple; the subject keeps the
        # star outgoing so it wins the fallback
        q = sg.Query([q3("?x", "<p>", "?y")])
        dec = sg.QueryDecomposition(q, (q,), (None,), "handmade")
        assert centre_of(sg.preprocess(dec), 0) == sg.variable("x")

    def test_non_star_subquery_rejected(self, edge_split):
        path = sg.Query(
            [q3("?a", "<p>", "?b"), q3("?b", "<p>", "?c"), q3("?c", "<p>", "?d")]
        )
        dec = sg.QueryDecomposition(path, (path,), (None,), "handmade")
        assert sg.preprocess(dec).stars == (None,)
        # rejected before any job runs
        with mock.patch("stargraph.stars.run_job", side_effect=AssertionError):
            with pytest.raises(
                NotADecomposition,
                match="stars evaluation needs star-shaped subqueries",
            ):
                run_stars(edge_split, path, dec)
