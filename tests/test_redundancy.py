"""Single-shuffle evaluation over replicated node partitions."""

import pytest

import stargraph as sg
from stargraph.errors import (
    NotADecomposition,
    NotAnSDecomposition,
    NotSoDecomposition,
)
from stargraph.redundancy import red_map1_records, run_redundancy
from stargraph.evalcore import join_job
from stargraph.runtime import Emitter

from conftest import decode


def t(token):
    return sg.term_from_token(token)


def join_records(layout, records):
    """The records evalcore's final join maps phase-1 totals to."""
    em = Emitter()
    fn = join_job(layout).map_fn
    for sub_idx, ids in records:
        fn(sub_idx, ids, em)
    return em.records


def collect(layout, data):
    """The final join's groups of every subquery's totals over the whole
    graph, each total once, as the join reads them."""
    code = data.dictionary.ids.__getitem__
    records = [
        (i, tuple(map(code, images)))
        for i, sub in enumerate(layout.subqueries)
        for images in sg.enumerate_total(sub, data.graph, layout.nodes)
    ]
    grouped = {}
    for key, val in join_records(layout, records):
        grouped.setdefault(key, []).append(val)
    return grouped


def so_centre(layout, sub_idx):
    """The layout position of a subquery's so-centre, as run_redundancy
    picks it."""
    return layout.node_index[sg.so_centers(layout.subqueries[sub_idx])[0]]


def owned(layout, sub_idx, data, j):
    """The records segment j of ``data`` ships for one subquery."""
    return red_map1_records(
        layout, sub_idx, so_centre(layout, sub_idx), data.segments[j],
        data.node_blocks[j], data.dictionary,
    )


def is_total(record, layout, sub_idx):
    """A (subquery, ids) total over the layout's nodes."""
    key, ids = record
    return key == sub_idx and len(ids) == len(layout.nodes)


class TestMapRecords:
    def test_per_segment_totals(self, node_split, supervisor_decomposition):
        layout = sg.preprocess(supervisor_decomposition)
        counts = {}
        for i, sub in enumerate(layout.subqueries):
            shipped = []
            for j in range(len(node_split)):
                records = owned(layout, i, node_split, j)
                assert all(is_total(r, layout, i) for r in records)
                counts[(i, j)] = len(records)
                shipped += [ids for _, ids in records]
            # the segments' owned totals are the subquery's totals, each once
            code = node_split.dictionary.ids.__getitem__
            assert sorted(shipped) == sorted(
                tuple(map(code, images))
                for images in sg.enumerate_total(sub, node_split.graph, layout.nodes)
            )
        assert counts == {
            (0, 0): 3, (0, 1): 0, (0, 2): 2,
            (1, 0): 3, (1, 1): 0, (1, 2): 2,
            (2, 0): 1, (2, 1): 1, (2, 2): 0,
        }

    def test_keys_carry_common_border_values(
        self, node_split, coauthor_cover_decomposition
    ):
        # this layout has missing border pairs, so the final join keys each
        # total by the images of the common border alone
        layout = sg.preprocess(coauthor_cover_decomposition)
        assert layout.common_border == (sg.variable("P1"),)
        records = owned(layout, 1, node_split, 0)
        joined = join_records(layout, records)
        assert all(sub_idx == 1 for _, (sub_idx, _ids) in joined)
        assert sorted({decode(node_split.dictionary, key) for key, _ in joined}) == [
            (t("<Person1>"),), (t("<Person2>"),), (t("<Person4>"),),
        ]

    def test_a_replicated_total_ships_from_its_centre_block_alone(
        self, node_split, supervisor_decomposition
    ):
        # the supervision edge Person4 -> Person1 is replicated into segments
        # 0 and 1, so both find the third subquery's total through it, but
        # only segment 0, whose block holds the so-centre image Person4,
        # ships it
        layout = sg.preprocess(supervisor_decomposition)
        ids = node_split.dictionary.ids
        centre = so_centre(layout, 2)
        assert layout.nodes[centre] == sg.variable("P1")
        person4 = ids[t("<Person4>")]
        found = [
            j for j, seg in enumerate(node_split.segments)
            for images in sg.enumerate_total(
                layout.subqueries[2], seg, layout.nodes
            )
            if images[centre] == t("<Person4>")
        ]
        assert found == [0, 1]
        shipped = [
            j for j in range(len(node_split))
            for _, total in owned(layout, 2, node_split, j)
            if total[centre] == person4
        ]
        assert shipped == [0]
        assert t("<Person4>") in node_split.node_blocks[0]

    def test_ground_borders_route_straight_to_the_join(self, bibliography, node_split):
        # a decomposition whose single subquery holds every border node has
        # every border image bound in every total
        q = sg.parse_query("?A <hasAuthor> ?P .\n?A <title> ?T .\n")
        dec = sg.naive_decomposition(q)
        layout = sg.preprocess(dec)
        assert layout.missing_border == ()
        records = owned(layout, 0, node_split, 0)
        assert len(records) == 3
        for sub_idx, ids in records:
            assert sub_idx == 0
            bnv = ids[: len(layout.border_nodes)]
            assert len(bnv) == len(layout.border_nodes)
            assert all(v is not None for v in decode(node_split.dictionary, bnv))


class TestCompletion:
    """Border values a subquery lacks are completed inside the final join's
    group of their common-border images, from the other subqueries' totals."""

    def fill(self, node_split, layout, grouped, person):
        key = (node_split.dictionary.ids[t(person)],)
        em = Emitter()
        join_job(layout).reduce_fn(key, sorted(grouped[key]), em)
        return sorted(decode(node_split.dictionary, row) for row, _ in em.records)

    def test_border_holes_fill_from_candidates(
        self, node_split, coauthor_query, coauthor_cover_decomposition
    ):
        # ?A is missing from subquery 1 and held by subqueries 0 and 2, and
        # both offer Article2 with ?P1 = Person2
        layout = sg.preprocess(coauthor_cover_decomposition)
        grouped = collect(layout, node_split)
        assert coauthor_query.output_pattern == tuple(
            map(sg.variable, ("A", "P1", "P2", "J", "T"))
        )
        assert self.fill(node_split, layout, grouped, "<Person2>") == [
            (t("<Article2>"), t("<Person2>"), t("<Person3>"), t("<Journal1>"),
             t('"Title1"')),
        ]

    def test_a_value_one_owner_lacks_fills_nothing(
        self, node_split, coauthor_cover_decomposition
    ):
        # with ?P1 = Person4, subquery 0 offers ?A = Article3 but not
        # Article1 (Article1 has no year), and subquery 2 offers Article1
        # but not Article3 (Person4's supervisor did not write Article3)
        layout = sg.preprocess(coauthor_cover_decomposition)
        grouped = collect(layout, node_split)
        assert self.fill(node_split, layout, grouped, "<Person4>") == []


class TestRunRedundancy:
    def test_fixture_answer(self, bibliography, node_split, coauthor_query):
        dec = sg.max_degree_decomposition(coauthor_query)
        res = run_redundancy(node_split, coauthor_query, dec)
        assert res.algorithm == "redundancy"
        assert res.answers == sg.oracle_answers(coauthor_query, bibliography)
        assert res.answers.rows == (
            (
                t("<Article2>"),
                t("<Person2>"),
                t("<Person3>"),
                t("<Journal1>"),
                t('"Title1"'),
            ),
        )

    def test_every_so_decomposer_agrees_with_the_oracle(
        self, bibliography, node_split, supervisor_query
    ):
        want = sg.oracle_answers(supervisor_query, bibliography)
        for name, make in sg.DECOMPOSERS.items():
            res = run_redundancy(node_split, supervisor_query, make(supervisor_query))
            assert res.answers == want, name

    def test_counts_are_each_total_once(
        self, bibliography, node_split, supervisor_query, supervisor_decomposition
    ):
        res = run_redundancy(node_split, supervisor_query, supervisor_decomposition)
        layout = sg.preprocess(supervisor_decomposition)
        for i, sub in enumerate(layout.subqueries):
            assert res.subquery_embeddings[i] == len(
                sg.enumerate_total(sub, bibliography, layout.nodes)
            )

    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_worker_count_is_invisible(
        self, node_split, coauthor_query, workers
    ):
        dec = sg.max_degree_decomposition(coauthor_query)
        base = run_redundancy(node_split, coauthor_query, dec)
        res = run_redundancy(node_split, coauthor_query, dec, workers=workers)
        assert res.answers.to_tsv() == base.answers.to_tsv()

    def test_edge_partition_rejected(self, edge_split, coauthor_query):
        dec = sg.max_degree_decomposition(coauthor_query)
        with pytest.raises(NotAnSDecomposition):
            run_redundancy(edge_split, coauthor_query, dec)

    def test_o_query_subquery_rejected(
        self, node_split, coauthor_query, coauthor_cover_decomposition
    ):
        with pytest.raises(NotSoDecomposition):
            run_redundancy(node_split, coauthor_query, coauthor_cover_decomposition)

    def test_foreign_decomposition_rejected(self, node_split, supervisor_query, coauthor_query):
        dec = sg.max_degree_decomposition(coauthor_query)
        with pytest.raises(NotADecomposition):
            run_redundancy(node_split, supervisor_query, dec)

    def test_foreign_decomposition_checked_before_partition_kind(
        self, edge_split, supervisor_query, coauthor_query
    ):
        # every engine checks the data and the decomposition first, in the
        # same order, before anything of its own
        dec = sg.max_degree_decomposition(coauthor_query)
        with pytest.raises(NotADecomposition):
            run_redundancy(edge_split, supervisor_query, dec)

    def test_cap_trips(self, node_split, coauthor_query):
        dec = sg.max_degree_decomposition(coauthor_query)
        with pytest.raises(sg.CartesianCapExceeded):
            run_redundancy(node_split, coauthor_query, dec, cartesian_cap=1)

    def test_stage_names(self, node_split, coauthor_query):
        dec = sg.max_degree_decomposition(coauthor_query)
        res = run_redundancy(node_split, coauthor_query, dec)
        assert [s["stage"] for s in res.stats] == ["segment-totals", "join-answers"]

    def test_single_star_joins_in_one_stage_after_phase_1(
        self, bibliography, node_split, journal_article_query
    ):
        # a single-star decomposition has no border node, so every total
        # meets in the join's one group of key ()
        dec = sg.naive_decomposition(journal_article_query)
        assert len(dec) == 1
        res = run_redundancy(node_split, journal_article_query, dec)
        assert [s["stage"] for s in res.stats] == ["segment-totals", "join-answers"]
        assert res.answers == sg.oracle_answers(journal_article_query, bibliography)
        assert all(s["recordsIn"] > 0 for s in res.stats)
