"""The hash join over layout positions, and the final join built on it: a
border value that some subquery holding its node never offers completes no
answer."""

import pytest

import stargraph as sg
from stargraph.embedding import plan_join
from stargraph.evalcore import join_job
from stargraph.model import UNBOUND
from stargraph.runtime import Emitter

from conftest import q3

# ?x is held by subqueries 0, 1 and 2 and missing from 3; ?a is held by
# 0 and 3 and missing from 1 and 2; ?b is held by 1 and 3
PATTERNS = [
    [("?x", "<p>", "?a")],
    [("?x", "<q>", "?b")],
    [("?x", "<s>", "?c")],
    [("?a", "<r>", "?b")],
]


SUBQUERIES = tuple(sg.Query([q3(*t) for t in sub]) for sub in PATTERNS)
LAYOUT = sg.preprocess(
    sg.QueryDecomposition(
        sg.Query([t for sub in SUBQUERIES for t in sub.canonical]),
        SUBQUERIES, "handmade",
    )
)


def joined(records):
    """The answer rows the final join emits for (subquery, images) records,
    each as its sorted (variable name, image) pairs. No border node is in every
    subquery, so every record lands in the one group of key ()."""
    job = join_job(LAYOUT)
    em = Emitter()
    for sub_idx, ids in records:
        job.map_fn(sub_idx, ids, em)
    assert {key for key, _ in em.records} == {()}
    out = Emitter()
    job.reduce_fn((), sorted(value for _, value in em.records), out)
    names = [v.lexical for v in LAYOUT.query.output_pattern]
    return sorted(sorted(zip(names, row)) for row, _ in out.records)


def total(sub_idx, **images):
    """A (subquery, ids) total binding the named nodes."""
    ids = [UNBOUND] * len(LAYOUT.nodes)
    for name, value in images.items():
        ids[LAYOUT.node_index[sg.variable(name)]] = value
    return sub_idx, tuple(ids)


def answer(**images):
    return sorted(images.items())


def test_layout_owners():
    owners = {
        n.lexical: 4 - sum(1 for m, _ in LAYOUT.missing_border if m == n)
        for n in LAYOUT.border_nodes
    }
    assert owners == {"x": 3, "a": 2, "b": 2}


def test_a_value_only_one_of_two_owners_offers_is_not_used():
    # subquery 1 lacks ?a; owners 0 and 3 both offer 7, only 0 offers 8
    records = [
        total(0, x=1, a=7), total(0, x=1, a=8), total(3, a=7, b=2),
        total(1, x=1, b=2), total(2, x=1, c=5),
    ]
    assert joined(records) == [answer(a=7, b=2, c=5, x=1)]


def test_a_position_whose_owner_sent_nothing_completes_nothing():
    # owner 3 of ?a sends nothing at all
    records = [total(0, x=1, a=7), total(1, x=1, b=2), total(2, x=1, c=5)]
    assert joined(records) == []


def test_a_node_with_three_owners_needs_all_three():
    # ?x is held by 0, 1 and 2; only 5 is offered by all three
    records = [
        total(0, x=5, a=3), total(0, x=6, a=3), total(3, a=3, b=4),
        total(1, x=5, b=4), total(1, x=6, b=4), total(1, x=9, b=4),
        total(2, x=5, c=1), total(2, x=9, c=1),
    ]
    assert joined(records) == [answer(a=3, b=4, c=1, x=5)]


class TestPlanJoin:
    def test_shared_positions_join_and_each_is_read_once(self):
        # position 1 is shared; the output repeats it and asks for 3, which
        # no relation binds
        join = plan_join(((0, 1), (1, 2)), (2, 1, 0, 3, 1))
        rows = join([[(10, 20), (11, 21)], [(20, 30), (20, 31), (22, 32)]], None)
        assert sorted(rows) == [
            (30, 20, 10, UNBOUND, 20), (31, 20, 10, UNBOUND, 20),
        ]

    def test_disjoint_relations_give_a_product(self):
        join = plan_join(((0,), (1,), (2,)), (0, 1, 2))
        rows = join([[(1,), (2,)], [(3,)], [(4,), (5,)]], None)
        assert sorted(rows) == [(1, 3, 4), (1, 3, 5), (2, 3, 4), (2, 3, 5)]

    def test_a_self_loop_relation_has_one_position(self):
        # ?a p ?b . ?b q ?b: the self-loop keeps only the ?b images it looped on
        join = plan_join(((0, 1), (1,)), (0, 1))
        rows = join([{(1, 2), (1, 3), (4, 3)}, {(3,)}], None)
        assert sorted(rows) == [(1, 3), (4, 3)]

    def test_a_column_without_a_position_is_not_joined(self):
        # the second relation carries an unbound column that the first binds
        join = plan_join(((0, 1), (None, 1, 2)), (0, 1, 2))
        rows = join([[(1, 2)], [(UNBOUND, 2, 5), (UNBOUND, 3, 6)]], None)
        assert rows == [(1, 2, 5)]

    def test_an_empty_relation_gives_no_rows_and_trips_no_cap(self):
        # the first relation alone would exceed cap 3
        join = plan_join(((0,), (1,), (0, 1)), (0, 1))
        big = [(i,) for i in range(10)]
        assert join([big, big, []], 3) == []

    def test_the_cap_counts_live_rows(self):
        # ten rows of ?a cross two of ?b before the last relation keeps the
        # ten with ?b = 8
        join = plan_join(((0,), (1,), (1, 2)), (0, 1, 2))
        relations = [[(i,) for i in range(10)], [(7,), (8,)], [(8, 9)]]
        assert sorted(join(relations, 20)) == [(i, 8, 9) for i in range(10)]
        with pytest.raises(
            sg.CartesianCapExceeded, match="^join exceeded 19 live rows$"
        ):
            join(relations, 19)
        # the first relation's rows are live rows too
        with pytest.raises(sg.CartesianCapExceeded):
            join(relations, 9)
