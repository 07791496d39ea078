"""Border completion: a hole is filled only with the values that every
subquery containing its node offers."""

import stargraph as sg
from stargraph.evalcore import phase2_expand_fn
from stargraph.model import UNBOUND, TermDictionary
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
        SUBQUERIES, (None,) * 4, "handmade",
    )
)


def completed(sub_idx, values):
    """The filled totals completion emits for subquery ``sub_idx``, the
    values sorted as the shuffle would deliver them. No border node is in
    every subquery, so the key's common-border part is empty."""
    em = Emitter()
    phase2_expand_fn(LAYOUT, TermDictionary([]))((sub_idx, ()), sorted(values), em)
    assert all(key == sub_idx for key, _ in em.records)
    return [ids for _, ids in em.records]


def embedding(**images):
    """An ("e", ids) record binding the named border nodes."""
    ids = [UNBOUND] * len(LAYOUT.nodes)
    for name, value in images.items():
        ids[LAYOUT.node_index[sg.variable(name)]] = value
    return ("e", tuple(ids))


def offer(name, value, src):
    return ("v", LAYOUT.node_index[sg.variable(name)], value, src)


def vector(**images):
    return embedding(**images)[1]


def test_layout_owners():
    owners = {
        n.lexical: 4 - sum(1 for m, _ in LAYOUT.missing_border if m == n)
        for n in LAYOUT.border_nodes
    }
    assert owners == {"x": 3, "a": 2, "b": 2}


def test_a_value_only_one_of_two_owners_offers_is_not_used():
    # subquery 1 lacks ?a; owners 0 and 3 both offer 7, only 0 offers 8
    values = [
        embedding(x=1, b=2),
        offer("a", 7, 0), offer("a", 7, 3), offer("a", 8, 0),
    ]
    assert completed(1, values) == [vector(a=7, x=1, b=2)]


def test_a_position_whose_owner_sent_nothing_completes_nothing():
    # owner 3 of ?a offers nothing at all
    values = [embedding(x=1, b=2), offer("a", 7, 0), offer("a", 8, 0)]
    assert completed(1, values) == []


def test_a_node_with_three_owners_needs_all_three():
    # subquery 3 lacks ?x, held by 0, 1 and 2; only 5 is offered by all
    values = [
        embedding(a=3, b=4),
        offer("x", 5, 0), offer("x", 5, 1), offer("x", 5, 2),
        offer("x", 6, 0), offer("x", 6, 1),
        offer("x", 9, 2),
    ]
    assert completed(3, values) == [vector(x=5, a=3, b=4)]


def test_a_repeated_offer_counts_once():
    # owner 0 sends (?a, 7) twice and owner 3 never does
    values = [embedding(x=1, b=2), offer("a", 7, 0), offer("a", 7, 0)]
    assert completed(1, values) == []
    values.append(offer("a", 7, 3))
    assert completed(1, values) == [vector(a=7, x=1, b=2)]
