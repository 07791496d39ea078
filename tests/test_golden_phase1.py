"""qejpe's phase-1 records on the fixture graph, pinned by content.

For every subquery x segment pair of the supervisor fixture split and of the
coauthor cover split over the edge partition, the records
``qejpe_map1_records`` emits, sorted as the shuffle sorts them and decoded
to terms, exactly as the exhaustive search with a re-validated candidate
list produced them. One line per record: the border vector, the non-border
vector (``-`` for unbound) and one match flag per query triple, read off the
record's subquery-level mask through each canonical triple's query index.
"""

import pytest

import stargraph as sg
from stargraph.qejpe import qejpe_map1_records

from conftest import decode

SUPERVISOR = {
    (0, 0): [
        '<Article1> - - | - "Title1" | 00010',
        '<Article1> <Person4> - | - - | 10000',
        '<Article1> <Person4> - | - "Title1" | 10010',
    ],
    (0, 1): [
        '<Article1> <Person1> - | - - | 10000',
        '<Article1> <Person2> - | - - | 10000',
        '<Article2> <Person2> - | - - | 10000',
        '<Article2> <Person3> - | - - | 10000',
    ],
    (0, 2): [
        '<Article2> - - | - "Title2" | 00010',
    ],
    (1, 0): [
        '<Article1> - <Person4> | - - | 01000',
    ],
    (1, 1): [
        '<Article1> - <Person1> | - - | 01000',
        '<Article1> - <Person2> | - - | 01000',
        '<Article2> - <Person2> | - - | 01000',
        '<Article2> - <Person3> | - - | 01000',
    ],
    (1, 2): [
        '<Article1> - - | <Journal1> - | 00100',
        '<Article2> - - | <Journal1> - | 00100',
    ],
    (2, 0): [],
    (2, 1): [
        '- <Person2> <Person3> | - - | 00001',
        '- <Person4> <Person1> | - - | 00001',
    ],
    (2, 2): [],
}

COAUTHOR = {
    (0, 0): [
        '<Article1> - <Person4> | "2008" - - - | 10000000',
        '<Article3> <Journal2> <Person4> | "2008" - - - | 10110000',
    ],
    (0, 1): [
        '<Article1> - <Person1> | - - - - | 10000000',
        '<Article1> - <Person2> | - - - - | 10000000',
        '<Article2> - <Person2> | - - - - | 10000000',
        '<Article2> - <Person3> | - - - - | 10000000',
    ],
    (0, 2): [
        '<Article1> <Journal1> - | "2008" - - - | 00100000',
        '<Article2> - - | "2008" - - - | 00010000',
        '<Article2> <Journal1> - | "2008" - - - | 00110000',
    ],
    (1, 0): [
        '- - - | - <Article1> - "Title1" | 00000010',
        '- - <Person4> | - <Article1> - - | 00001000',
        '- - <Person4> | - <Article1> - "Title1" | 00001010',
    ],
    (1, 1): [
        '- - <Person1> | - <Article1> - - | 00001000',
        '- - <Person2> | - <Article1> - - | 00001000',
    ],
    (1, 2): [
        '- <Journal1> - | - <Article1> - - | 00000100',
    ],
    (2, 0): [
        '<Article1> - - | - - <Person4> - | 01000000',
        '<Article3> - - | - - <Person4> - | 01000000',
    ],
    (2, 1): [
        '<Article1> - <Person4> | - - <Person1> - | 01000001',
        '<Article2> - <Person2> | - - <Person3> - | 01000001',
    ],
    (2, 2): [],
}


def _cells(split, ids):
    terms = decode(split.dictionary, ids)
    return " ".join("-" if v is None else v.token() for v in terms)


def _rendered(layout, split, i, j):
    records = qejpe_map1_records(
        layout, i, split.segments[j], split.interiors[j], split.dictionary
    )
    records.sort()
    query_index = {t: q for q, t in enumerate(layout.query.canonical)}
    positions = [query_index[t] for t in layout.subqueries[i].canonical]
    k = len(layout.border_nodes)
    lines = []
    for key, frag in records:
        assert key == i
        ids, mask = frag[:-1], frag[-1]
        bnv, nbnv = ids[:k], ids[k:]
        hit = {positions[k] for k in range(len(positions)) if mask >> k & 1}
        flags = "".join("1" if q in hit else "0" for q in range(len(query_index)))
        lines.append(f"{_cells(split, bnv)} | {_cells(split, nbnv)} | {flags}")
    return lines


@pytest.mark.parametrize("name", ["supervisor", "coauthor"])
def test_phase1_records_are_pinned(
    name, edge_split, supervisor_decomposition, coauthor_cover_decomposition
):
    dec, golden = {
        "supervisor": (supervisor_decomposition, SUPERVISOR),
        "coauthor": (coauthor_cover_decomposition, COAUTHOR),
    }[name]
    layout = sg.preprocess(dec)
    got = {
        (i, j): _rendered(layout, edge_split, i, j)
        for i in range(len(layout.subqueries))
        for j in range(len(edge_split.segments))
    }
    assert got == golden
