"""Per-stage record counts of every engine, pinned.

Each engine's stats (minus wallMillis) and subquery embedding counts on the
fixture graph. Every phase-1 job outputs one record per total embedding it
finds, so phase 1's recordsOut is the sum of the subquery embedding counts,
and the stage after it is the shared final join, which keys each total by
its common-border IDs and joins the subqueries inside each group. Every
engine ships each total once, redundancy too (a segment ships only the
totals whose so-centre image lies in its own node block), so the embedding
counts and the join's rows agree across the three engines, built as they
are from the same totals by the same code.

What must not move under any change to how stages are driven: phase 1's
recordsIn and distinctKeys (the engines' own shuffles), the join's
recordsOut (the answers) and the embedding counts.
"""

import pytest

import stargraph as sg

# (query, decomposer, engine): ([(stage, recordsIn, recordsOut, distinctKeys)],
#                               subquery_embeddings)
GOLDEN = {
    ("supervisor", "max-degree", "qejpe"): (
        [
            ("useful-partials", 6, 15, 2),
            ("join-answers", 15, 2, 12),
        ],
        {0: 13, 1: 2},
    ),
    ("supervisor", "max-degree", "stars"): (
        [
            ("star-assembly", 6, 15, 3),
            ("join-answers", 15, 2, 12),
        ],
        {0: 13, 1: 2},
    ),
    ("supervisor", "max-degree", "redundancy"): (
        [
            ("segment-totals", 6, 15, 0),
            ("join-answers", 15, 2, 12),
        ],
        {0: 13, 1: 2},
    ),
    ("supervisor", "min-res", "qejpe"): (
        [
            ("useful-partials", 12, 14, 4),
            ("join-answers", 14, 2, 1),
        ],
        {0: 5, 1: 5, 2: 2, 3: 2},
    ),
    ("supervisor", "min-res", "stars"): (
        [
            ("star-assembly", 12, 14, 7),
            ("join-answers", 14, 2, 1),
        ],
        {0: 5, 1: 5, 2: 2, 3: 2},
    ),
    ("supervisor", "min-res", "redundancy"): (
        [
            ("segment-totals", 12, 14, 0),
            ("join-answers", 14, 2, 1),
        ],
        {0: 5, 1: 5, 2: 2, 3: 2},
    ),
    ("coauthor", "max-degree", "qejpe"): (
        [
            ("useful-partials", 9, 10, 3),
            ("join-answers", 10, 1, 4),
        ],
        {0: 5, 1: 3, 2: 2},
    ),
    ("coauthor", "max-degree", "stars"): (
        [
            ("star-assembly", 9, 10, 4),
            ("join-answers", 10, 1, 4),
        ],
        {0: 5, 1: 3, 2: 2},
    ),
    ("coauthor", "max-degree", "redundancy"): (
        [
            ("segment-totals", 9, 10, 0),
            ("join-answers", 10, 1, 4),
        ],
        {0: 5, 1: 3, 2: 2},
    ),
    ("coauthor", "min-res", "qejpe"): (
        [
            ("useful-partials", 18, 12, 6),
            ("join-answers", 12, 1, 1),
        ],
        {0: 3, 1: 3, 2: 2, 3: 2, 4: 1, 5: 1},
    ),
    ("coauthor", "min-res", "stars"): (
        [
            ("star-assembly", 18, 12, 9),
            ("join-answers", 12, 1, 1),
        ],
        {0: 3, 1: 3, 2: 2, 3: 2, 4: 1, 5: 1},
    ),
    ("coauthor", "min-res", "redundancy"): (
        [
            ("segment-totals", 18, 12, 0),
            ("join-answers", 12, 1, 1),
        ],
        {0: 3, 1: 3, 2: 2, 3: 2, 4: 1, 5: 1},
    ),
}

ENGINES = {"qejpe": sg.run_qejpe, "stars": sg.run_stars, "redundancy": sg.run_redundancy}


@pytest.mark.parametrize("workers", [1, 4])
@pytest.mark.parametrize("case", sorted(GOLDEN), ids="-".join)
def test_engine_stats_are_pinned(case, workers, request):
    query_name, method, engine = case
    query = request.getfixturevalue(f"{query_name}_query")
    data = request.getfixturevalue(
        "node_split" if engine == "redundancy" else "edge_split"
    )
    res = ENGINES[engine](data, query, sg.DECOMPOSERS[method](query), workers=workers)
    stages, embeddings = GOLDEN[case]
    got = [
        (s["stage"], s["recordsIn"], s["recordsOut"], s["distinctKeys"])
        for s in res.stats
    ]
    assert got == stages
    assert res.subquery_embeddings == embeddings


@pytest.mark.parametrize(
    "query_name, method", sorted({case[:2] for case in GOLDEN}), ids="-".join
)
def test_shared_stages_agree_across_engines(query_name, method):
    rows = set()
    for engine in ENGINES:
        stages, embeddings = GOLDEN[(query_name, method, engine)]
        assert stages[0][2] == sum(embeddings.values())
        rows.add((*stages[1:], tuple(embeddings.items())))
    assert len(rows) == 1
