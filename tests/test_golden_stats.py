"""Per-stage record counts of every engine, pinned.

Each engine's stats (minus wallMillis) and subquery embedding counts on the
fixture graph, as the engines produced them when each still wired its own
run_job chain, before ``evalcore.run_phases`` drove them all. Any change to
how stages are driven must leave them alone.

Three cells per completing engine moved since: ``complete-borders``
recordsOut and ``join-answers`` recordsIn and distinctKeys. Completion now
fills a border hole only with values that every subquery containing the
node offers, not with any value one of them offers, so it no longer emits
border vectors that the final join would drop. Phase 1, the join's
recordsOut and the embedding counts are as they were.
"""

import pytest

import stargraph as sg

# (query, decomposer, engine): ([(stage, recordsIn, recordsOut, distinctKeys)],
#                               subquery_embeddings)
GOLDEN = {
    ("supervisor", "max-degree", "qejpe"): (
        [
            ("useful-partials", 6, 15, 2),
            ("complete-borders", 15, 15, 2),
            ("join-answers", 15, 2, 12),
        ],
        {0: 13, 1: 2},
    ),
    ("supervisor", "max-degree", "stars"): (
        [
            ("star-assembly", 6, 15, 3),
            ("complete-borders", 15, 15, 2),
            ("join-answers", 15, 2, 12),
        ],
        {0: 13, 1: 2},
    ),
    ("supervisor", "max-degree", "redundancy"): (
        [
            ("segment-totals", 6, 16, 0),
            ("join-answers", 16, 2, 12),
        ],
        {0: 13, 1: 3},
    ),
    ("supervisor", "min-res", "qejpe"): (
        [
            ("useful-partials", 12, 66, 4),
            ("complete-borders", 66, 32, 4),
            ("join-answers", 32, 2, 18),
        ],
        {0: 5, 1: 5, 2: 2, 3: 2},
    ),
    ("supervisor", "min-res", "stars"): (
        [
            ("star-assembly", 12, 54, 7),
            ("complete-borders", 54, 32, 4),
            ("join-answers", 32, 2, 18),
        ],
        {0: 5, 1: 5, 2: 2, 3: 2},
    ),
    ("supervisor", "min-res", "redundancy"): (
        [
            ("segment-totals", 12, 71, 0),
            ("complete-borders", 71, 32, 4),
            ("join-answers", 32, 2, 18),
        ],
        {0: 5, 1: 5, 2: 2, 3: 3},
    ),
    ("coauthor", "max-degree", "qejpe"): (
        [
            ("useful-partials", 9, 25, 3),
            ("complete-borders", 25, 10, 3),
            ("join-answers", 10, 1, 8),
        ],
        {0: 5, 1: 3, 2: 2},
    ),
    ("coauthor", "max-degree", "stars"): (
        [
            ("star-assembly", 9, 18, 4),
            ("complete-borders", 18, 10, 3),
            ("join-answers", 10, 1, 8),
        ],
        {0: 5, 1: 3, 2: 2},
    ),
    ("coauthor", "max-degree", "redundancy"): (
        [
            ("segment-totals", 9, 27, 0),
            ("complete-borders", 27, 7, 11),
            ("join-answers", 7, 1, 5),
        ],
        {0: 5, 1: 3, 2: 3},
    ),
    ("coauthor", "min-res", "qejpe"): (
        [
            ("useful-partials", 18, 100, 6),
            ("complete-borders", 100, 25, 6),
            ("join-answers", 25, 1, 13),
        ],
        {0: 3, 1: 3, 2: 2, 3: 2, 4: 1, 5: 1},
    ),
    ("coauthor", "min-res", "stars"): (
        [
            ("star-assembly", 18, 94, 9),
            ("complete-borders", 94, 25, 6),
            ("join-answers", 25, 1, 13),
        ],
        {0: 3, 1: 3, 2: 2, 3: 2, 4: 1, 5: 1},
    ),
    ("coauthor", "min-res", "redundancy"): (
        [
            ("segment-totals", 18, 108, 0),
            ("complete-borders", 108, 25, 6),
            ("join-answers", 25, 1, 13),
        ],
        {0: 3, 1: 3, 2: 2, 3: 2, 4: 2, 5: 1},
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
