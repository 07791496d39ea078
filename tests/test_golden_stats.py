"""Per-stage record counts of every engine, pinned.

Each engine's stats (minus wallMillis) and subquery embedding counts on the
fixture graph, as the engines produced them when each still wired its own
run_job chain, before ``evalcore.run_phases`` drove them all. Any change to
how stages are driven must leave them alone.
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
            ("complete-borders", 66, 76, 4),
            ("join-answers", 76, 2, 32),
        ],
        {0: 5, 1: 5, 2: 2, 3: 2},
    ),
    ("supervisor", "min-res", "stars"): (
        [
            ("star-assembly", 12, 54, 7),
            ("complete-borders", 54, 76, 4),
            ("join-answers", 76, 2, 32),
        ],
        {0: 5, 1: 5, 2: 2, 3: 2},
    ),
    ("supervisor", "min-res", "redundancy"): (
        [
            ("segment-totals", 12, 71, 0),
            ("complete-borders", 71, 76, 4),
            ("join-answers", 76, 2, 32),
        ],
        {0: 5, 1: 5, 2: 2, 3: 3},
    ),
    ("coauthor", "max-degree", "qejpe"): (
        [
            ("useful-partials", 9, 25, 3),
            ("complete-borders", 25, 21, 3),
            ("join-answers", 21, 1, 17),
        ],
        {0: 5, 1: 3, 2: 2},
    ),
    ("coauthor", "max-degree", "stars"): (
        [
            ("star-assembly", 9, 18, 4),
            ("complete-borders", 18, 21, 3),
            ("join-answers", 21, 1, 17),
        ],
        {0: 5, 1: 3, 2: 2},
    ),
    ("coauthor", "max-degree", "redundancy"): (
        [
            ("segment-totals", 9, 27, 0),
            ("complete-borders", 27, 12, 11),
            ("join-answers", 12, 1, 8),
        ],
        {0: 5, 1: 3, 2: 3},
    ),
    ("coauthor", "min-res", "qejpe"): (
        [
            ("useful-partials", 18, 100, 6),
            ("complete-borders", 100, 146, 6),
            ("join-answers", 146, 1, 48),
        ],
        {0: 3, 1: 3, 2: 2, 3: 2, 4: 1, 5: 1},
    ),
    ("coauthor", "min-res", "stars"): (
        [
            ("star-assembly", 18, 94, 9),
            ("complete-borders", 94, 146, 6),
            ("join-answers", 146, 1, 48),
        ],
        {0: 3, 1: 3, 2: 2, 3: 2, 4: 1, 5: 1},
    ),
    ("coauthor", "min-res", "redundancy"): (
        [
            ("segment-totals", 18, 108, 0),
            ("complete-borders", 108, 146, 6),
            ("join-answers", 146, 1, 48),
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
