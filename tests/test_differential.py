"""Randomized cross-check of every engine against the reference evaluator.

Each instance draws a graph, a query sampled from the graph, a partition and
a decomposition method, runs one distributed engine, and demands exactly the
reference answers, after checking those against the naive, index-free
evaluator of ``naive_eval``. The matrix covers all decomposition algorithms
against the fragment and star engines on both random and imported edge
partitions, and against the replicated engine on hashed node partitions.
"""

import pytest

import stargraph as sg
from stargraph.rng import XorShift64Star

from naive_eval import naive_answers

DECOMPOSER_NAMES = sorted(sg.DECOMPOSERS)

# (engine name, partition kind) lanes crossed with every decomposer
LANES = [
    ("qejpe", "edge-random"),
    ("qejpe", "edge-import"),
    ("stars", "edge-random"),
    ("stars", "edge-import"),
    ("redundancy", "vertex-hash"),
]

INSTANCES_PER_CELL = 2  # 5 lanes x 6 decomposers x 2 x 6 seeds = 360 runs
SEEDS = range(6)


def build_instance(lane_idx, dec_idx, rep, seed):
    uid = (((lane_idx * 7 + dec_idx) * 11 + rep) * 13 + seed) * 1009 + 17
    graph_size = 20 + (uid * 97) % 481  # up to 500 triples
    g = sg.generate_graph(graph_size, seed=uid)
    q = sg.generate_query(g, 1 + uid % 8, seed=uid ^ 0xBEEF)
    m = 1 + uid % 5
    return uid, g, q, m


def partition_for(kind, g, m, uid):
    if kind == "edge-random":
        return sg.edge_random_partition(g, min(m, len(g)), seed=uid)
    if kind == "edge-import":
        triples = list(g.canonical)
        rng = XorShift64Star(uid ^ 0xD1FF)
        rng.shuffle(triples)
        m_eff = min(m, len(triples))
        assignment = {t: i % m_eff for i, t in enumerate(triples)}
        return sg.from_edge_assignment(g, assignment)
    non_literal = sum(1 for n in g.nodes if not n.is_literal)
    return sg.vertex_hash_partition(g, min(m, non_literal), seed=uid)


ENGINES = {
    "qejpe": sg.run_qejpe,
    "stars": sg.run_stars,
    "redundancy": sg.run_redundancy,
}


class TestEnginesAgainstOracle:
    @pytest.mark.parametrize("lane_idx,lane", list(enumerate(LANES)))
    @pytest.mark.parametrize("dec_idx,dec_name", list(enumerate(DECOMPOSER_NAMES)))
    def test_lane(self, lane_idx, lane, dec_idx, dec_name):
        engine_name, partition_kind = lane
        engine = ENGINES[engine_name]
        decomposer = sg.DECOMPOSERS[dec_name]
        ran = 0
        capped = 0
        for rep in range(INSTANCES_PER_CELL):
            for seed in SEEDS:
                uid, g, q, m = build_instance(lane_idx, dec_idx, rep, seed)
                data = partition_for(partition_kind, g, m, uid)
                dec = decomposer(q)
                want = sg.oracle_answers(q, g)
                assert set(want.rows) == naive_answers(q, g), (
                    f"oracle diverged from the naive evaluator on instance {uid}"
                )
                try:
                    res = engine(data, q, dec)
                except sg.CartesianCapExceeded:
                    # an honest resource abort, not an answer; rare enough
                    # that the evaluated count stays above the floor
                    capped += 1
                    continue
                assert res.answers == want, (
                    f"{engine_name}/{partition_kind}/{dec_name} diverged on "
                    f"instance {uid} (graph {len(g)}, query {len(q)}, m {m})"
                )
                ran += 1
        assert capped <= 2
        assert ran >= INSTANCES_PER_CELL * len(SEEDS) - 2
