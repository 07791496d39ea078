"""Randomized cross-check of every engine against the reference evaluator.

Each instance draws a graph, a query sampled from the graph, a partition and
a decomposition method, runs one distributed engine, and demands exactly the
reference answers, after checking those against the naive, index-free
evaluator of ``naive_eval``. The matrix covers all decomposition algorithms
against the fragment and star engines on both random and imported edge
partitions, and against the replicated engine on hashed node partitions.

``TestAdversarialShapes`` does not sample its queries from the graph: it
builds graphs around a hub, self-loops and literal objects, and queries that
mix variables with IRI and literal constants, so many have no answers, and
checks every engine at one and three workers against the naive evaluator
directly, qejpe and stars on random and imported edge partitions and
redundancy on hashed and imported node partitions.

``TestCompletionLane`` runs all-variable 5-edge paths over graphs of three
or four predicates, whose decompositions leave border nodes missing from
some subquery, so every engine's final join completes border values a
subquery lacks from the others' totals; the instances have answers, so a
join that drops a value some answer needs shows as a missing row.
``TestChainLane`` runs the same paths under ``naive`` and ``min-res``, which
split them into one-edge stars with an empty common border, so all of a
run's totals meet in one join group.

``TestCentrelessPlans`` runs qejpe on hand-built plans of the same paths
that have a subquery without a star centre, over random and imported edge
and node partitions at one and three workers, so the (subject, object)
pairs those fragments witnessed for each triple are joined into totals.

``TestPhase1Contract`` checks what every engine's phase 1 hands the shared
stages, on the fixture graph and on the completion instances: one
(subquery, ID tuple over the layout's nodes) record per total embedding,
and, per subquery, exactly the totals the oracle's enumeration finds; and
that the final join emits each answer row once.
"""

import dataclasses
import importlib

import pytest

import stargraph as sg
from stargraph.rng import XorShift64Star

from conftest import assembly_key
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
    non_literal = sorted(n for n in g.nodes if not n.is_literal)
    if kind == "node-import":
        rng = XorShift64Star(uid ^ 0x1D0C)
        rng.shuffle(non_literal)
        m_eff = min(m, len(non_literal))
        return sg.s_decompose(g, [non_literal[i::m_eff] for i in range(m_eff)])
    return sg.vertex_hash_partition(g, min(m, len(non_literal)), seed=uid)


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


# ---------------------------------------------------------------- adversarial

ADVERSARIAL_LANES = [
    ("qejpe", "edge-random"),
    ("qejpe", "edge-import"),
    ("stars", "edge-random"),
    ("stars", "edge-import"),
    ("redundancy", "vertex-hash"),
    ("redundancy", "node-import"),
]
HUB_PREDICATE = "<p0>"


def adversarial_graph(rng):
    """About a hundred triples over four predicates: a hub with two to three
    dozen out-edges on ``<p0>``, self-loops, and mostly literal objects on
    ``<p2>``/``<p3>``."""
    iris = [f"<n{i}>" for i in range(12)]
    literals = [f'"l{i}"' for i in range(4)]
    hub_targets = [f"<n{i}>" for i in range(30)] + [f'"h{i}"' for i in range(12)]
    rng.shuffle(hub_targets)
    lines = {f"<hub> {HUB_PREDICATE} {o} ." for o in hub_targets[: 24 + rng.below(13)]}
    lines |= {f"{n} {rng.choice(['<p1>', '<p2>'])} {n} ." for n in iris[: 3 + rng.below(4)]}
    lines |= {
        f"{rng.choice(iris)} {rng.choice(['<p2>', '<p3>'])} {rng.choice(literals)} ."
        for _ in range(40)
    }
    lines |= {
        f"{rng.choice(iris)} {rng.choice(['<p0>', '<p1>', '<p3>'])} "
        f"{rng.choice(iris + ['<hub>'])} ."
        for _ in range(30)
    }
    return sg.parse_data("".join(line + "\n" for line in sorted(lines)))


def _query_node(rng, subject: bool) -> str:
    """Mostly a variable; else the hub, an IRI, an IRI absent from the
    graph, or (as an object) a literal."""
    r = rng.below(20)
    if r < 13:
        return rng.choice(["?a", "?b", "?c", "?d"])
    if r < 15:
        return "<hub>"
    if r < 17:
        return rng.choice(["<n1>", "<n2>"])
    if r == 17:
        return "<absent>"
    return "<n3>" if subject else '"l1"'


# the patterns a query starts from: none, a star around an object that the
# literal-heavy predicates bind to literals, the hub's own star, or two
# stars that share only a literal constant, which the final join never reads
SEED_PATTERNS = (
    [],
    [("?a", "<p2>", "?l"), ("?b", "<p3>", "?l")],
    [("?h", HUB_PREDICATE, "?x"), ("?h", HUB_PREDICATE, "?y")],
    [("?a", "<p2>", '"l1"'), ("?b", "<p3>", '"l1"')],
)
# the seed pattern of each block of one instance per decomposer
SEED_OF_BLOCK = (0, 1, 2, 0, 1, 2, 3)
# each instance is run by 6 lanes x 2 worker counts
ADVERSARIAL_INSTANCES = len(SEED_OF_BLOCK) * len(DECOMPOSER_NAMES)


def adversarial_query(rng, seed):
    """A connected query of up to four patterns over the graph's
    predicates, grown from ``seed``; at most two patterns on the hub's
    predicate keep the naive evaluator quick."""
    patterns = list(seed)
    hub_uses = sum(1 for _, p, _ in patterns if p == HUB_PREDICATE)
    for _ in range(rng.below(3) if patterns else 1 + rng.below(4)):
        predicate = rng.choice(["<p0>", "<p1>", "<p2>", "<p3>"])
        if predicate == HUB_PREDICATE:
            if hub_uses == 2:
                predicate = "<p1>"
            hub_uses += 1
        s, o = _query_node(rng, True), _query_node(rng, False)
        if patterns:
            # share with an earlier pattern its subject (a star), its object,
            # both ends (a repeated neighbour), or one end as the other (a
            # path)
            ps, _, po = rng.choice(patterns)
            shape = rng.below(5)
            if shape == 0:
                s = ps
            elif shape == 1:
                o = po
            elif shape == 2:
                s, o = ps, po
            elif shape == 3:
                o = ps
            else:
                s = ps if po.startswith('"') else po
        patterns.append((s, predicate, o))
    return sg.parse_query("".join(" ".join(t) + " .\n" for t in patterns))


def adversarial_instance(k):
    """Instance k: a graph, a query, a segment count and a decomposer; every
    decomposer meets every seed shape."""
    rng = XorShift64Star(0xAD5E + k)
    g = adversarial_graph(rng)
    q = adversarial_query(rng, SEED_PATTERNS[SEED_OF_BLOCK[k // len(DECOMPOSER_NAMES)]])
    return g, q, 1 + rng.below(4), DECOMPOSER_NAMES[k % len(DECOMPOSER_NAMES)]


class TestAdversarialShapes:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("engine_name, partition_kind", ADVERSARIAL_LANES)
    def test_lane(self, engine_name, partition_kind, workers):
        engine = ENGINES[engine_name]
        capped = 0
        for k in range(ADVERSARIAL_INSTANCES):
            g, q, m, dec_name = adversarial_instance(k)
            data = partition_for(partition_kind, g, m, k)
            try:
                res = engine(data, q, sg.DECOMPOSERS[dec_name](q), workers=workers)
            except sg.CartesianCapExceeded:
                capped += 1  # a counted resource abort, not an answer
                continue
            assert set(res.answers.rows) == naive_answers(q, g), (
                f"{engine_name}/{dec_name}/workers={workers} diverged on "
                f"adversarial instance {k}: {[t.token() for t in q.canonical]!r}"
            )
            # the final join emits each answer row once
            assert res.stats[-1]["recordsOut"] == len(res.answers.rows), k
        assert capped <= 1

    def test_matrix_has_empty_and_nonempty_answers(self):
        sizes = [
            len(naive_answers(q, g))
            for g, q, _, _ in map(adversarial_instance, range(ADVERSARIAL_INSTANCES))
        ]
        assert 0 in sizes
        assert any(sizes)


# ---------------------------------------------------------- border completion

COMPLETION_INSTANCES = 8
COMPLETION_LANES = [
    ("qejpe", "edge-random"),
    ("stars", "edge-random"),
    ("redundancy", "vertex-hash"),
]


def completion_instance(k):
    """Instance k: a graph of 200 to 400 triples over three or four
    predicates, an all-variable 5-edge path over them (predicates repeat),
    its max-degree-reshaping decomposition and a segment count."""
    rng = XorShift64Star(0xB0DE + k)
    g = sg.generate_graph(
        200 + rng.below(201), predicates=3 + rng.below(2), seed=rng.below(1 << 30)
    )
    predicates = sorted({t.p for t in g.canonical})
    q = sg.Query(
        sg.TriplePattern(
            sg.variable(f"x{i}"), rng.choice(predicates), sg.variable(f"x{i + 1}")
        )
        for i in range(5)
    )
    return g, q, sg.DECOMPOSERS["max-degree-reshaping"](q), 2 + rng.below(3)


class TestCompletionLane:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("engine_name, partition_kind", COMPLETION_LANES)
    def test_lane(self, engine_name, partition_kind, workers):
        engine = ENGINES[engine_name]
        for k in range(COMPLETION_INSTANCES):
            g, q, dec, m = completion_instance(k)
            data = partition_for(partition_kind, g, m, k)
            res = engine(data, q, dec, workers=workers)
            assert set(res.answers.rows) == naive_answers(q, g), (
                f"{engine_name}/workers={workers} diverged on completion "
                f"instance {k}: {[t.token() for t in q.canonical]!r}"
            )

    def test_instances_complete_borders_and_have_answers(self):
        both = 0
        for k in range(COMPLETION_INSTANCES):
            g, q, dec, _ = completion_instance(k)
            if sg.preprocess(dec).missing_border and naive_answers(q, g):
                both += 1
        assert both >= COMPLETION_INSTANCES // 2


# ------------------------------------------------------------- chain plans

CHAIN_METHODS = ["naive", "min-res"]


class TestChainLane:
    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("method", CHAIN_METHODS)
    @pytest.mark.parametrize("engine_name, partition_kind", COMPLETION_LANES)
    def test_lane(self, engine_name, partition_kind, method, workers):
        engine = ENGINES[engine_name]
        for k in range(COMPLETION_INSTANCES):
            g, q, _, m = completion_instance(k)
            data = partition_for(partition_kind, g, m, k)
            res = engine(data, q, sg.DECOMPOSERS[method](q), workers=workers)
            assert set(res.answers.rows) == naive_answers(q, g), (
                f"{engine_name}/{method}/workers={workers} diverged on "
                f"completion instance {k}: {[t.token() for t in q.canonical]!r}"
            )
            assert res.stats[-1]["recordsOut"] == len(res.answers.rows), k

    def test_plans_have_an_empty_common_border_and_answers(self):
        answered = 0
        for k in range(COMPLETION_INSTANCES):
            g, q, _, _ = completion_instance(k)
            for method in CHAIN_METHODS:
                layout = sg.preprocess(sg.DECOMPOSERS[method](q))
                assert layout.missing_border and layout.common_border == (), k
            answered += bool(naive_answers(q, g))
        assert answered >= COMPLETION_INSTANCES // 2


# ---------------------------------------------------- centre-less qejpe plans

CENTRELESS_PARTITIONS = ["edge-random", "edge-import", "vertex-hash", "node-import"]


def centreless_plans(q, whole):
    """Hand-built plans no decomposer makes for a 5-edge path query: its
    first three edges plus its last two, its first two plus its last three,
    and, when ``whole``, the whole path as one subquery. The three-edge part
    has no star centre; the two-edge part is a star at its middle node. (The
    whole path runs on the edge partitions only: on the node partitions it
    ships 50k to 600k fragments and takes 0.2 to 5.6 s per instance.)"""
    path = sorted(q.canonical, key=lambda t: t.s.token())  # ?x0 -> ... -> ?x5
    splits = [
        ("three-plus-two", (sg.Query(path[:3]), sg.Query(path[3:]))),
        ("two-plus-three", (sg.Query(path[:2]), sg.Query(path[2:]))),
    ]
    if whole:
        splits.append(("whole-path", (sg.Query(path),)))
    return {
        split: sg.QueryDecomposition(q, subs, method="hand-built")
        for split, subs in splits
    }


class TestCentrelessPlans:
    """qejpe on hand-built plans with a centre-less subquery, whose totals
    ``totals_from_fragments`` joins from the (subject, object) pairs its
    fragments witnessed for each triple, over the completion instances'
    graphs and paths."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("partition_kind", CENTRELESS_PARTITIONS)
    def test_lane(self, partition_kind, workers):
        for k in range(COMPLETION_INSTANCES):
            g, q, _, m = completion_instance(k)
            data = partition_for(partition_kind, g, m, k)
            want = naive_answers(q, g)
            plans = centreless_plans(q, whole=partition_kind.startswith("edge"))
            for split, dec in plans.items():
                res = sg.run_qejpe(data, q, dec, workers=workers)
                assert set(res.answers.rows) == want, (
                    f"qejpe/{partition_kind}/{split}/workers={workers} diverged "
                    f"on completion instance {k}: "
                    f"{[t.token() for t in q.canonical]!r}"
                )
                assert res.stats[-1]["recordsOut"] == len(res.answers.rows), k

    def test_plans_have_centreless_subqueries_and_answers(self):
        answered = 0
        for k in range(COMPLETION_INSTANCES):
            g, q, _, _ = completion_instance(k)
            for split, dec in centreless_plans(q, whole=True).items():
                centres = [sg.star_centers(sub) for sub in dec.subqueries]
                want = [0] if split == "whole-path" else [0, 1]
                assert sorted(map(len, centres)) == want, (k, split)
            answered += bool(naive_answers(q, g))
        assert answered >= COMPLETION_INSTANCES // 2

    def test_whole_path_answers_under_a_small_cap(self):
        # the whole path's 52k fragments give 45 answers through a join
        # that keeps under a hundred rows live, so cap 1000 holds
        g, q, _, m = completion_instance(2)
        data = partition_for("edge-random", g, m, 2)
        dec = centreless_plans(q, whole=True)["whole-path"]
        res = sg.run_qejpe(data, q, dec, cartesian_cap=1000)
        assert set(res.answers.rows) == naive_answers(q, g)
        assert len(res.answers.rows) == 45


# ------------------------------------------------------- literal star centres

# the adversarial instances grown from SEED_PATTERNS[1], whose ?l the
# literal-heavy predicates bind mostly to literals
LITERAL_CENTRE_INSTANCES = [
    k for k in range(ADVERSARIAL_INSTANCES)
    if SEED_OF_BLOCK[k // len(DECOMPOSER_NAMES)] == 1
]


def literal_centre_plan(q):
    """The star plan of a cover holding ?l and the subject of each triple
    that no earlier cover node holds. No decomposer centres a star on an
    object-only node such as ?l."""
    cover = {sg.variable("l")}
    for t in q.canonical:
        if t.s not in cover and t.o not in cover:
            cover.add(t.s)
    return sg.star_decomposition_from_cover(q, cover)


class TestLiteralCentreStars:
    """qejpe and stars on plans whose star centre ?l binds literals, which
    stars' part 1 keys by the literal's ID however the graph is split."""

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("partition_kind", CENTRELESS_PARTITIONS)
    @pytest.mark.parametrize("engine_name", ["qejpe", "stars"])
    def test_lane(self, engine_name, partition_kind, workers):
        for k in LITERAL_CENTRE_INSTANCES:
            g, q, m, _ = adversarial_instance(k)
            data = partition_for(partition_kind, g, m, k)
            res = ENGINES[engine_name](data, q, literal_centre_plan(q), workers=workers)
            assert set(res.answers.rows) == naive_answers(q, g), (
                f"{engine_name}/{partition_kind}/workers={workers} diverged on "
                f"adversarial instance {k}: {[t.token() for t in q.canonical]!r}"
            )
            assert res.stats[-1]["recordsOut"] == len(res.answers.rows), k

    @pytest.mark.parametrize("partition_kind", CENTRELESS_PARTITIONS)
    def test_star_assembly_reads_literal_keys(self, partition_kind, monkeypatch):
        grouped = []

        def recording(job, records, **kwargs):
            if job.name == "star-assembly":
                reduce_fn = job.reduce_fn

                def spy(key, values, em):
                    grouped.append((key, len(values)))
                    reduce_fn(key, values, em)

                job = dataclasses.replace(job, reduce_fn=spy)
            return sg.runtime.run_job(job, records, **kwargs)

        monkeypatch.setattr(sg.stars, "run_job", recording)
        literal_records = 0
        for k in LITERAL_CENTRE_INSTANCES:
            g, q, m, _ = adversarial_instance(k)
            data = partition_for(partition_kind, g, m, k)
            grouped.clear()
            sg.run_stars(data, q, literal_centre_plan(q))
            literal_records += sum(
                n for key, n in grouped
                if assembly_key(data.dictionary, key)[1].is_literal
            )
        assert literal_records > 0


# ------------------------------------------------------------ phase-1 contract


def check_phase1_contract(engine_name, data, q, dec, monkeypatch, workers=1):
    """Run one engine, keeping its phase-1 job's output, and check that the
    output is one (subquery, ids) record per total embedding, the totals of
    each subquery being those of ``enumerate_total`` over the whole graph.
    Returns the engine's result."""
    module = importlib.import_module(f"stargraph.{engine_name}")
    outputs = []

    def recording(job, records, **kwargs):
        outputs.append(sg.runtime.run_job(job, records, **kwargs))
        return outputs[-1]

    with monkeypatch.context() as m:
        m.setattr(module, "run_job", recording)
        res = ENGINES[engine_name](data, q, dec, workers=workers)
    records = outputs[0].records
    layout = sg.preprocess(dec)
    for record in records:
        sub_idx, ids = record
        assert type(sub_idx) is int and type(ids) is tuple, record
        assert len(ids) == len(layout.nodes), record
        assert all(type(i) is int for i in ids), record
    assert res.stats[0]["recordsOut"] == sum(res.subquery_embeddings.values())
    # the final join reads each output variable from one place, so it emits
    # each answer row once
    assert res.stats[-1]["stage"] == "join-answers"
    assert res.stats[-1]["recordsOut"] == len(res.answers.rows)
    # every engine ships each total once, redundancy's segments only the
    # totals whose so-centre image lies in their own node block
    assert len(set(records)) == len(records)
    code = data.dictionary.ids.__getitem__
    for i, sub in enumerate(layout.subqueries):
        want = {
            tuple(map(code, images))
            for images in sg.enumerate_total(sub, data.graph, layout.nodes)
        }
        assert {ids for k, ids in records if k == i} == want, (engine_name, i)
    return res


class TestPhase1Contract:
    @pytest.mark.parametrize("engine_name", sorted(ENGINES))
    @pytest.mark.parametrize("method", ["max-degree", "min-res"])
    @pytest.mark.parametrize("query", ["supervisor_query", "coauthor_query"])
    def test_fixture_cases(self, engine_name, method, query, request, monkeypatch):
        q = request.getfixturevalue(query)
        data = request.getfixturevalue(
            "node_split" if engine_name == "redundancy" else "edge_split"
        )
        check_phase1_contract(
            engine_name, data, q, sg.DECOMPOSERS[method](q), monkeypatch
        )

    @pytest.mark.parametrize("engine_name, partition_kind", COMPLETION_LANES)
    def test_completion_instances(self, engine_name, partition_kind, monkeypatch):
        for k in range(COMPLETION_INSTANCES):
            g, q, dec, m = completion_instance(k)
            data = partition_for(partition_kind, g, m, k)
            check_phase1_contract(engine_name, data, q, dec, monkeypatch)


class TestEachTotalShippedOnce:
    """No engine ships a phase-1 record twice: qejpe and stars build each
    centre image's totals in one place, and redundancy's segments ship only
    the totals whose so-centre image lies in their own node block, though
    replicated triples let other segments find them too."""

    @pytest.mark.parametrize("workers", [1, 4])
    @pytest.mark.parametrize("method", sorted(sg.DECOMPOSERS))
    @pytest.mark.parametrize(
        "query", ["journal_article_query", "supervisor_query", "coauthor_query"]
    )
    def test_fixture_cases(self, query, method, workers, request, monkeypatch):
        q = request.getfixturevalue(query)
        dec = sg.DECOMPOSERS[method](q)
        assert sg.validate_decomposition(q, dec).all_so
        embeddings = {}
        for name in ENGINES:
            data = request.getfixturevalue(
                "node_split" if name == "redundancy" else "edge_split"
            )
            res = check_phase1_contract(name, data, q, dec, monkeypatch, workers)
            embeddings[name] = res.subquery_embeddings
        assert embeddings["redundancy"] == embeddings["qejpe"] == embeddings["stars"]
