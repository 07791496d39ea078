"""Workloads, set-up and the timed op loop of the stargraph benchmark.

One op is one query answered by one engine: the decomposer call, the engine
call and ``AnswerSet.to_tsv()``, with every index already built. Ops run one
after another from this process (a closed loop with one client). The
collector is left enabled but emptied with ``gc.collect()`` before each timed
op, so a collection an op triggers still counts while garbage left behind by
earlier ops does not (see NOTES.md for the spread that motivated this).
Answers are compared byte for byte against ``oracle_answers`` outside the
timed region.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import resource
import statistics
import time
from dataclasses import dataclass, field
from typing import Callable

import stargraph as sg

SEGMENTS = 8
# host_probe()'s time on the 2-vCPU VM the benchmark was tuned on, in its
# faster state; reported times are scaled to that host speed (NOTES.md)
PROBE_REF_S = 0.0035
PROBES_PER_ROUND = 15  # on top of the one before each op
ENGINES = ("qejpe", "stars", "redundancy")
# engine -> which partition it reads; redundancy needs node-partitioned data
ENGINE_DATA = {"qejpe": "edge", "stars": "edge", "redundancy": "node"}


def derive_seed(seed: int, role: str) -> int:
    """Independent 64-bit seed for one input role (graph, partition, queries)."""
    digest = hashlib.blake2b(f"{seed}/{role}".encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def hub_star_queries(graph: sg.DataGraph, count: int, seed: int) -> list[sg.Query]:
    """The all-variable 4-triple star at the highest out-degree subject.

    Its predicates are the hub's first four distinct ones. A star that
    repeats a predicate matches combinatorially more fragments, and whether
    the hub's first four edges repeat one is decided by the graph seed, so
    distinct predicates keep the query the same shape on every seed.
    """
    del count, seed  # one query, fixed by the graph
    preds: dict[sg.Term, list[sg.Term]] = {}
    degree: dict[sg.Term, int] = {}
    for t in graph.canonical:
        degree[t.s] = degree.get(t.s, 0) + 1
        ps = preds.setdefault(t.s, [])
        if t.p not in ps:
            ps.append(t.p)
    hub = max(
        (s for s in preds if len(preds[s]) >= 4),
        key=lambda s: (degree[s], s.key),
    )
    return [
        sg.Query(
            sg.TriplePattern(sg.variable("c"), p, sg.variable(f"x{i}"))
            for i, p in enumerate(preds[hub][:4])
        )
    ]


def anchored_queries(graph: sg.DataGraph, count: int, seed: int) -> list[sg.Query]:
    """3-triple queries around one constant node ``n``; all else is variable.

    Three of every four are stars of three triples at ``n``, which each
    engine answers from index lookups. Every fourth is ``n p ?a . n p' ?b .
    ?a p'' ?c``: its all-variable triple ``?a p'' ?c`` makes the engines scan
    a predicate list. The fixed ratio keeps the share of scanning queries the
    same on every seed. min-res keeps ``n`` in every subquery of both shapes,
    so no border node is missing and completion does not fan out; free walks
    (``generate_query``) also produce chains that min-res splits off the
    constant, whose completion can take tens of seconds per op or trip the
    cartesian cap, and that cost is border-completion's subject.
    """
    triples = graph.canonical
    out_edges: dict[sg.Term, list[sg.DataTriple]] = {}
    in_edges: dict[sg.Term, list[sg.DataTriple]] = {}
    for t in triples:
        if t.s != t.o:
            out_edges.setdefault(t.s, []).append(t)
            in_edges.setdefault(t.o, []).append(t)

    def other(t: sg.DataTriple, n: sg.Term) -> sg.Term:
        return t.o if t.s == n else t.s

    def star(rng, n):
        picked: list[sg.DataTriple] = []
        pool = out_edges.get(n, []) + in_edges.get(n, [])
        for _ in range(3):
            seen = {other(t, n) for t in picked}
            pool = [t for t in pool if other(t, n) not in seen]
            if not pool:
                return None
            picked.append(rng.choice(pool))
        return picked

    def hop(rng, n):
        firsts = [t for t in out_edges.get(n, []) if t.o in out_edges]
        if not firsts:
            return None
        t1 = rng.choice(firsts)
        a = t1.o
        seconds = [t for t in out_edges[n] + in_edges.get(n, []) if other(t, n) != a]
        thirds = [t for t in out_edges[a] if t.o != n]
        if not seconds or not thirds:
            return None
        t2 = rng.choice(seconds)
        thirds = [t for t in thirds if t.o != other(t2, n)]
        if not thirds:
            return None
        return [t1, t2, rng.choice(thirds)]

    queries = []
    for i in range(count):
        rng = sg.XorShift64Star(derive_seed(seed, f"query{i}"))
        shape = hop if i % 4 == 3 else star
        for _attempt in range(10_000):  # redraw until a node takes the shape
            n = rng.choice(triples).s
            picked = shape(rng, n)
            if picked is not None:
                break
        else:
            raise ValueError(f"no node of the graph takes query shape {i % 4}")
        names: dict[sg.Term, sg.Term] = {n: n}
        for t in picked:
            for node in (t.s, t.o):
                names.setdefault(node, sg.variable(f"x{len(names) - 1}"))
        queries.append(
            sg.Query(sg.TriplePattern(names[t.s], t.p, names[t.o]) for t in picked)
        )
    return queries


def path_queries(length: int):
    """All-variable paths ``?x0 p ?x1 . ?x1 p' ?x2 ...`` over seed-drawn
    distinct predicates.

    Every node is a variable, so a query's cost follows predicate
    frequencies, which vary little between graph seeds; a constant anchor
    would make it follow that one node's degree instead.
    """

    def make(graph: sg.DataGraph, count: int, seed: int) -> list[sg.Query]:
        preds = sorted({t.p for t in graph.canonical})
        out = []
        for i in range(count):
            rng = sg.XorShift64Star(derive_seed(seed, f"query{i}"))
            pool = list(preds)
            rng.shuffle(pool)
            out.append(
                sg.Query(
                    sg.TriplePattern(sg.variable(f"x{k}"), p, sg.variable(f"x{k + 1}"))
                    for k, p in enumerate(pool[:length])
                )
            )
        return out

    return make


@dataclass(frozen=True)
class Workload:
    name: str
    triples: int
    predicates: int | None  # None: generate_graph's default pool of 12
    queries: int
    method: str
    workers: int
    make_queries: Callable[[sg.DataGraph, int, int], list[sg.Query]]
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "hub-star", 30_000, None, 1, "naive", 1, hub_star_queries,
            "one subquery: qejpe's phase 1 is a single reducer over all ~10k "
            "fragments; exercises embedding and the reduce-1 keying, "
            "bypasses completion and parallel execution",
        ),
        Workload(
            "border-completion", 4_000, 32, 12, "max-degree-reshaping", 1,
            path_queries(5),
            "missing border nodes make completion fan out; complete-borders, "
            "join-answers and the runtime sort/group over thousands of keys "
            "carry the time, the opposite of hub-star",
        ),
        Workload(
            "selective-mix", 2_000, None, 64, "min-res", 1,
            anchored_queries,
            "mostly constant-anchored queries that finish in milliseconds, "
            "so fixed per-query costs (decompose, preprocess, run_job "
            "stages) set the median op latency",
        ),
    )
}


@dataclass
class Inputs:
    text: str
    queries: list[sg.Query]
    partition_seed: int


def make_inputs(workload: Workload, seed: int) -> Inputs:
    """Everything the program receives, derived from the workload seed alone."""
    graph = sg.generate_graph(
        workload.triples,
        predicates=workload.predicates,
        seed=derive_seed(seed, "graph"),
    )
    queries = workload.make_queries(graph, workload.queries, seed)
    return Inputs(sg.serialize_graph(graph), queries, derive_seed(seed, "partition"))


@dataclass
class State:
    graph: sg.DataGraph
    edge: sg.DataDecomposition
    node: sg.DataDecomposition

    def data(self, engine: str) -> sg.DataDecomposition:
        return self.edge if ENGINE_DATA[engine] == "edge" else self.node


class NullTracer:
    """Untraced runs use this: every span is a no-op."""

    def span(self, name: str, layer: str):
        return contextlib.nullcontext()

    def op(self):
        return contextlib.nullcontext()


def setup(inputs: Inputs, tracer=None) -> State:
    """Parse, partition both ways and build every index (cold)."""
    tracer = tracer or NullTracer()
    with tracer.span("parse_data", "ntio"):
        graph = sg.parse_data(inputs.text)
    with tracer.span("edge_random_partition", "partition"):
        edge = sg.edge_random_partition(graph, SEGMENTS, seed=inputs.partition_seed)
    with tracer.span("vertex_hash_partition", "partition"):
        node = sg.vertex_hash_partition(graph, SEGMENTS, seed=inputs.partition_seed)
    probe = graph.canonical[0].p
    with tracer.span("build_indexes", "model"):
        for g in (graph, *edge.segments, *node.segments):
            g.by_predicate(probe)  # the first lookup builds all three indexes
    return State(graph, edge, node)


def host_probe() -> float:
    """Seconds for a fixed pure-Python job of tuple, dict, sort and list
    work, the kind the program does. Its time tracks how fast the host runs
    Python right now, independently of the program under test."""
    t0 = time.perf_counter()
    counts: dict[tuple[int, str], int] = {}
    for i in range(6000):
        key = (i % 251, str(i % 7))
        counts[key] = counts.get(key, 0) + 1
    rows = sorted(((v, k) for k, v in counts.items()), reverse=True)
    objs = [[k, v, (k, v)] for v, k in rows]
    del objs
    return time.perf_counter() - t0


def host_scale(probes: list[float]) -> float:
    """Factor that turns seconds measured next to ``probes`` into seconds
    at the reference host speed."""
    return PROBE_REF_S / statistics.median(probes)


def timed_setups(
    inputs: Inputs, min_repeats: int, min_seconds: float
) -> tuple[State, list[float], list[float]]:
    """Set up from scratch at least ``min_repeats`` times and until
    ``min_seconds`` of set-up have been timed; keep the last state.

    Returns the state, the raw set-up times and each one's host scale.
    """
    times: list[float] = []
    scales: list[float] = []
    state = None
    while len(times) < min_repeats or sum(times) < min_seconds:
        state = None  # free the previous state before timing the next
        gc.collect()
        scales.append(host_scale([host_probe() for _ in range(PROBES_PER_ROUND)]))
        t0 = time.perf_counter()
        state = setup(inputs)
        times.append(time.perf_counter() - t0)
    return state, times, scales


@dataclass
class Tally:
    """Op outcomes across a run: latencies, failures and their types."""

    latencies: dict[str, list[float]] = field(
        default_factory=lambda: {e: [] for e in ("oracle",) + ENGINES}
    )
    attempted: int = 0
    failed: int = 0
    mismatches: int = 0
    errors: dict[str, int] = field(default_factory=dict)
    gen2_in_ops: int = 0
    ops_timed: int = 0
    probes: list[float] = field(default_factory=list)
    # one per round: host_scale of the probes taken during that round
    scales: list[float] = field(default_factory=list)

    def error(self, exc: BaseException) -> None:
        name = type(exc).__name__
        self.errors[name] = self.errors.get(name, 0) + 1


def _gen2() -> int:
    return gc.get_stats()[2]["collections"]


def timed_op(fn, tally: Tally):
    """Run ``fn`` as one timed op. Returns (output, seconds, exception)."""
    gc.collect()
    tally.probes.append(host_probe())
    before = _gen2()
    t0 = time.perf_counter()
    try:
        out = fn()
    except Exception as exc:  # noqa: BLE001 - any exception is a failed op
        return None, time.perf_counter() - t0, exc
    elapsed = time.perf_counter() - t0
    tally.gen2_in_ops += _gen2() - before
    tally.ops_timed += 1
    return out, elapsed, None


def engine_op(tracer, engine: str, fn, data, query, method: str, workers: int) -> str:
    with tracer.op():
        with tracer.span("decompose", "decompose"):
            dec = sg.DECOMPOSERS[method](query)
        with tracer.span(engine, engine):
            res = fn(data, query, dec, workers=workers)
        with tracer.span("to_tsv", "ntio"):
            return res.answers.to_tsv()


def oracle_op(tracer, fn, graph, query) -> str:
    with tracer.op():
        with tracer.span("oracle_answers", "oracle"):
            answers = fn(query, graph)
        with tracer.span("to_tsv", "ntio"):
            return answers.to_tsv()


DEFAULT_ENGINES = {
    "oracle": sg.oracle_answers,
    "qejpe": sg.run_qejpe,
    "stars": sg.run_stars,
    "redundancy": sg.run_redundancy,
}


def run_round(
    workload: Workload,
    state: State,
    queries: list[sg.Query],
    reference: dict[int, str],
    tally: Tally,
    tracer=None,
    engines=None,
) -> dict[str, float]:
    """Answer every query once with the oracle and each engine.

    Returns the summed raw op time per engine and appends the round's host
    scale to ``tally.scales``; ``tally.latencies`` gets each passing engine
    op's scaled time. The first oracle answer of each query becomes its
    reference; an engine op fails when it raises or when its TSV differs
    from the reference.
    """
    tracer = tracer or NullTracer()
    engines = engines or DEFAULT_ENGINES
    totals = {name: 0.0 for name in ("oracle",) + ENGINES}
    first_probe = len(tally.probes)
    tally.probes.extend(host_probe() for _ in range(PROBES_PER_ROUND))
    passed: list[tuple[str, float]] = []
    for qi, query in enumerate(queries):
        out, dt, exc = timed_op(
            lambda: oracle_op(tracer, engines["oracle"], state.graph, query), tally
        )
        totals["oracle"] += dt
        if exc is not None:
            tally.error(exc)
        elif qi not in reference:
            reference[qi] = out
        elif out != reference[qi]:
            tally.mismatches += 1
        for engine in ENGINES:
            out, dt, exc = timed_op(
                lambda: engine_op(
                    tracer,
                    engine,
                    engines[engine],
                    state.data(engine),
                    query,
                    workload.method,
                    workload.workers,
                ),
                tally,
            )
            totals[engine] += dt
            tally.attempted += 1
            if exc is not None:
                tally.failed += 1
                tally.error(exc)
            elif out != reference.get(qi):
                tally.failed += 1
                tally.mismatches += 1
            else:
                passed.append((engine, dt))
    scale = host_scale(tally.probes[first_probe:])
    tally.scales.append(scale)
    for engine, dt in passed:
        tally.latencies[engine].append(dt * scale)
    return totals


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (self_kb + child_kb) / 1024.0


def lower_quartile(values: list[float]) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile (1..99) by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]
