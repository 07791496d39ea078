"""Machinery shared by the three distributed evaluation algorithms.

All engines meet in the same final join. Phase 1 differs per algorithm but
always ends with, per subquery, records of two tagged shapes:

    ("e", bnv, nbnv)   a total embedding of the subquery, split into its
                       border-node vector and non-border vector
    ("v", pos, id, src)  a candidate value for the border-node position
                       ``pos``, offered by subquery ``src``, which contains
                       that node, and sent to every subquery that does not

Images travel as their IDs in the data decomposition's ``TermDictionary``,
UNBOUND (-1) marking an unbound position, so every record is built from
ints, strs, bools and tuples of them, and the shuffle orders records by
comparing them directly; ID order is term order. Terms come back once, when
``answers_from_records`` decodes the answer rows.

The completion step (the second-phase mapper, run here as a reduce over the
grouping key) dedups both lists, fills every unbound border position of every
embedding from the candidate sets, and emits fully ground border vectors. A
position's candidate set is the intersection, not the union, of the values
its owners offer (the subqueries that contain its node): an answer binds
the node to one value in every owner, so a value some owner never offers
could only complete records that the final join drops (a semi-join
reduction, Bernstein and Chiu, JACM 1981). The final reducer groups by
ground border vector, requires a record from every subquery, merges the
non-border vectors positionally, and projects the query's output pattern.

``run_phases`` is the one driver of all three engines: a chain of MapReduce
jobs (the engine's phase 1; the completion step, unless phase 1 already
emits ground border vectors; the final join), each reading exactly the
previous job's output records. A phase-1 map task may put records straight into its
job's output with ``Emitter.emit_output``, past the shuffle and the reduce;
the next job reads them next to the reducer's output. Nothing is sorted
between jobs: each job's output reaches the next shuffle in emission order,
and the join's records are returned in it. Every job runs through the
``run_job`` the engine passes in, its own module's name for it, so whoever
replaces that name (a tracer, say) sees every job.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CartesianCapExceeded, NotADecomposition
from .model import UNBOUND, DataDecomposition, QueryDecomposition, TermDictionary
from .ntio import AnswerSet, read_segments
from .embedding import QueryLayout
from .runtime import Job

__all__ = [
    "CARTESIAN_CAP",
    "EvalResult",
    "phase2_expand_fn",
    "reduce2_fn",
    "answers_from_records",
    "checked_data",
    "run_phases",
]

CARTESIAN_CAP = 1_000_000


@dataclass
class EvalResult:
    algorithm: str
    answers: AnswerSet
    stats: list[dict] = field(default_factory=list)
    subquery_embeddings: dict[int, int] = field(default_factory=dict)
    workers: int = 1


def checked_data(data, query, decomposition: QueryDecomposition) -> DataDecomposition:
    """``data`` as a data decomposition (read from its manifest when it is a
    path), once ``decomposition`` is known to belong to ``query``."""
    if not isinstance(data, DataDecomposition):
        data = read_segments(Path(data))
    if query is not None and decomposition.query != query:
        raise NotADecomposition("decomposition does not belong to this query")
    return data


def _sub_index(key) -> int:
    return key if isinstance(key, int) else key[0]


def phase2_expand_fn(
    layout: QueryLayout, dictionary: TermDictionary, cap: int = CARTESIAN_CAP
):
    """Reduce function that completes starred border positions.

    Keys are either a subquery index or (subquery index, common-border IDs);
    values are the tagged records described in the module docstring. A
    candidate fills its position only once every owner of the position's
    node has offered it. Emits (ground bnv, (subquery index, nbnv)) pairs.
    ``dictionary`` decodes the key of a cap message.
    """
    owners = [
        sum(node in sub.nodes for sub in layout.subqueries)
        for node in layout.border_nodes
    ]

    def fn(key, values, em):
        sub_idx = _sub_index(key)
        embeddings: list[tuple] = []
        candidates: dict[int, list[int]] = {}
        last = None
        offered = None  # the (pos, id) whose sources are being counted
        for val in values:
            if val == last:  # values arrive sorted, so a duplicate is adjacent
                continue
            last = val
            tag = val[0]
            if tag == "e":
                embeddings.append((val[1], val[2]))
            elif tag == "v":
                # the distinct sources of one (pos, id) arrive as one run
                if val[1:3] != offered:
                    offered, sources = val[1:3], 0
                sources += 1
                if sources == owners[val[1]]:
                    candidates.setdefault(val[1], []).append(val[2])
            else:
                raise ValueError(f"unknown phase-2 record tag {tag!r}")
        emitted = 0
        for bnv, nbnv in embeddings:
            holes = [i for i, v in enumerate(bnv) if v == UNBOUND]
            pools = []
            ok = True
            for i in holes:
                pool = candidates.get(i)
                if not pool:
                    ok = False  # nothing anywhere can ground this position
                    break
                pools.append(pool)
            if not ok:
                continue
            for combo in itertools.product(*pools):
                emitted += 1
                if emitted > cap:
                    if not isinstance(key, int):
                        key = (sub_idx, dictionary.decode(key[1]))
                    raise CartesianCapExceeded(
                        f"border completion for key {key!r} exceeded {cap} records"
                    )
                filled = list(bnv)
                for i, v in zip(holes, combo):
                    filled[i] = v
                em.emit(tuple(filled), (sub_idx, nbnv))

    return fn


def reduce2_fn(
    layout: QueryLayout, dictionary: TermDictionary, cap: int = CARTESIAN_CAP
):
    """Final join: one record per subquery per ground border vector.
    ``dictionary`` decodes the key of a cap message."""
    num_subs = len(layout.subqueries)
    n_border = len(layout.border_nodes)
    out_positions = [layout.node_index[v] for v in layout.query.output_pattern]

    def fn(key, values, em):
        by_sub: dict[int, list[tuple]] = {}
        last = None
        for val in values:
            if val != last:  # values arrive sorted, so a duplicate is adjacent
                last = val
                by_sub.setdefault(val[0], []).append(val[1])
        if len(by_sub) < num_subs:
            return
        pools = [by_sub[i] for i in range(num_subs)]
        count = 1
        for pool in pools:
            count *= len(pool)
        if count > cap:
            raise CartesianCapExceeded(
                f"final join for key {dictionary.decode(key)!r} would produce "
                f"{count} combinations"
            )
        rows: set[tuple] = set()
        for combo in itertools.product(*pools):
            merged = [UNBOUND] * len(layout.nonborder_nodes)
            consistent = True
            for nbnv in combo:
                for i, v in enumerate(nbnv):
                    if v == UNBOUND:
                        continue
                    if merged[i] == UNBOUND:
                        merged[i] = v
                    elif merged[i] != v:
                        consistent = False
                        break
                if not consistent:
                    break
            if not consistent:
                continue
            row = []
            for pos in out_positions:
                value = key[pos] if pos < n_border else merged[pos - n_border]
                assert value != UNBOUND, "output variable left unbound"
                row.append(value)
            rows.add(tuple(row))
        for row in rows:
            em.emit(row, None)

    return fn


def answers_from_records(
    layout: QueryLayout, records: list[tuple], dictionary: TermDictionary
) -> AnswerSet:
    """The answer set of the final join's (row, None) records, each row's
    IDs decoded to its terms."""
    terms = dictionary.terms
    return AnswerSet(
        layout.query.output_pattern,
        [tuple(map(terms.__getitem__, row)) for row, _ in records],
    )


def run_phases(
    layout: QueryLayout,
    data: DataDecomposition,
    phase1: Job,
    *,
    complete: bool,
    workers: int,
    cap: int,
    run_job,
) -> tuple[list[tuple], list[dict], dict[int, int]]:
    """Run an engine's phase-1 job, then border completion when ``complete``,
    then the final join, each through ``run_job``.

    Phase 1 reads one ((subquery, segment), None) record per pair. Its output
    is the completion step's tagged records when ``complete``, else already
    the join's (bnv, (subquery, nbnv)) records. Returns the join's records,
    every job's stats in order, and each subquery's total embeddings as
    counted in phase 1's output.
    """
    dictionary = data.dictionary
    source = [
        ((i, j), None)
        for i in range(len(layout.subqueries))
        for j in range(len(data.segments))
    ]
    res = run_job(phase1, source, workers=workers)
    counts = dict.fromkeys(range(len(layout.subqueries)), 0)
    join = Job("join-answers", None, reduce2_fn(layout, dictionary, cap))
    if complete:
        expand = phase2_expand_fn(layout, dictionary, cap)
        jobs = [Job("complete-borders", None, expand), join]
        for key, val in res.records:
            if val[0] == "e":
                counts[_sub_index(key)] += 1
    else:
        jobs = [join]
        for _bnv, (sub_idx, _nbnv) in res.records:
            counts[sub_idx] += 1
    stats = [res.stats]
    records = res.records
    for job in jobs:
        res = run_job(job, records, workers=workers)
        stats.append(res.stats)
        records = res.records
    return records, stats, counts
