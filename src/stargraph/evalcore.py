"""Machinery shared by the three distributed evaluation algorithms.

The engines differ only in how phase 1 finds each subquery's total
embeddings. Every phase-1 job outputs one record per total it finds:

    (sub, ids)    a total embedding of subquery ``sub``: the ID of every
                  layout node's image, UNBOUND (-1) for the nodes ``sub``
                  does not hold

and this module alone turns those records into the next stages' records.
Images travel as their IDs in the data decomposition's ``TermDictionary``,
so every record is built from ints, strs and tuples of them, and the
shuffle orders records by comparing them directly; ID order is term order.
Terms come back once, when ``answers_from_records`` decodes the answer rows.

Border completion (the paper's second-phase mapper) runs when some border
node is missing from some subquery. Its map keys every total by (sub, the
IDs of the common border nodes, which every subquery holds) and ships it as

    ("e", ids)           the total itself
    ("v", pos, id, src)  for each border position ``pos`` the total binds
                         and subquery j lacks, a candidate value offered by
                         ``src``, keyed (j, common-border IDs) instead

An answer binds a common border node to one value in every subquery, so a
group holds all it needs. The reduce fills each total's unbound border
positions from the candidates and emits the filled totals as (sub, ids). A
position's candidate set is the intersection, not the union, of the values
its owners offer (the subqueries that contain its node): an answer binds
the node to one value in every owner, so a value some owner never offers
could only complete records that the final join drops (a semi-join
reduction, Bernstein and Chiu, JACM 1981).

The final join maps each (sub, ids) to (border vector, (sub, non-border
vector)), requires a record from every subquery per ground border vector,
and projects the query's output pattern, reading each output variable from
one place: a border variable from the key, any other from the one subquery
that holds it (a non-literal node held by two subqueries is a border node).
The output pattern is every variable, and the join dedupes each subquery's
records, so two records of one subquery under one key differ at a variable
that subquery alone holds, and no two (key, combination) pairs give the
same row.

``run_phases`` is the one driver of all three engines: a chain of MapReduce
jobs (the engine's phase 1, the completion step when a border node is
missing, the final join), each reading exactly the previous job's output
records. A phase-1 map task may put records straight into its job's output
with ``Emitter.emit_output``, past the shuffle and the reduce; the next job
reads them next to the reducer's output. Nothing is sorted between jobs:
each job's output reaches the next shuffle in emission order, and the
join's records are returned in it. Every job runs through the ``run_job``
the engine passes in, its own module's name for it, so whoever replaces
that name (a tracer, say) sees every job.
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
    "phase2_map_fn",
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


def phase2_map_fn(layout: QueryLayout):
    """Map function of border completion: a total (sub, ids) as its
    ("e", ids) record keyed (sub, common-border IDs), and one
    ("v", pos, id, sub) candidate per missing-border pair (pos, j) whose
    node it binds, keyed (j, common-border IDs)."""
    common, missing = layout.common_positions, layout.missing_positions

    def fn(sub_idx, ids, em):
        cb = tuple([ids[i] for i in common])
        em.emit((sub_idx, cb), ("e", ids))
        for pos, j in missing:
            if ids[pos] != UNBOUND:
                em.emit((j, cb), ("v", pos, ids[pos], sub_idx))

    return fn


def phase2_expand_fn(
    layout: QueryLayout, dictionary: TermDictionary, cap: int = CARTESIAN_CAP
):
    """Reduce function of border completion.

    A group holds one subquery's totals and the candidates for its missing
    border positions, under one (subquery, common-border IDs) key. A
    candidate fills its position only once every owner of the position's
    node has offered it. Emits every total once per way of filling its
    holes, as (subquery, ids). ``dictionary`` decodes the key of a cap
    message.
    """
    owners = [
        sum(node in sub.nodes for sub in layout.subqueries)
        for node in layout.border_nodes
    ]
    holes_of = [
        [pos for pos, j in layout.missing_positions if j == sub_idx]
        for sub_idx in range(len(layout.subqueries))
    ]

    def fn(key, values, em):
        sub_idx, cb = key
        totals: list[tuple] = []
        candidates: dict[int, list[int]] = {}
        last = None
        offered = None  # the (pos, id) whose sources are being counted
        for val in values:
            if val == last:  # values arrive sorted, so a duplicate is adjacent
                continue
            last = val
            if val[0] == "e":
                totals.append(val[1])
            else:
                # the distinct sources of one (pos, id) arrive as one run
                if val[1:3] != offered:
                    offered, sources = val[1:3], 0
                sources += 1
                if sources == owners[val[1]]:
                    candidates.setdefault(val[1], []).append(val[2])
        holes = holes_of[sub_idx]
        pools = [candidates.get(i, ()) for i in holes]
        count = len(totals)
        for pool in pools:
            count *= len(pool)
        if count > cap:
            shown = (sub_idx, dictionary.decode(cb))
            raise CartesianCapExceeded(
                f"border completion for key {shown!r} exceeded {cap} records"
            )
        for ids in totals:
            filled = list(ids)
            for combo in itertools.product(*pools):
                for i, v in zip(holes, combo):
                    filled[i] = v
                em.emit(sub_idx, tuple(filled))

    return fn


def reduce2_fn(
    layout: QueryLayout, dictionary: TermDictionary, cap: int = CARTESIAN_CAP
):
    """Final join: one record per subquery per ground border vector.

    Each output variable is read from one place: a border variable from the
    key, any other from the non-border vector of the one subquery holding
    it. Every (key, combination) is therefore a distinct answer row.
    ``dictionary`` decodes the key of a cap message."""
    num_subs = len(layout.subqueries)
    n_border = len(layout.border_nodes)
    sources = []  # per output variable: (0, key position) or (1 + owner, position)
    for v in layout.query.output_pattern:
        pos = layout.node_index[v]
        if pos < n_border:
            sources.append((0, pos))
        else:
            owner = next(j for j, sub in enumerate(layout.subqueries) if v in sub.nodes)
            sources.append((1 + owner, pos - n_border))

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
        for combo in itertools.product((key,), *pools):
            em.emit(tuple([combo[s][i] for s, i in sources]), None)

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
    workers: int,
    cap: int,
    run_job,
) -> tuple[list[tuple], list[dict], dict[int, int]]:
    """Run an engine's phase-1 job, then border completion when a border
    node is missing from some subquery, then the final join, each through
    ``run_job``.

    Phase 1 reads one ((subquery, segment), None) record per pair and
    outputs one (subquery, ids) record per total embedding. Returns the
    join's records, every job's stats in order, and each subquery's total
    embeddings as counted in phase 1's output.
    """
    dictionary = data.dictionary

    def join_map(sub_idx, ids, em):
        bnv, nbnv = layout.split(ids)
        em.emit(bnv, (sub_idx, nbnv))

    jobs = []
    if layout.missing_border:
        expand = phase2_expand_fn(layout, dictionary, cap)
        jobs.append(Job("complete-borders", phase2_map_fn(layout), expand))
    jobs.append(Job("join-answers", join_map, reduce2_fn(layout, dictionary, cap)))
    source = [
        ((i, j), None)
        for i in range(len(layout.subqueries))
        for j in range(len(data.segments))
    ]
    res = run_job(phase1, source, workers=workers)
    counts = dict.fromkeys(range(len(layout.subqueries)), 0)
    for sub_idx, _ in res.records:
        counts[sub_idx] += 1
    stats = [res.stats]
    records = res.records
    for job in jobs:
        res = run_job(job, records, workers=workers)
        stats.append(res.stats)
        records = res.records
    return records, stats, counts
