"""Machinery shared by the three distributed evaluation algorithms.

The engines differ only in how phase 1 finds each subquery's total
embeddings. Every phase-1 job outputs exactly one record per total:

    (sub, ids)    a total embedding of subquery ``sub``: the ID of every
                  layout node's image, UNBOUND (-1) for the nodes ``sub``
                  does not hold

and this module alone turns those records into the next stages' records.
Images travel as their IDs in the data decomposition's ``TermDictionary``,
so every record is built from ints, strs and tuples of them, and the
shuffle orders records by comparing them directly; ID order is term order.
Terms come back once, when ``answers_from_records`` decodes the answer rows.

The final join keys each (sub, ids) by the IDs of the common border nodes,
the border nodes every subquery holds. An answer binds each of them to one
value in every subquery, so all of an answer's totals meet in one group.
Inside it the reducer drops a group that lacks some subquery and joins the
subqueries' totals with ``embedding.plan_join``, a hash join over the layout
positions they share, and projects the query's output pattern, reading each
output variable from one place: a common-border variable from the key, any
other from the first subquery in the join that holds it. Because the
subqueries cover every query triple, that join is the answer set. When no
border node is missing, every border node is common, the key is the whole
border vector, the subqueries share no position past it, and the join is
the product of the group's totals. The output pattern is every variable,
and every engine ships each total once, so no two joined rows give the
same answer row.

This departs from the paper, whose second-phase mapper first completes the
border values a subquery lacks from the candidates the other subqueries
offer, and only then joins on the whole border vector. A plan whose common
border is empty (a path split into one-edge stars, say) puts every
candidate of a missing node in one group, so that completion crossed each
total with every value some owner offers, and it ran out of its cap on
5-edge paths whose answers the in-group join finds from a few hundred
totals. The join reaches the same answers in one job, since a value that
some owner of a node never offers matches no row of that owner.

``run_phases`` is the one driver of all three engines: two MapReduce jobs,
the engine's phase 1 and the final join, the join reading exactly phase 1's
output records. A phase-1 map task may put records straight into its job's
output by appending them to ``Emitter.output``, past the shuffle and the
reduce, as stars does with the totals of a centre image in the segment's
interior (``DataDecomposition.interiors``), which no other segment holds;
the next job reads them next to the reducer's output. Nothing is sorted
between jobs: each job's output reaches the next shuffle in emission order,
and the join's records are returned in it. Every job runs through the
``run_job`` the engine passes in, its own module's name for it, so whoever
replaces that name (a tracer, say) sees every job.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .errors import NotADecomposition
from .model import DataDecomposition, QueryDecomposition, TermDictionary
from .ntio import AnswerSet
from .embedding import QueryLayout, plan_join, tuple_getter
from .runtime import Job

__all__ = [
    "CARTESIAN_CAP",
    "EvalResult",
    "join_job",
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
    """``data``, once ``decomposition`` is known to belong to ``query``."""
    if query is not None and decomposition.query != query:
        raise NotADecomposition("decomposition does not belong to this query")
    return data


def join_job(layout: QueryLayout, cap: int = CARTESIAN_CAP) -> Job:
    """The final join, as the ``join-answers`` job.

    Its map keys each total (sub, ids) by the IDs of the common border and
    ships the whole ID vector. Its reduce drops a group that lacks some
    subquery and joins the rest with the one ``plan_join`` plan of this
    layout: the key as a one-row relation over the common border, then each
    subquery's totals over the positions of its variables outside the
    common border. ``cap`` bounds the live rows of one group's join.
    """
    index = layout.node_index
    common = tuple([index[n] for n in layout.common_border])
    cut = tuple_getter(common)
    nodes = layout.nodes
    schemas = [common]
    for sub in layout.subqueries:
        own = sub.variables.difference(layout.common_border)
        schemas.append(tuple([p if n in own else None for p, n in enumerate(nodes)]))
    out = tuple([index[v] for v in layout.query.output_pattern])
    join = plan_join(tuple(schemas), out)
    num_subs = len(layout.subqueries)

    def join_map(sub_idx, ids, em):
        em.emit(cut(ids), (sub_idx, ids))

    def join_reduce(key, values, em):
        by_sub: dict[int, list[tuple]] = {}
        for sub_idx, ids in values:
            by_sub.setdefault(sub_idx, []).append(ids)
        if len(by_sub) < num_subs:
            return
        for row in join([(key,), *map(by_sub.__getitem__, range(num_subs))], cap):
            em.emit(row, None)

    return Job("join-answers", join_map, join_reduce)


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
    """Run an engine's phase-1 job, then the final join, each through
    ``run_job``.

    Phase 1 reads one ((subquery, segment), None) record per pair and
    outputs one (subquery, ids) record per total embedding. Returns the
    join's records, both jobs' stats in order, and each subquery's total
    embeddings as counted in phase 1's output.
    """
    source = [
        ((i, j), None)
        for i in range(len(layout.subqueries))
        for j in range(len(data.segments))
    ]
    res = run_job(phase1, source, workers=workers)
    counts = dict.fromkeys(range(len(layout.subqueries)), 0)
    for sub_idx, _ in res.records:
        counts[sub_idx] += 1
    joined = run_job(join_job(layout, cap), res.records, workers=workers)
    return joined.records, [res.stats, joined.stats], counts
