"""Evaluation over node-partitioned segments with replicated border triples.

Requires an s-decomposition of the data (segments induced by a partition of
the non-literal nodes, so every triple of a star around a node is locally
present in that node's segment) and an all-so-query decomposition of the
query. Under those two conditions every total embedding of a subquery is
computable inside a single segment: the one owning the image of the central
node. That deletes an entire shuffle round, which is why this runs in one and
a half phases:

- The only mapper enumerates, per (subquery, segment), the subquery's total
  embeddings in that segment and keys them by (subquery, common-border-node
  values). Records go straight to the completion step when any border node is
  missing somewhere, or straight to the final join when every subquery
  contains every border node. Replication means the same embedding can be
  found in several segments; the completion step dedups.
- Completion and final join are the shared phase-2/phase-3 code.
"""

from __future__ import annotations

from .embedding import encode, enumerate_total, preprocess
from .errors import NotADecomposition, NotAnSDecomposition, NotSoDecomposition
from .evalcore import (
    CARTESIAN_CAP,
    EvalResult,
    answers_from_records,
    coerce_data,
    phase1_source,
    phase2_expand_fn,
    reduce2_fn,
)
from .decompose import validate_decomposition
from .model import DataDecomposition, Query, QueryDecomposition
from .runtime import Job, Stage, run_job, run_pipeline

__all__ = ["red_map1_records", "run_redundancy"]


def red_map1_records(layout, sub_idx: int, segment, seg_idx: int):
    """Total embeddings of one subquery inside one segment, pre-routed.

    Returns (to_mapper2, to_reducer2). With missing border pairs present,
    records are keyed (subquery, common-border values) and tagged "e"/"v"
    for the completion step; otherwise border vectors are ground already and
    rows go directly to the final join as (bnv, (subquery, nbnv)).
    """
    sub = layout.subqueries[sub_idx]
    has_missing = bool(layout.missing_border)
    to_mapper2 = []
    to_reducer2 = []
    for e in enumerate_total(sub, segment):
        cb_key = tuple(e[n] for n in layout.common_border)
        bnv, nbnv = encode(e, layout)
        if has_missing:
            to_mapper2.append(((sub_idx, cb_key), ("e", bnv, nbnv)))
            for node, j in layout.missing_border:
                if node in e:
                    to_mapper2.append(
                        ((j, cb_key), ("v", layout.node_index[node], e[node]))
                    )
        else:
            assert all(v is not None for v in bnv)
            to_reducer2.append((bnv, (sub_idx, nbnv)))
    return to_mapper2, to_reducer2


def run_redundancy(
    data,
    query: Query | None,
    decomposition: QueryDecomposition,
    *,
    workers: int = 1,
    spill_threshold: int | None = None,
    cartesian_cap: int = CARTESIAN_CAP,
) -> EvalResult:
    dec_data: DataDecomposition = coerce_data(data)
    if not dec_data.is_s_decomposition:
        raise NotAnSDecomposition(
            "replicated evaluation needs node-partitioned segments"
        )
    if query is not None and decomposition.query != query:
        raise NotADecomposition("decomposition does not belong to this query")
    report = validate_decomposition(decomposition.query, decomposition)
    if not report.all_so:
        raise NotSoDecomposition(
            "replicated evaluation needs so-queries in every subquery slot"
        )
    layout = preprocess(decomposition)

    def map1(key, _value, em):
        i, j = key
        to_m2, to_r2 = red_map1_records(layout, i, dec_data.segments[j], j)
        for rec_key, rec_val in to_m2:
            em.emit_side("to-completion", rec_key, rec_val)
        for rec_key, rec_val in to_r2:
            em.emit_side("to-final-join", rec_key, rec_val)

    counts = dict.fromkeys(range(len(layout.subqueries)), 0)

    def count_totals(_records, side):
        for key, val in side["to-completion"]:
            if val[0] == "e":
                counts[key[0]] += 1
        for _key, val in side["to-final-join"]:
            counts[val[0]] += 1

    stages = [
        Stage(
            Job(
                "segment-totals",
                map1,
                None,
                side_channels=("to-completion", "to-final-join"),
            ),
            observe=count_totals,
        )
    ]
    # With no missing border nodes every record is already ground and the
    # completion job would shuffle an empty input, so it is skipped outright.
    if layout.missing_border:
        stages.append(
            Stage(
                Job("complete-borders", None, phase2_expand_fn(layout, cartesian_cap)),
                consume_sides=("to-completion",),
            )
        )
    stages.append(
        Stage(
            Job("join-answers", None, reduce2_fn(layout, cartesian_cap)),
            consume_sides=("to-final-join",),
        )
    )
    result = run_pipeline(
        stages,
        phase1_source(layout, dec_data),
        workers=workers,
        spill_threshold=spill_threshold,
        run_job=run_job,
    )
    return EvalResult(
        algorithm="redundancy",
        answers=answers_from_records(layout, result.records),
        stats=result.stats,
        subquery_embeddings=counts,
        workers=workers,
    )
