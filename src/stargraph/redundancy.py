"""Evaluation over node-partitioned segments with replicated border triples.

Requires an s-decomposition of the data (segments induced by a partition of
the non-literal nodes, so every triple of a star around a node is locally
present in that node's segment) and an all-so-query decomposition of the
query. Under those two conditions every total embedding of a subquery is
computable inside a single segment: the one owning the image of the central
node. That deletes an entire shuffle round, which is why this runs in one and
a half phases:

- The only mapper, a map-only stage, enumerates per (subquery, segment) the
  subquery's total embeddings in that segment. When any border node is
  missing somewhere, its records are keyed by (subquery, common-border-node
  values) for the completion step. When every subquery contains every border
  node, the completion step is left out and its records are already the
  final join's (border vector, (subquery, non-border values)). Either way
  the next stage reads the mapper's output. Replication means the same
  embedding can be found in several segments; the completion step dedups.
  Completion takes each candidate set within one (subquery, common-border
  values) group, which is sound because an answer agrees on the common
  border in every subquery.
  Images travel as their IDs in the data decomposition's dictionary.
- Completion and final join are the shared phase-2/phase-3 code.

``run_redundancy`` checks the data and the decomposition as every engine
does (``evalcore.checked_data``), then the two conditions above, and hands
its map-only job to ``evalcore.run_phases``, with the completion step only
when some border node is missing.
"""

from __future__ import annotations

from .embedding import enumerate_total, preprocess
from .errors import NotAnSDecomposition, NotSoDecomposition
from .evalcore import (
    CARTESIAN_CAP,
    EvalResult,
    answers_from_records,
    checked_data,
    run_phases,
)
from .decompose import validate_decomposition
from .model import UNBOUND, Query, QueryDecomposition
from .runtime import Job, run_job

__all__ = ["red_map1_records", "run_redundancy"]


def red_map1_records(layout, sub_idx: int, segment, seg_idx: int, dictionary):
    """Total embeddings of one subquery inside one segment, as records for
    the stage that runs next, images as their IDs in ``dictionary``.

    With missing border pairs present, records are keyed (subquery,
    common-border values) and tagged "e"/"v" for the completion step, a "v"
    record naming ``sub_idx`` as the subquery that offers its value;
    otherwise border vectors are ground already and records are the final
    join's (bnv, (subquery, nbnv)).
    """
    sub = layout.subqueries[sub_idx]
    has_missing = bool(layout.missing_border)
    common, missing = layout.common_positions, layout.missing_positions
    code = dictionary.ids.__getitem__
    out = []
    for images in enumerate_total(sub, segment, layout.nodes):
        bnv, nbnv = layout.split(tuple(map(code, images)))
        if has_missing:
            cb_key = tuple([bnv[i] for i in common])
            out.append(((sub_idx, cb_key), ("e", bnv, nbnv)))
            for pos, j in missing:
                if bnv[pos] != UNBOUND:
                    out.append(((j, cb_key), ("v", pos, bnv[pos], sub_idx)))
        else:
            assert UNBOUND not in bnv
            out.append((bnv, (sub_idx, nbnv)))
    return out


def run_redundancy(
    data,
    query: Query | None,
    decomposition: QueryDecomposition,
    *,
    workers: int = 1,
    cartesian_cap: int = CARTESIAN_CAP,
) -> EvalResult:
    dec_data = checked_data(data, query, decomposition)
    if not dec_data.is_s_decomposition:
        raise NotAnSDecomposition(
            "replicated evaluation needs node-partitioned segments"
        )
    report = validate_decomposition(decomposition.query, decomposition)
    if not report.all_so:
        raise NotSoDecomposition(
            "replicated evaluation needs so-queries in every subquery slot"
        )
    layout = preprocess(decomposition)
    dictionary = dec_data.dictionary

    def map1(key, _value, em):
        i, j = key
        for rec_key, rec_val in red_map1_records(
            layout, i, dec_data.segments[j], j, dictionary
        ):
            em.emit(rec_key, rec_val)

    # With no missing border nodes every record is already ground, so the
    # completion step is left out and the final join reads the map output.
    records, stats, counts = run_phases(
        layout, dec_data, Job("segment-totals", map1, None),
        complete=bool(layout.missing_border), workers=workers,
        cap=cartesian_cap, run_job=run_job,
    )
    return EvalResult(
        algorithm="redundancy",
        answers=answers_from_records(layout, records, dictionary),
        stats=stats,
        subquery_embeddings=counts,
        workers=workers,
    )
