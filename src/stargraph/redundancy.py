"""Evaluation over node-partitioned segments with replicated border triples.

Requires an s-decomposition of the data (segments induced by a partition of
the non-literal nodes, so every triple of a star around a node is locally
present in that node's segment) and an all-so-query decomposition of the
query. Under those two conditions every total embedding of a subquery is
computable inside a single segment: the one owning the image of the central
node. That deletes an entire shuffle round, which is why this runs in one and
a half phases:

- The only mapper, a map-only stage, enumerates per (subquery, segment) the
  subquery's total embeddings in that segment and emits, as a (subquery,
  ids) record with images as their IDs in the data decomposition's
  dictionary, each one whose so-centre image lies in the segment's own node
  block. Replicated triples let other segments find the same embedding, but
  an so-centre is the subject of a query triple, so its image is a data
  subject, never a literal, and lies in exactly one block: exactly one
  segment ships each total.
- The final join is the shared one, which joins the subqueries' totals
  inside each group of common-border IDs.

``run_redundancy`` checks the data and the decomposition as every engine
does (``evalcore.checked_data``), then the two conditions above, and hands
its map-only job to ``evalcore.run_phases``.
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
from .model import Query, QueryDecomposition, so_centers
from .runtime import Job, run_job

__all__ = ["red_map1_records", "run_redundancy"]


def red_map1_records(layout, sub_idx: int, centre: int, segment, block, dictionary):
    """The totals of one subquery that one segment owns, as (subquery index,
    ids) records, images as their IDs in ``dictionary``. The segment owns a
    total when its image at layout position ``centre``, the subquery's
    so-centre, lies in the segment's node ``block``, so exactly one segment
    ships each total. Pure, for direct testing."""
    code = dictionary.ids.__getitem__
    return [
        (sub_idx, tuple(map(code, images)))
        for images in enumerate_total(
            layout.subqueries[sub_idx], segment, layout.nodes
        )
        if images[centre] in block
    ]


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
    centres = [layout.node_index[so_centers(sub)[0]] for sub in layout.subqueries]
    blocks = dec_data.node_blocks
    dictionary = dec_data.dictionary

    def map1(key, _value, em):
        i, j = key
        em.records += red_map1_records(
            layout, i, centres[i], dec_data.segments[j], blocks[j], dictionary
        )

    records, stats, counts = run_phases(
        layout, dec_data, Job("segment-totals", map1, None),
        workers=workers, cap=cartesian_cap, run_job=run_job,
    )
    return EvalResult(
        algorithm="redundancy",
        answers=answers_from_records(layout, records, dictionary),
        stats=stats,
        subquery_embeddings=counts,
        workers=workers,
    )
