"""Evaluation by joining useful partial embeddings (the general algorithm).

Works for any query decomposition over any data partition. Two stages:

1. For every (subquery, segment) pair the mapper enumerates the useful partial
   embeddings and ships each as a (subquery, (ids, mask)) record: the ID of
   every layout node's image, UNBOUND where it is unbound, and the bit mask of
   the subquery triples it matched. The reducer hands one subquery's fragments
   as they are to ``totals_from_fragments``, with the subquery's layout
   star (``QueryLayout.stars``). It splits them by the image of that star's
   centre, the one the stars engine assembles around too, and skips an
   image whose fragments together miss a triple. For every other image,
   the totals are the product, over the far nodes (the endpoints that are
   not the centre), of the images that every triple through the node
   witnessed, the same product the stars engine's reducer builds. That is
   sound because each witness is a data triple at the centre image, and
   complete because, by the closure rule, every triple of a total is
   matched by some useful partial that carries the same centre image. (A
   centre-less subquery from a hand-built plan is the join of the
   (subject, object) pairs its fragments witnessed for each triple.) Each
   total is emitted as a (subquery, ids) record.
2. Final join (shared): group the totals by their common-border IDs, join
   the subqueries inside each group over the positions they share, and
   project the output pattern, each variable read from one place.

``run_qejpe`` builds the phase-1 job; ``evalcore.run_phases`` runs it and
the shared join.
"""

from __future__ import annotations

from .embedding import enumerate_useful_partial, preprocess, totals_from_fragments
from .evalcore import (
    CARTESIAN_CAP,
    EvalResult,
    answers_from_records,
    checked_data,
    run_phases,
)
from .model import Query, QueryDecomposition
from .runtime import Job, run_job

__all__ = ["qejpe_map1_records", "qejpe_reduce1_fn", "run_qejpe"]


def qejpe_map1_records(layout, sub_idx: int, segment, border, dictionary):
    """Useful partial fragments of one subquery against one segment, as
    (subquery index, (ids, mask)) shuffle records, images as their IDs in
    ``dictionary``. Pure, for direct testing."""
    code = dictionary.ids.__getitem__
    return [
        (sub_idx, (tuple(map(code, images)), matched))
        for images, matched in enumerate_useful_partial(
            layout.subqueries[sub_idx], segment, border, layout.nodes
        )
    ]


def qejpe_reduce1_fn(layout, *, cap: int = CARTESIAN_CAP):
    stars = layout.stars

    def fn(key, values, em):
        sub, star = layout.subqueries[key], stars[key]
        for ids in totals_from_fragments(sub, values, layout.nodes, star, cap=cap):
            em.emit(key, ids)

    return fn


def run_qejpe(
    data,
    query: Query | None,
    decomposition: QueryDecomposition,
    *,
    workers: int = 1,
    cartesian_cap: int = CARTESIAN_CAP,
) -> EvalResult:
    dec_data = checked_data(data, query, decomposition)
    layout = preprocess(decomposition)
    dictionary = dec_data.dictionary

    def map1(key, _value, em):
        i, j = key
        for rec_key, rec_val in qejpe_map1_records(
            layout, i, dec_data.segments[j], dec_data.borders[j], dictionary
        ):
            em.emit(rec_key, rec_val)

    phase1 = Job("useful-partials", map1, qejpe_reduce1_fn(layout, cap=cartesian_cap))
    records, stats, counts = run_phases(
        layout, dec_data, phase1, workers=workers, cap=cartesian_cap, run_job=run_job
    )
    return EvalResult(
        algorithm="qejpe",
        answers=answers_from_records(layout, records, dictionary),
        stats=stats,
        subquery_embeddings=counts,
        workers=workers,
    )
