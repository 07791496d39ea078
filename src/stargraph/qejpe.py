"""Evaluation by joining useful partial embeddings (the general algorithm).

Works for any query decomposition over any data partition. Three stages:

1. For every (subquery, segment) pair the mapper enumerates the useful partial
   embeddings and keys them by subquery, their images as dictionary IDs. The
   reducer joins the fragments of one subquery into its total embeddings
   over those IDs, one image of the subquery's star centre at a time
   (``totals_from_fragments``; a centre-less subquery from a hand-built plan
   is joined in one pass through a per-image index of its fragments), then
   emits each total twice over:
   once as an ("e", bnv, nbnv) record keyed by its subquery, and once per
   missing-border pair as a candidate ("v", position, value) record keyed by
   the subquery lacking that border node.
2. Border completion (shared): unbound border positions are filled from the
   candidate sets, yielding fully ground border vectors.
3. Final join (shared): group by border vector, require every subquery,
   merge non-border values, project the output pattern.

``run_qejpe`` builds the phase-1 job; ``evalcore.run_phases`` runs it and
the two shared jobs.
"""

from __future__ import annotations

from itertools import compress

from .embedding import (
    Embedding,
    encode,
    enumerate_useful_partial,
    id_vectors,
    preprocess,
    totals_from_fragments,
)
from .evalcore import (
    CARTESIAN_CAP,
    EvalResult,
    answers_from_records,
    checked_data,
    run_phases,
)
from .model import UNBOUND, Query, QueryDecomposition
from .runtime import Job, run_job

__all__ = ["qejpe_map1_records", "qejpe_reduce1_fn", "run_qejpe"]


def qejpe_map1_records(
    layout, sub_idx: int, segment, seg_idx: int, border, dictionary
):
    """Useful partial fragments of one subquery against one segment, as
    shuffle records keyed by subquery index, images as their IDs in
    ``dictionary``. Pure, for direct testing."""
    positions = layout.to_query[sub_idx]
    n = len(layout.triples)
    # fragments share few matched sets, so each set's flag tuple is built once
    flags: dict[frozenset[int], tuple[bool, ...]] = {}
    out = []
    for emb, matched in enumerate_useful_partial(
        layout.subqueries[sub_idx], segment, border
    ):
        tm = flags.get(matched)
        if tm is None:
            hit = {positions[i] for i in matched}
            tm = flags[matched] = tuple(q in hit for q in range(n))
        bnv, nbnv = encode(emb, layout, dictionary)
        out.append((sub_idx, ("f", seg_idx, bnv, nbnv, tm)))
    return out


def qejpe_reduce1_fn(layout, *, cap: int = CARTESIAN_CAP):
    nodes = layout.border_nodes + layout.nonborder_nodes
    bound = UNBOUND.__ne__

    def fn(key, values, em):
        sub_idx = key
        sub = layout.subqueries[sub_idx]
        back = layout.to_sub[sub_idx]
        matched_of: dict[tuple[bool, ...], frozenset[int]] = {}
        fragments = []
        for tag, seg_idx, bnv, nbnv, tm in values:
            assert tag == "f"
            matched = matched_of.get(tm)
            if matched is None:
                matched = matched_of[tm] = frozenset(
                    back[q] for q, flag in enumerate(tm) if flag and q in back
                )
            images = bnv + nbnv
            emb = Embedding(compress(zip(nodes, images), map(bound, images)))
            fragments.append((emb, matched, seg_idx))
        for e in totals_from_fragments(sub, fragments, cap=cap):
            bnv, nbnv = id_vectors(e, layout)
            em.emit(sub_idx, ("e", bnv, nbnv))
            for pos, j in layout.missing_positions:
                if bnv[pos] != UNBOUND:
                    em.emit(j, ("v", pos, bnv[pos]))

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
            layout, i, dec_data.segments[j], j, dec_data.borders[j], dictionary
        ):
            em.emit(rec_key, rec_val)

    phase1 = Job("useful-partials", map1, qejpe_reduce1_fn(layout, cap=cartesian_cap))
    records, stats, counts = run_phases(
        layout, dec_data, phase1,
        complete=True, workers=workers, cap=cartesian_cap, run_job=run_job,
    )
    return EvalResult(
        algorithm="qejpe",
        answers=answers_from_records(layout, records, dictionary),
        stats=stats,
        subquery_embeddings=counts,
        workers=workers,
    )
