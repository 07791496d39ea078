"""Evaluation specialized to star decompositions.

Phase 1 exploits that a star subquery's embeddings are determined by the
image of its central node. The mapper has two parts:

- Part 1 handles central images that might span segments (border nodes, and
  literals for object-central triples, since literals are never border): it
  emits one record per matching triple, found through the same index lookup
  as ``enumerate_total``: ((subquery, central image), (query-triple index,
  image of the triple's other endpoint)). The reducer re-assembles whole
  stars: it intersects, per non-central node, the candidate lists of that
  node's triples, and takes the cartesian product over nodes. A star with a
  repeated neighbor node or a self-loop is exactly why the records carry the
  triple index: every triple must contribute its own witness list before a
  node's candidates are believed.
- Part 2 handles central images that live entirely inside one segment
  (neither border nor literal): whole-star embeddings enumerated locally.
  The mapper puts them straight into the stage's output (``emit_output``),
  past the star-assembly shuffle, so the next stage reads them next to the
  reducer's output.

Images travel as their IDs in the data decomposition's dictionary; the
mapper tests border membership and literals on the terms before encoding,
and the reducer writes each assembled star's IDs straight into their layout
positions. Both parts output each total as a (subquery, ids) record, the
ID vector over the layout's nodes. Border completion and the final join are
the shared ones: ``run_stars`` builds the phase-1 job and
``evalcore.run_phases`` runs it and the shared jobs.
"""

from __future__ import annotations

import itertools

from .embedding import candidates, enumerate_total, preprocess
from .errors import CartesianCapExceeded, NotADecomposition
from .evalcore import (
    CARTESIAN_CAP,
    EvalResult,
    answers_from_records,
    checked_data,
    run_phases,
)
from .model import (
    UNBOUND,
    Query,
    QueryDecomposition,
    Term,
    so_centers,
    star_centers,
)
from .runtime import Job, run_job

__all__ = ["resolve_centers", "stars_map1_records", "stars_reduce1_fn", "run_stars"]


def resolve_centers(dec: QueryDecomposition) -> tuple[Term, ...]:
    """A valid central node per subquery: the recorded one when valid, else
    the canonically first so-center, else the canonically first star center."""
    out = []
    for sub, recorded in zip(dec.subqueries, dec.centers):
        stars = star_centers(sub)
        if not stars:
            raise NotADecomposition("stars evaluation needs star-shaped subqueries")
        if recorded is not None and recorded in stars:
            out.append(recorded)
            continue
        so = so_centers(sub)
        out.append(so[0] if so else stars[0])
    return tuple(out)


def stars_map1_records(layout, centers, sub_idx: int, segment, border, dictionary):
    """Part-1 and part-2 records for one (subquery, segment) pair, images as
    their IDs in ``dictionary``.

    Returns (part1, part2): part1 records are keyed (subquery, central image)
    and carry (query-triple index, other-endpoint image); part2 records
    are the (subquery, ids) totals of the whole stars.
    """
    sub = layout.subqueries[sub_idx]
    center = centers[sub_idx]
    ids = dictionary.ids
    part1 = []
    for t, qidx in zip(sub.canonical, layout.to_query[sub_idx]):
        insts = candidates(
            segment, t,
            t.s if t.s.is_constant else None, t.o if t.o.is_constant else None,
        )
        if t.s == center and t.o == center:
            # self-loop: the match itself is the witness, no neighbor image
            part1.extend(
                ((sub_idx, ids[i.s]), (qidx, ids[i.s]))
                for i in insts if i.s == i.o and i.s in border
            )
        elif t.s == center:
            part1.extend(
                ((sub_idx, ids[i.s]), (qidx, ids[i.o]))
                for i in insts if i.s in border
            )
        else:  # t.o == center
            part1.extend(
                ((sub_idx, ids[i.o]), (qidx, ids[i.s]))
                for i in insts if i.o in border or i.o.is_literal
            )
    part2 = []
    center_pos = layout.node_index[center]
    code = ids.__getitem__
    for images in enumerate_total(sub, segment, layout.nodes):
        img = images[center_pos]
        if not (img in border or img.is_literal):
            part2.append((sub_idx, tuple(map(code, images))))
    return part1, part2


def stars_reduce1_fn(layout, centers, dictionary, *, cap: int = CARTESIAN_CAP):
    """Star assembly over IDs; ``dictionary`` decodes the key of a cap
    message."""

    def fn(key, values, em):
        sub_idx, img = key
        sub = layout.subqueries[sub_idx]
        center = centers[sub_idx]
        positions = layout.to_query[sub_idx]
        witnesses: dict[int, set[int]] = {}
        for qidx, other in values:
            witnesses.setdefault(qidx, set()).add(other)
        # every triple of the star must have matched at least once
        for pos in positions:
            if not witnesses.get(pos):
                return
        # per non-central node, intersect the witness lists of its triples
        node_order = [n for n in sorted(sub.nodes) if n != center]
        pools: list[set[int]] = []
        for node in node_order:
            pool: set[int] | None = None
            for t, qidx in zip(sub.canonical, positions):
                if node not in t.nodes or (t.s == center and t.o == center):
                    continue
                lst = witnesses[qidx]
                pool = set(lst) if pool is None else pool & lst
            if not pool:
                return
            pools.append(pool)
        count = 1
        for pool in pools:
            count *= len(pool)
        if count > cap:
            shown = (sub_idx, dictionary.terms[img])
            raise CartesianCapExceeded(
                f"star assembly for key {shown!r} would produce {count} embeddings"
            )
        vector = [UNBOUND] * len(layout.nodes)
        vector[layout.node_index[center]] = img
        slots = [layout.node_index[node] for node in node_order]
        for combo in itertools.product(*pools):
            for pos, u in zip(slots, combo):
                vector[pos] = u
            em.emit(sub_idx, tuple(vector))

    return fn


def run_stars(
    data,
    query: Query | None,
    decomposition: QueryDecomposition,
    *,
    workers: int = 1,
    cartesian_cap: int = CARTESIAN_CAP,
) -> EvalResult:
    dec_data = checked_data(data, query, decomposition)
    layout = preprocess(decomposition)
    centers = resolve_centers(decomposition)
    dictionary = dec_data.dictionary

    def map1(key, _value, em):
        i, j = key
        part1, part2 = stars_map1_records(
            layout, centers, i, dec_data.segments[j], dec_data.borders[j], dictionary
        )
        for rec_key, rec_val in part1:
            em.emit(rec_key, rec_val)
        for rec_key, rec_val in part2:
            em.emit_output(rec_key, rec_val)

    phase1 = Job(
        "star-assembly", map1,
        stars_reduce1_fn(layout, centers, dictionary, cap=cartesian_cap),
    )
    records, stats, counts = run_phases(
        layout, dec_data, phase1, workers=workers, cap=cartesian_cap, run_job=run_job
    )
    return EvalResult(
        algorithm="stars",
        answers=answers_from_records(layout, records, dictionary),
        stats=stats,
        subquery_embeddings=counts,
        workers=workers,
    )
