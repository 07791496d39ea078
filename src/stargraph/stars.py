"""Evaluation specialized to star decompositions.

Phase 1 exploits that a star subquery's embeddings are determined by the
image of its central node. The mapper has two parts:

- Part 1 handles central images that might span segments (border nodes, and
  literals for object-central triples, since literals are never border): it
  emits one record per matching triple, keyed by (subquery, central image),
  carrying the triple's index and the image of its other endpoint. The
  reducer re-assembles whole stars: it intersects, per non-central node, the
  candidate lists of that node's triples, and takes the cartesian product
  over nodes. A star with a repeated neighbor node or a self-loop is exactly
  why the records carry the triple index: every triple must contribute its
  own witness list before a node's candidates are believed.
- Part 2 handles central images that live entirely inside one segment
  (neither border nor literal): whole-star embeddings enumerated locally and
  sent straight to the completion phase, alongside candidate values for
  subqueries missing a border node.

Phases 2 and 3 are the shared completion and final join.
"""

from __future__ import annotations

import itertools

from .embedding import Embedding, encode, enumerate_total, preprocess
from .errors import CartesianCapExceeded, NotADecomposition
from .evalcore import (
    CARTESIAN_CAP,
    EvalResult,
    answers_from_records,
    coerce_data,
    phase1_source,
    phase2_expand_fn,
    reduce2_fn,
)
from .model import (
    DataDecomposition,
    Query,
    QueryDecomposition,
    Term,
    so_centers,
    star_centers,
)
from .runtime import Job, Stage, run_job, run_pipeline

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


def stars_map1_records(layout, centers, sub_idx: int, segment, seg_idx: int, border):
    """Part-1 and part-2 records for one (subquery, segment) pair.

    Returns (part1, part2): part1 records are keyed (subquery, central image)
    and carry ("p", query-triple index, other-endpoint image); part2 records
    are keyed by subquery and carry the usual "e"/"v" shapes.
    """
    sub = layout.subqueries[sub_idx]
    center = centers[sub_idx]
    part1 = []
    for t, qidx in zip(sub.canonical, layout.to_query[sub_idx]):
        if t.s == center and t.o == center:
            # self-loop: the match itself is the witness, no neighbor image
            insts = (
                segment.by_subject_predicate(center, t.p)
                if center.is_constant
                else segment.by_predicate(t.p)
            )
            for inst in insts:
                if inst.s == inst.o and inst.s in border:
                    part1.append(((sub_idx, inst.s), ("p", qidx, inst.s)))
        elif t.s == center:
            if center.is_constant:
                insts = segment.by_subject_predicate(center, t.p)
            elif t.o.is_constant:
                insts = segment.by_object_predicate(t.o, t.p)
            else:
                insts = segment.by_predicate(t.p)
            for inst in insts:
                if t.o.is_constant and inst.o != t.o:
                    continue
                if inst.s in border:
                    part1.append(((sub_idx, inst.s), ("p", qidx, inst.o)))
        else:  # t.o == center
            if center.is_constant:
                insts = segment.by_object_predicate(center, t.p)
            elif t.s.is_constant:
                insts = segment.by_subject_predicate(t.s, t.p)
            else:
                insts = segment.by_predicate(t.p)
            for inst in insts:
                if t.s.is_constant and inst.s != t.s:
                    continue
                if inst.o in border or inst.o.is_literal:
                    part1.append(((sub_idx, inst.o), ("p", qidx, inst.s)))
    part2 = []
    for e in enumerate_total(sub, segment):
        img = e[center]
        if img in border or img.is_literal:
            continue
        bnv, nbnv = encode(e, layout)
        part2.append((sub_idx, ("e", bnv, nbnv)))
        for node, j in layout.missing_border:
            if node in e:
                part2.append((j, ("v", layout.node_index[node], e[node])))
    return part1, part2


def stars_reduce1_fn(layout, centers, *, cap: int = CARTESIAN_CAP):
    def fn(key, values, em):
        sub_idx, img = key
        sub = layout.subqueries[sub_idx]
        center = centers[sub_idx]
        positions = layout.to_query[sub_idx]
        witnesses: dict[int, set[Term]] = {}
        for tag, qidx, other in values:
            assert tag == "p"
            witnesses.setdefault(qidx, set()).add(other)
        # every triple of the star must have matched at least once
        for pos in positions:
            if not witnesses.get(pos):
                return
        # per non-central node, intersect the witness lists of its triples
        node_order = [n for n in sorted(sub.nodes) if n != center]
        pools: list[set[Term]] = []
        for node in node_order:
            pool: set[Term] | None = None
            for t, qidx in zip(sub.canonical, positions):
                if node not in t.nodes or (t.s == center and t.o == center):
                    continue
                lst = witnesses[qidx]
                pool = set(lst) if pool is None else pool & lst
            assert pool is not None, "non-central nodes share a triple with the center"
            if not pool:
                return
            pools.append(pool)
        count = 1
        for pool in pools:
            count *= len(pool)
        if count > cap:
            raise CartesianCapExceeded(
                f"star assembly for key {key!r} would produce {count} embeddings"
            )
        for combo in itertools.product(*pools):
            mapping = {center: img}
            mapping.update(zip(node_order, combo))
            bnv, nbnv = encode(Embedding(mapping), layout)
            em.emit(sub_idx, ("e", bnv, nbnv))
        # candidate values ride along once per key, never per embedding
        for node, j in layout.missing_border:
            if node == center:
                em.emit(j, ("v", layout.node_index[node], img))
            elif node in sub.nodes:
                idx = node_order.index(node)
                for u in pools[idx]:
                    em.emit(j, ("v", layout.node_index[node], u))

    return fn


def run_stars(
    data,
    query: Query | None,
    decomposition: QueryDecomposition,
    *,
    workers: int = 1,
    spill_threshold: int | None = None,
    cartesian_cap: int = CARTESIAN_CAP,
) -> EvalResult:
    dec_data: DataDecomposition = coerce_data(data)
    if query is not None and decomposition.query != query:
        raise NotADecomposition("decomposition does not belong to this query")
    layout = preprocess(decomposition)
    centers = resolve_centers(decomposition)

    def map1(key, _value, em):
        i, j = key
        part1, part2 = stars_map1_records(
            layout, centers, i, dec_data.segments[j], j, dec_data.borders[j]
        )
        for rec_key, rec_val in part1:
            em.emit(rec_key, rec_val)
        for rec_key, rec_val in part2:
            em.emit_side("whole-stars", rec_key, rec_val)

    counts = dict.fromkeys(range(len(layout.subqueries)), 0)

    def count_totals(records, side):
        for key, val in itertools.chain(records, side["whole-stars"]):
            if val[0] == "e":
                counts[key] += 1

    assembly = Job(
        "star-assembly",
        map1,
        stars_reduce1_fn(layout, centers, cap=cartesian_cap),
        side_channels=("whole-stars",),
    )
    result = run_pipeline(
        [
            Stage(assembly, observe=count_totals),
            Stage(
                Job("complete-borders", None, phase2_expand_fn(layout, cartesian_cap)),
                consume_sides=("whole-stars",),
            ),
            Stage(Job("join-answers", None, reduce2_fn(layout, cartesian_cap))),
        ],
        phase1_source(layout, dec_data),
        workers=workers,
        spill_threshold=spill_threshold,
        run_job=run_job,
    )
    return EvalResult(
        algorithm="stars",
        answers=answers_from_records(layout, result.records),
        stats=result.stats,
        subquery_embeddings=counts,
        workers=workers,
    )
