"""Evaluation specialized to star decompositions.

Phase 1 exploits that a star subquery's embeddings are determined by the
image of its central node. The mapper has two parts:

- Part 1 handles central images outside the segment's interior
  (``DataDecomposition.interiors``, the same ID set qejpe's closure rule
  reads): border nodes, and literals for object-central triples, since
  literals are never border. Such an image may have triples in other
  segments. Part 1 emits one record per matching triple, found through the
  same index lookup as ``enumerate_total``: ((subquery, central image), (k,
  image of the triple's other endpoint)), k being the triple's canonical
  position in the subquery. A key whose witnesses cover every triple has as
  totals the product ``star_totals`` builds, over the non-central nodes, of
  the images that every triple through the node witnessed; qejpe's reducer
  builds the same product from its fragments. Every combination is a total,
  since each witness is a data triple at the central image, and every total
  is one, since each of its triples lies in some segment and is witnessed
  there. A repeated neighbor node needs no code here: its pool is the
  intersection of its triples' witnesses. Nor does a self-loop, whose
  witness is the central image itself and meets the centre's pool of that
  one image.
- Part 2 handles central images in the interior, whose every triple lies
  in the segment: whole-star embeddings enumerated locally. A constant
  centre outside the interior skips it. The mapper puts them straight into
  the stage's output (``Emitter.output``), past the star-assembly shuffle,
  so the next stage reads them next to the reducer's output.

The central node of each subquery is its layout star's (``QueryLayout.stars``,
decided once by ``embedding.star_of``), the same centre whose images qejpe
splits its fragments by. ``run_stars`` rejects a decomposition with a
subquery that has no star centre before any job runs.

Images travel as their IDs in the data decomposition's dictionary, and
the mapper splits them between the parts by testing those IDs against the
interior.
Both parts output each total as a (subquery, ids) record, the ID vector
over the layout's nodes. The final join is the shared one: ``run_stars``
builds the phase-1 job and ``evalcore.run_phases`` runs it and the join.
"""

from __future__ import annotations

from .embedding import candidates, enumerate_total, preprocess, star_totals
from .errors import NotADecomposition
from .evalcore import (
    CARTESIAN_CAP,
    EvalResult,
    answers_from_records,
    checked_data,
    run_phases,
)
from .model import Query, QueryDecomposition
from .runtime import Job, run_job

__all__ = ["stars_map1_records", "stars_reduce1_fn", "run_stars"]


def stars_map1_records(layout, sub_idx: int, segment, interior, dictionary):
    """Part-1 and part-2 records for one (subquery, segment) pair, images as
    their IDs in ``dictionary``; ``interior`` is the segment's entry in
    ``DataDecomposition.interiors``.

    Returns (part1, part2): part1 records are keyed (subquery, central image)
    and carry (k, other-endpoint image), k the matched triple's canonical
    position in the subquery, for each central image outside ``interior``;
    part2 records are the (subquery, ids) totals of the whole stars whose
    central image is in it.
    """
    sub = layout.subqueries[sub_idx]
    center_pos = layout.stars[sub_idx].centre
    center = layout.nodes[center_pos]
    ids = dictionary.ids
    part1 = []
    # every triple holds the centre, so a constant centre the segment lacks
    # leaves no witness
    lacks_centre = center.is_constant and center not in segment.nodes
    for k, t in enumerate(() if lacks_centre else sub.canonical):
        insts = candidates(
            segment, t,
            t.s if t.s.is_constant else None, t.o if t.o.is_constant else None,
        )
        if t.s == center:
            # a self-loop's match is its own witness: subject and object are
            # the one central image
            loop = t.o == center
            part1.extend(
                ((sub_idx, ids[i.s]), (k, ids[i.o]))
                for i in insts
                if ids[i.s] not in interior and (i.s is i.o or not loop)
            )
        else:  # t.o == center
            part1.extend(
                ((sub_idx, ids[i.o]), (k, ids[i.s]))
                for i in insts if ids[i.o] not in interior
            )
    part2 = []
    if center.is_constant and ids.get(center) not in interior:
        # every total would have this one image, which part 1 owns or the
        # segment lacks
        return part1, part2
    code = ids.__getitem__
    for images in enumerate_total(sub, segment, layout.nodes):
        if code(images[center_pos]) in interior:
            part2.append((sub_idx, tuple(map(code, images))))
    return part1, part2


def stars_reduce1_fn(layout, *, cap: int = CARTESIAN_CAP):
    """Star assembly over IDs: a key whose witnesses (k, other) cover every
    triple has as totals the product ``star_totals`` takes over the far-end
    images each triple witnessed, at the subquery's layout star; any other
    key has none, and is skipped before a set is built."""
    stars = layout.stars
    fulls = [(1 << len(star.far)) - 1 for star in stars]

    def fn(key, values, em):
        sub_idx, img = key
        covered = 0
        for k, _other in values:
            covered |= 1 << k
        if covered != fulls[sub_idx]:
            return
        star = stars[sub_idx]
        witnessed: list[set] = [set() for _ in star.far]
        for k, other in values:
            witnessed[k].add(other)
        for ids in star_totals(img, witnessed, star, cap):
            em.emit(sub_idx, ids)

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
    if None in layout.stars:
        raise NotADecomposition("stars evaluation needs star-shaped subqueries")
    dictionary = dec_data.dictionary
    interiors = dec_data.interiors

    def map1(key, _value, em):
        i, j = key
        part1, part2 = stars_map1_records(
            layout, i, dec_data.segments[j], interiors[j], dictionary
        )
        em.records += part1
        em.output += part2

    phase1 = Job("star-assembly", map1, stars_reduce1_fn(layout, cap=cartesian_cap))
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
