"""Query decomposition into star-shaped subqueries.

Six strategies, all deterministic given the canonical term order:

- naive: the full star at every node that has at least one outgoing triple.
- min-res: buckets triples by endpoint kind and builds, per variable-variable
  triple, the cheaper of the two endpoint stars; leftovers become singletons.
  Every subquery has at most two variables.
- min-subquery: the smallest subset of naive's stars that still covers the
  query (exhaustive subset search behind a size guard).
- max-degree: greedily picks the star covering the most uncovered triples and
  emits only its uncovered part.
- max-degree-redundancy: max-degree, plus any already-covered triple incident
  to the chosen center whose far endpoint is constant (cheap to re-check,
  saves join work later).
- max-degree-reshaping: max-degree, but when the uncovered part of the chosen
  star has no outgoing triple, one covered outgoing triple of the center is
  moved over from the subquery that owns it, keeping every subquery an
  so-query without introducing overlap.

There is also the generic star construction from a node cover: incoming
triples go to their object's star, outgoing triples to their subject's star
unless the object is itself in the cover.
"""

from __future__ import annotations

import itertools
from collections.abc import Callable
from dataclasses import dataclass

from .errors import NotANodeCover, SearchSpaceTooLarge
from .model import (
    Query,
    QueryDecomposition,
    Term,
    TriplePattern,
    so_centers,
    star_centers,
)

__all__ = [
    "naive_decomposition",
    "min_res_decomposition",
    "min_subquery_decomposition",
    "max_degree_decomposition",
    "max_degree_redundancy_decomposition",
    "max_degree_reshaping_decomposition",
    "star_decomposition_from_cover",
    "DecompositionReport",
    "validate_decomposition",
    "DECOMPOSERS",
]


def _outgoing_entries(q: Query) -> list[tuple[Term, set[TriplePattern]]]:
    """(node, incident triples) for each node with an outgoing triple, in
    term order."""
    return [
        (n, set(q.incident(n)))
        for n in sorted(q.nodes)
        if any(t.s == n for t in q.triples)
    ]


def naive_decomposition(q: Query) -> QueryDecomposition:
    entries = _outgoing_entries(q)
    return QueryDecomposition(
        q,
        tuple(Query(star) for _, star in entries),
        tuple(n for n, _ in entries),
        "naive",
    )


def min_res_decomposition(q: Query) -> QueryDecomposition:
    """Minimize replication while keeping subqueries at two variables or less.

    Triples split into four buckets by endpoint kind. Each variable-variable
    triple t seeds a star at one of its endpoints: the candidate at t's
    subject gathers the single-variable triples incident to it, likewise at
    t's object (only viable when the object has an outgoing single-variable
    triple, so the star stays an so-query); the larger candidate wins, ties
    prefer the subject. Single-variable triples may serve several stars, which
    is where replication comes from. Whatever the main loop never used becomes
    a singleton subquery of its own.
    """
    var_var: list[TriplePattern] = []
    sub_var: list[TriplePattern] = []  # variable subject, constant object
    obj_var: list[TriplePattern] = []  # constant subject, variable object
    const: list[TriplePattern] = []
    for t in q.canonical:
        if t.s.is_variable and t.o.is_variable:
            var_var.append(t)
        elif t.s.is_variable:
            sub_var.append(t)
        elif t.o.is_variable:
            obj_var.append(t)
        else:
            const.append(t)

    subs: list[Query] = []
    centers: list[Term] = []
    used: set[TriplePattern] = set()

    def emit(triples: set[TriplePattern], center: Term):
        subs.append(Query(triples))
        centers.append(center)
        used.update(triples)

    for t in var_var:
        q_s = {t}
        q_s.update(u for u in sub_var if u.s == t.s)
        q_s.update(u for u in obj_var if u.o == t.s)
        seed = [u for u in sub_var if u.s == t.o]
        if seed:
            q_o = {t}
            q_o.update(seed)
            q_o.update(u for u in obj_var if u.o == t.o)
        else:
            q_o = set()
        if not q_o or len(q_s) >= len(q_o):
            emit(q_s, t.s)
        else:
            emit(q_o, t.o)

    for t in sub_var:
        if t not in used:
            emit({t}, t.s)
    for t in obj_var:
        if t not in used:
            emit({t}, t.s)
    for t in const:
        if t not in used:
            emit({t}, t.s)

    return QueryDecomposition(q, tuple(subs), tuple(centers), "min-res")


# the most candidate stars min-subquery's exhaustive subset search takes on
SUBSET_SEARCH_GUARD = 16


def min_subquery_decomposition(q: Query) -> QueryDecomposition:
    base = naive_decomposition(q)
    stars = base.subqueries
    if len(stars) > SUBSET_SEARCH_GUARD:
        raise SearchSpaceTooLarge(
            f"{len(stars)} candidate stars exceed the subset-search guard"
            f" ({SUBSET_SEARCH_GUARD})"
        )
    target = q.triples
    for k in range(1, len(stars) + 1):
        for combo in itertools.combinations(range(len(stars)), k):
            union: set[TriplePattern] = set()
            for i in combo:
                union |= stars[i].triples
            if union == target:
                return QueryDecomposition(
                    q,
                    tuple(stars[i] for i in combo),
                    tuple(base.centers[i] for i in combo),
                    "min-subquery",
                )
    raise AssertionError("naive stars always cover the query")


def _greedy_max_degree(
    q: Query, method: str, extras: Callable[[Term], set[TriplePattern]]
) -> QueryDecomposition:
    """Greedily pick the star covering the most uncovered triples and emit
    its uncovered part plus ``extras`` of its centre, which never count as
    covered."""
    entries = _outgoing_entries(q)
    covered: set[TriplePattern] = set()
    subs: list[Query] = []
    centers: list[Term] = []
    while entries:
        n, star = max(entries, key=lambda e: len(e[1]))
        subs.append(Query(star | extras(n)))
        centers.append(n)
        covered |= star
        entries = [
            (m, s2)
            for m, s in entries
            if m != n
            for s2 in [s - covered]
            if any(t.s == m for t in s2)
        ]
    return QueryDecomposition(q, tuple(subs), tuple(centers), method)


def max_degree_decomposition(q: Query) -> QueryDecomposition:
    return _greedy_max_degree(q, "max-degree", lambda n: set())


def max_degree_redundancy_decomposition(q: Query) -> QueryDecomposition:
    # the triples incident to the centre whose far end is constant; they
    # stay someone else's job
    def constant_ended(n: Term) -> set[TriplePattern]:
        return {
            t
            for t in q.incident(n)
            if (t.s == n and not t.o.is_variable) or (t.o == n and not t.s.is_variable)
        }

    return _greedy_max_degree(q, "max-degree-redundancy", constant_ended)


def max_degree_reshaping_decomposition(q: Query) -> QueryDecomposition:
    entries = _outgoing_entries(q)
    covered: set[TriplePattern] = set()
    parts: list[set[TriplePattern]] = []
    centers: list[Term] = []
    owner: dict[TriplePattern, int] = {}
    while True:
        entries = [(m, s) for m, s in entries if s - covered]
        if not entries:
            break
        n, star = max(entries, key=lambda e: len(e[1] - covered))
        uncovered = star - covered
        if any(t.s == n for t in uncovered):
            part = uncovered
        else:
            # no outgoing triple left: take one back from its current owner
            part = None
            for t in sorted(star & covered, key=lambda t: t.key):
                if t.s != n:
                    continue
                j = owner[t]
                if len(parts[j]) >= 2:
                    parts[j].discard(t)
                    part = uncovered | {t}
                    break
            assert part is not None, "an owned outgoing triple always exists"
        idx = len(parts)
        parts.append(set(part))
        centers.append(n)
        covered |= part
        for t in part:
            owner[t] = idx
        entries = [(m, s) for m, s in entries if m != n]
    return QueryDecomposition(
        q,
        tuple(Query(p) for p in parts),
        tuple(centers),
        "max-degree-reshaping",
    )


def star_decomposition_from_cover(q: Query, cover) -> QueryDecomposition:
    """One star per cover node; incoming triples belong to their object's
    star, outgoing ones to their subject's unless the object is covered too.
    Cover nodes whose star ends up empty are dropped."""
    cover_set = set(cover)
    for n in cover_set:
        if n.is_literal:
            raise NotANodeCover(f"literal {n.token()} cannot be a cover node")
        if n not in q.nodes:
            raise NotANodeCover(f"{n.token()} is not a node of the query")
    stars: dict[Term, set[TriplePattern]] = {n: set() for n in cover_set}
    for t in q.canonical:
        if t.o in cover_set:
            stars[t.o].add(t)
        elif t.s in cover_set:
            stars[t.s].add(t)
        else:
            raise NotANodeCover(f"triple {t.token()} has no endpoint in the cover")
    subs = []
    centers = []
    for n in sorted(stars):
        if stars[n]:
            subs.append(Query(stars[n]))
            centers.append(n)
    return QueryDecomposition(q, tuple(subs), tuple(centers), "star-cover")


@dataclass(frozen=True)
class DecompositionReport:
    is_decomposition: bool
    non_redundant: bool
    all_stars: bool
    all_so: bool
    centers_valid: bool
    max_variables: int

    @property
    def ok(self) -> bool:
        return self.is_decomposition and self.centers_valid


def validate_decomposition(q: Query, dec: QueryDecomposition) -> DecompositionReport:
    union: set[TriplePattern] = set()
    total = 0
    for sub in dec.subqueries:
        union |= sub.triples
        total += len(sub)
    is_dec = union == q.triples and len(dec.subqueries) > 0
    centers_valid = all(
        c is None or c in star_centers(sub)
        for sub, c in zip(dec.subqueries, dec.centers)
    )
    return DecompositionReport(
        is_decomposition=is_dec,
        non_redundant=total == len(q),
        all_stars=all(map(star_centers, dec.subqueries)),
        all_so=all(map(so_centers, dec.subqueries)),
        centers_valid=centers_valid,
        max_variables=max(len(sub.variables) for sub in dec.subqueries),
    )


DECOMPOSERS = {
    "naive": naive_decomposition,
    "min-res": min_res_decomposition,
    "min-subquery": min_subquery_decomposition,
    "max-degree": max_degree_decomposition,
    "max-degree-redundancy": max_degree_redundancy_decomposition,
    "max-degree-reshaping": max_degree_reshaping_decomposition,
}
