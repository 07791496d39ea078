"""Embeddings: total, partial, useful partial, and the join of fragments.

An embedding maps query nodes to data nodes. A total embedding of a query
instantiates every triple inside the graph. A partial embedding may leave
nodes unbound, but every binding it does make must be witnessed by a matched
triple. A useful partial embedding of a subquery against one segment is a
partial embedding worth shipping to the join phase: it is non-trivial, it is
defined on every constant of the subquery present in the segment, and any
node it maps to a non-border, non-literal value must have all of its triples
matched inside the segment (otherwise no other segment can ever complete it).

Every primitive takes the order of the nodes it reports, ``nodes``, and
returns each embedding as the tuple of their images: the oracle asks for
the output pattern, the engines for their layout's node order (border nodes
first). ``enumerate_total`` and ``enumerate_useful_partial`` give terms, None
for a node they leave unbound; the engines encode them to IDs in the data
decomposition's ``TermDictionary``. A useful partial comes with the int bit
mask of the subquery's canonical triples it matched.

``plan_join`` is the one join of relations over layout positions: each
relation a list of ID rows whose columns hold given positions, hash-joined
on the positions they share. The final join runs it over the subqueries'
totals in each group, and ``totals_from_fragments`` over the triples a
centre-less subquery's fragments witnessed.

A layout fixes each subquery's star once, with ``star_of``, in
``QueryLayout.stars``: the position of its centre, each canonical triple's
far end (the endpoint that is not the centre) and the projection of a
combination of images to an ID tuple over the layout. The centre is the
decomposition's recorded one when it is a star centre of the subquery, else
the first so-centre, else the first star centre; no other code picks one.

``totals_from_fragments`` joins (ID vector, mask) fragments of one subquery
back into its total embeddings, UNBOUND (-1) marking an unbound position.
At one image of a star's centre, the star's totals are the product, over
its far nodes, of the far images that every triple through the node
witnessed; ``star_totals`` builds that product and projects each
combination. Every combination is a total, because a witnessed far image
comes from a data triple at that centre image. Every total is a
combination, because by the closure rule each of its triples is matched by
some useful partial that carries the same centre image.
``totals_from_fragments`` splits the fragments by the image of the layout
star's centre, drops an image whose fragments together miss a triple, and
reads each triple's witnesses off the rest; the stars engine's reducer
reads them off its part-1 witnesses, at the same centre. Only a subquery
without a star centre (from a hand-built plan) is the ``plan_join`` of the
(subject, object) pairs its fragments witnessed for each triple.

``enumerate_total`` and ``enumerate_useful_partial`` are depth-first
searches over one step routine. Each query node has a slot in one list,
which holds its image, None while it is unbound; a constant's slot holds the
constant. Each triple becomes a step that knows its ends' slots and its
predicate's index entry in the graph, both looked up once per call. A step
binds each of its matches in place, calls the rest of the search, and
unbinds when done, so no binding is ever copied. ``enumerate_useful_partial``
walks the triples in canonical order, skipping or matching each.
``enumerate_total`` matches them most-constrained first, in an order fixed
before the search starts: which ends are bound depends only on which triples
are matched, so the order a per-node pick would choose is the same in every
branch.

``enumerate_total`` and ``enumerate_useful_partial`` return their results in
the order of their depth-first search, and ``totals_from_fragments`` in the
order it builds them: the shuffle they go to, or ``AnswerSet`` for the
oracle, sorts them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import product
from operator import itemgetter
from typing import NamedTuple

from .errors import CartesianCapExceeded
from .model import (
    UNBOUND,
    DataGraph,
    DataTriple,
    Query,
    QueryDecomposition,
    Term,
    TriplePattern,
    so_centers,
    star_centers,
)

__all__ = [
    "candidates",
    "enumerate_total",
    "enumerate_useful_partial",
    "QueryLayout",
    "preprocess",
    "totals_from_fragments",
    "star_totals",
]


# ------------------------------------------------------------------ matching


def candidates(
    g: DataGraph, t: TriplePattern, s_val: Term | None, o_val: Term | None
) -> tuple[DataTriple, ...]:
    """t's matches in g with ends s_val/o_val; constant ends come as their value."""
    if s_val is not None and s_val.is_literal:
        return ()
    if s_val is not None and o_val is not None:
        inst = DataTriple(s_val, t.p, o_val)
        return (inst,) if inst in g else ()
    if s_val is not None:
        return g.by_subject_predicate(s_val, t.p)
    if o_val is not None:
        return g.by_object_predicate(o_val, t.p)
    return g.by_predicate(t.p)


def _steps(
    triples: Iterable[TriplePattern], g: DataGraph, slot: dict[Term, int]
) -> list[tuple]:
    """Each triple as a search step: the slots of its subject and object
    (one slot for a self-loop) and its predicate's index entry in g."""
    return [(slot[t.s], slot[t.o], *g.predicate_entry(t.p)) for t in triples]


def _step(step: tuple, b: list, cont: Callable, *args) -> None:
    """Bind each match of ``step`` in the slot vector b and call
    ``cont(*args)`` after each; b is as it was when this returns.

    A bound end narrows the matches to one index list. A literal is never a
    data subject, so a literal bound to the subject finds no list. With both
    ends bound, the match is the one triple of the subject's list with that
    object, if there is one.
    """
    s_slot, o_slot, triples, by_subject, by_object = step
    s = b[s_slot]
    o = b[o_slot]
    if s is not None:
        if o is not None:
            for t in by_subject.get(s, ()):
                if t.o is o:
                    cont(*args)
                    return
            return
        for t in by_subject.get(s, ()):
            b[o_slot] = t.o
            cont(*args)
        b[o_slot] = None
    elif o is not None:
        for t in by_object.get(o, ()):
            b[s_slot] = t.s
            cont(*args)
        b[s_slot] = None
    elif s_slot == o_slot:  # a self-loop matches only the data's self-loops
        for t in triples:
            if t.s is t.o:
                b[s_slot] = t.s
                cont(*args)
        b[s_slot] = None
    else:
        for t in triples:
            b[s_slot] = t.s
            b[o_slot] = t.o
            cont(*args)
        b[s_slot] = b[o_slot] = None


def _total_order(
    triples: tuple[TriplePattern, ...], bound: set[Term]
) -> list[TriplePattern]:
    """The triples most-constrained first: at each pick, the most ends bound,
    then the lowest canonical index (``max`` keeps the first of equal keys).
    ``bound`` starts as the constants, and a picked triple binds both its
    ends."""
    remaining = list(triples)
    order = []
    while remaining:
        t = max(remaining, key=lambda t: (t.s in bound) + (t.o in bound))
        remaining.remove(t)
        order.append(t)
        bound.update(t.nodes)
    return order


def enumerate_total(
    q: Query, g: DataGraph, nodes: tuple[Term, ...]
) -> list[tuple[Term | None, ...]]:
    """All total embeddings of q in g, in the order the search finds them,
    each as the images of ``nodes``: a constant of q maps to itself, and a
    node not in q to None.

    The search matches the triples in one order fixed before it starts,
    most-constrained first. Every matched triple binds both its ends, so
    which ends are bound at a search node depends only on which triples are
    matched above it, not on their images: picking the most-bound triple
    afresh at every node would pick the same triple in every branch.
    """
    constants = q.constants
    if not constants <= g.nodes:
        return []  # a total maps each constant to itself inside a match
    slot: dict[Term, int] = {}
    b: list[Term | None] = []
    for node in q.nodes:
        slot[node] = len(b)
        b.append(node if node.is_constant else None)
    steps = _steps(_total_order(q.canonical, set(constants)), g, slot)
    if not all(step[2] for step in steps):
        return []  # a predicate g lacks
    # nodes not in q read the None slot past the end
    pick = [slot.get(node, len(b)) for node in nodes]
    b.append(None)
    image = b.__getitem__
    n = len(steps)
    results: list[tuple[Term | None, ...]] = []

    def dfs(k: int):
        if k == n:
            results.append(tuple(map(image, pick)))
            return
        _step(steps[k], b, dfs, k + 1)

    dfs(0)
    return results


def enumerate_useful_partial(
    sub: Query, segment: DataGraph, border: frozenset[Term], nodes: tuple[Term, ...]
) -> list[tuple[tuple[Term | None, ...], int]]:
    """All useful partial embeddings of sub against one segment.

    Returns (images, matched) pairs: the images of ``nodes``, None for a
    node left unbound or not in sub, and the bit mask of the subquery's
    canonical triples matched (bit i for triple i). The pairs come in the
    order the search first reaches them, which is deterministic but not
    sorted: the shuffle that receives them sorts them anyway.

    The search walks the canonical triples and either skips each one or
    matches it to a segment triple that agrees with the bindings so far, so
    every bound variable is witnessed by a matched triple, and the constants
    present in the segment are added at the end. A leaf is keyed by its
    variable images. Its matched set is the union of the triples chosen on
    all the paths that reach it. That is every triple matched under the
    leaf's bindings, because such a triple can be chosen at its own step
    without changing them. Only non-triviality and the closure rule are left
    to check.
    """
    triples = sub.canonical
    n = len(triples)
    variables = tuple(sorted(sub.variables))
    n_vars = len(variables)
    seg_nodes = segment.nodes
    present = tuple(c for c in sorted(sub.constants) if c in seg_nodes)
    # the variables' slots come first, so a leaf's key is a prefix of b
    slot = {v: k for k, v in enumerate(variables)}
    b: list[Term | None] = [None] * n_vars
    for c in sub.constants:
        slot[c] = len(b)
        b.append(c)
    steps = _steps(triples, segment, slot)
    incident: dict[Term, int] = {}
    for i, t in enumerate(triples):
        for node in t.nodes:
            incident[node] = incident.get(node, 0) | (1 << i)
    # nodes mapped outside the border and the literals must have every
    # incident triple matched here, since no other segment can complete them
    always_required = 0
    for c in present:
        if not c.is_literal and c not in border:
            always_required |= incident[c]
    variable_masks = [incident[v] for v in variables]
    leaves: dict[tuple, int] = {}

    def dfs(i: int, chosen: int):
        if i == n:
            key = tuple(b[:n_vars])
            leaves[key] = leaves.get(key, 0) | chosen
            return
        dfs(i + 1, chosen)
        with_i = chosen | (1 << i)
        _step(steps[i], b, dfs, i + 1, with_i)

    dfs(0, 0)
    # a leaf key followed by the present constants and None holds every
    # image; at says where each of ``nodes`` finds its own
    at = {v: k for k, v in enumerate(variables + present)}
    pick = [at.get(node, len(at)) for node in nodes]
    project = tuple_getter(pick)
    tail = present + (None,)
    out = []
    for key, matched in leaves.items():
        if not matched:
            continue
        required = always_required
        # most images are border nodes, so the border test comes first
        for img, mask in zip(key, variable_masks):
            if img is not None and img not in border and not img.is_literal:
                required |= mask
        if required & ~matched:
            continue
        out.append((project(key + tail), matched))
    return out


# ---------------------------------------------------------------- preprocess


class Star(NamedTuple):
    """A subquery's star over the positions of a node order: its centre's
    position, each canonical triple's far end (the position of its endpoint
    that is not the centre, the centre's own for a self-loop), and the one
    projection of a row of the pools' product, followed by UNBOUND, to an ID
    tuple over the whole order. The pools are the centre's, then each far
    end's in order of first appearance."""

    centre: int
    far: tuple[int, ...]
    project: Callable[[tuple], tuple]


def star_of(
    sub: Query, nodes: tuple[Term, ...], recorded: Term | None = None
) -> Star | None:
    """sub's star over ``nodes``, None when sub has no star centre.

    This is the one place a subquery's centre is decided: the ``recorded``
    centre when it is a star centre of sub, else the canonically first
    so-centre, else the canonically first star centre. Every fragment and
    every witness of the subquery binds its centre, whichever it is, because
    each of sub's triples holds it.
    """
    centres = star_centers(sub)
    if not centres:
        return None
    if recorded not in centres:
        so = so_centers(sub)
        recorded = so[0] if so else centres[0]
    at = nodes.index
    centre = at(recorded)
    far = tuple([at(t.o if t.s == recorded else t.s) for t in sub.canonical])
    pools = dict.fromkeys((centre, *far))
    pick = [len(pools)] * len(nodes)  # a node outside the star reads UNBOUND
    for k, p in enumerate(pools):
        pick[p] = k
    return Star(centre, far, tuple_getter(pick))


@dataclass(frozen=True)
class QueryLayout:
    """Fixed enumerations and masks shared by all evaluation phases.

    ``nodes`` lists the border nodes first, then the remaining query nodes,
    each canonically sorted; a node's position in it is its position in
    every embedding the engines ship. ``missing_border`` pairs each border
    node with every subquery it does not occur in; ``common_border`` lists
    the border nodes occurring in all subqueries.
    """

    dec: QueryDecomposition
    border_nodes: tuple[Term, ...]
    nodes: tuple[Term, ...]
    node_index: dict[Term, int]
    missing_border: tuple[tuple[Term, int], ...]
    common_border: tuple[Term, ...]

    @property
    def query(self) -> Query:
        return self.dec.query

    @property
    def subqueries(self) -> tuple[Query, ...]:
        return self.dec.subqueries

    @cached_property
    def stars(self) -> tuple[Star | None, ...]:
        """Each subquery's ``star_of`` over ``nodes`` at its recorded centre:
        the one star both qejpe's fragment join and stars' reducer read.
        Built on first read and kept, since the redundancy engine reads none
        (about 4 microseconds a subquery on a 2-vCPU host, CPython 3.11)."""
        return tuple(
            star_of(sub, self.nodes, c)
            for sub, c in zip(self.subqueries, self.dec.centers)
        )


def preprocess(dec: QueryDecomposition) -> QueryLayout:
    q = dec.query
    subs = dec.subqueries
    owners: dict[Term, int] = {}
    for sub in subs:
        for n in sub.nodes:
            owners[n] = owners.get(n, 0) + 1
    # a border node is a non-literal node shared by two or more subqueries
    border_all = {
        n for n, count in owners.items() if count > 1 and not n.is_literal
    }
    border_nodes = tuple(sorted(border_all))
    nodes = border_nodes + tuple(sorted(q.nodes - border_all))
    node_index = {n: i for i, n in enumerate(nodes)}
    missing = []
    for n in border_nodes:
        for j, sub in enumerate(subs):
            if n not in sub.nodes:
                missing.append((n, j))
    common = tuple(
        n for n in border_nodes if all(n in sub.nodes for sub in subs)
    )
    return QueryLayout(
        dec=dec,
        border_nodes=border_nodes,
        nodes=nodes,
        node_index=node_index,
        missing_border=tuple(missing),
        common_border=common,
    )


# ------------------------------------------------------------------ joining


def tuple_getter(idx: list[int] | tuple[int, ...]) -> Callable[[tuple], tuple]:
    """A function giving the items at ``idx`` of a tuple, as a tuple, which
    ``itemgetter`` does not for one index or none."""
    if len(idx) == 1:
        (i,) = idx
        return lambda row: (row[i],)
    return itemgetter(*idx) if idx else lambda row: ()


@lru_cache(maxsize=1024)
def plan_join(
    schemas: tuple[tuple[int | None, ...], ...], out: tuple[int, ...]
) -> Callable[[list, int | None], list[tuple[int, ...]]]:
    """The natural hash join of relations over layout positions, planned
    from the positions alone.

    Column c of relation r's rows holds the ID at layout position
    ``schemas[r][c]``, or at none when that is None; no relation holds a
    position twice. The plan takes, each time, the first relation left that
    shares a position with those bound so far, or else the first relation
    left, which is then crossed with the rows so far. A joined row is a
    leading UNBOUND followed by one row of each relation taken, and each
    step hashes the relation's rows on the shared positions and probes with
    the joined rows.

    The returned ``join(relations, cap)`` takes each relation's rows, in the
    order of ``schemas``, and returns every joined row projected on ``out``,
    each position read from the first relation taken that binds it, UNBOUND
    where none does. Rows distinct on their bound positions give distinct
    joined rows. A join with an empty relation has no rows. Beyond ``cap``
    live rows after a step it raises CartesianCapExceeded before building
    them.

    A plan depends on the positions alone, so each is kept for the next
    caller with the same ones. The final join asks for one per evaluation,
    and on constant-anchored queries that finish in a few hundred
    microseconds planning afresh took longer than the join itself (about
    6 against 2 microseconds on a 2-vCPU host with CPython 3.11).
    """
    at: dict[int, int] = {}  # position -> its column in a joined row
    width = 1
    steps = []
    left = list(range(len(schemas)))
    while left:
        for r in left:
            if not at.keys().isdisjoint(schemas[r]):
                break
        else:
            r = left[0]
        left.remove(r)
        schema = schemas[r]
        shared = [c for c, p in enumerate(schema) if p in at]
        if shared:
            mine = itemgetter(*[at[schema[c]] for c in shared])
            steps.append((r, mine, itemgetter(*shared)))
        else:
            steps.append((r, None, None))
        for c, p in enumerate(schema, width):
            if p is not None:
                at.setdefault(p, c)
        width += len(schema)
    project = tuple_getter([at.get(p, 0) for p in out])

    def join(relations: list, cap: int | None) -> list[tuple[int, ...]]:
        if not all(relations):
            return []  # before any step, so an empty relation trips no cap
        live = [(UNBOUND,)]
        for r, mine, theirs in steps:
            rows = relations[r]
            if mine is None:
                count = len(live) * len(rows)
            else:
                index: dict = {}
                for row in rows:
                    index.setdefault(theirs(row), []).append(row)
                hits = [index.get(mine(row), ()) for row in live]
                count = sum(map(len, hits))
            if cap is not None and count > cap:
                raise CartesianCapExceeded(f"join exceeded {cap} live rows")
            if mine is None:
                live = [row + other for row in live for other in rows]
            else:
                live = [
                    row + other for row, found in zip(live, hits) for other in found
                ]
        return list(map(project, live))

    return join


# ------------------------------------------------------- fragment joining


def totals_from_fragments(
    sub: Query,
    fragments: list[tuple[tuple[int, ...], int]],
    nodes: tuple[Term, ...],
    star: Star | None,
    *,
    cap: int | None = None,
) -> list[tuple[int, ...]]:
    """Join useful partial fragments into the total embeddings of sub.

    A fragment is (ids, mask): the ID of each of ``nodes``' images, UNBOUND
    where the fragment leaves a node unbound, and the bit mask of the
    subquery triples it matched. ``nodes`` lists every node of sub, and each
    total comes back as an ID tuple over it. ``star`` is sub's
    ``star_of`` over ``nodes``, as a layout's ``stars`` holds it.

    When sub has a star centre, every fragment binds it (each matched triple
    contains the centre), and a total's fragments all bind its centre image.
    The fragments are split by centre image. A part whose masks together
    miss a triple has no total and is dropped; for every other part,
    ``star_totals`` takes the far-end images its fragments witnessed for
    each triple, a fragment that matched triple i binding both of its ends.
    Their product is exactly the image's totals. Each combination is a total,
    since every witnessed far image comes from a data triple at that centre
    image. Each total is one combination, since by the closure rule every
    triple of a total is matched by some useful partial that binds the same
    centre image. ``cap`` bounds the totals of one part.

    A subquery without a centre, which no decomposer builds but a hand-built
    plan may, is the ``plan_join`` of its witnessed triples: for each
    canonical triple k, the (subject ID, object ID) pairs of the fragments
    with bit k (the subject ID alone for a self-loop), joined over the
    positions they share. Each pair is a data triple, so each joined row is
    a total. Each total is a joined row: restricted to the triples whose
    images lie in one segment it satisfies the closure rule, since a
    non-border image has all of its triples there, so it is a useful
    partial and every triple of the total is witnessed. ``cap`` then bounds
    the live rows of that join.
    """
    if star is not None:
        centre, far, _ = star
        parts: dict[int, list] = {}
        for frag in fragments:
            img = frag[0][centre]
            part = parts.get(img)
            if part is None:
                parts[img] = [frag]
            else:
                part.append(frag)
        full = (1 << len(far)) - 1
        out: list[tuple[int, ...]] = []
        for img, part in parts.items():
            covered = 0
            for _ids, mask in part:
                covered |= mask
            if covered != full:
                continue
            witnessed: list[set] = [set() for _ in far]
            for ids, mask in part:
                for i, p in enumerate(far):
                    if mask >> i & 1:
                        witnessed[i].add(ids[p])
            out += star_totals(img, witnessed, star, cap)
        return out

    index = {node: p for p, node in enumerate(nodes)}
    ends = [(index[t.s], index[t.o]) for t in sub.canonical]
    pairs: list[set] = [set() for _ in ends]
    for ids, mask in fragments:
        for k, (s, o) in enumerate(ends):
            if mask >> k & 1:
                pairs[k].add((ids[s], ids[o]) if s != o else (ids[s],))
    schemas = tuple([(s, o) if s != o else (s,) for s, o in ends])
    return plan_join(schemas, tuple(range(len(nodes))))(pairs, cap)


def star_totals(
    img: int, witnessed: list[set], star: Star, cap: int | None
) -> list[tuple[int, ...]]:
    """The total embeddings of a star at one image of its centre.

    ``witnessed`` holds, for each of the star's canonical triples, the IDs
    of the far-end images it matched at centre image ``img``. A node's pool
    is the intersection of the sets of the triples that reach it, the
    centre's starting as ``{img}``, and the totals are the product of the
    pools, each projected by ``star.project`` to an ID tuple over the
    layout, UNBOUND outside the star. Beyond ``cap`` totals it raises
    CartesianCapExceeded.

    Both ``totals_from_fragments`` and the stars engine's reducer call it
    once per centre image whose witnesses cover every triple.
    """
    centre, far, project = star
    pools: dict[int, set] = {centre: {img}}
    for p, seen in zip(far, witnessed):
        pool = pools.get(p)
        pools[p] = seen if pool is None else pool & seen
    count = 1
    for pool in pools.values():
        count *= len(pool)
    if cap is not None and count > cap:
        raise CartesianCapExceeded(
            f"star join exceeded {cap} embeddings for one centre image"
        )
    return list(map(project, product(*pools.values(), (UNBOUND,))))
