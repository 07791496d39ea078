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
first). ``enumerate_total`` gives terms, None for a node it leaves unbound;
the engines encode them to IDs in the data decomposition's
``TermDictionary``. ``enumerate_useful_partial`` gives qejpe's shuffle value
as it is, one flat int tuple per fragment, built once: the ID of each
node's image, UNBOUND (-1) for a node it leaves unbound, then the int bit
mask of the subquery's canonical triples the fragment matched. It keys
each leaf by the IDs of its variables' images and applies the closure rule
to the segment's interior, the IDs of its non-literal nodes outside its
border (``DataDecomposition.interiors``).

``plan_join`` is the one join of relations over layout positions: each
relation a list of ID rows whose columns hold given positions, hash-joined
on the positions they share. The final join runs it over the subqueries'
totals in each group, and ``totals_from_fragments`` over the triples a
centre-less subquery's fragments witnessed.

A layout fixes each subquery's star once, with ``star_of``, in
``QueryLayout.stars``: the position of its centre, each canonical triple's
far end (the endpoint that is not the centre) and the projection of a
combination of images to an ID tuple over the layout. The centre depends on
the subquery's triples alone: the first so-centre, else the first star
centre. No other code picks one, and all three engines read it there.

``totals_from_fragments`` joins those flat fragments of one subquery back
into its total embeddings, reading each image at its position and the mask
last.
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
searches over a slot vector. Each query node has a slot in one list, which
holds its image, None while it is unbound; a constant's slot holds the
constant. Each triple becomes a step that knows its ends' slots and its
predicate. A step binds each of its matches in place, calls the rest of the
search, and unbinds when done, so no binding is ever copied.
``enumerate_useful_partial`` walks the triples in canonical order, skipping
or matching each. ``enumerate_total`` matches them most-constrained first,
in an order fixed before the search starts: which ends are bound depends
only on which triples are matched, so the order a per-node pick would
choose is the same in every branch, and so is which of its ends each step
finds bound.

Each search is planned once per (query, node order) and the plan is kept
(``functools.lru_cache``, as ``plan_join`` keeps its plans), because the
engines run one search per (subquery, segment) pair. The plan holds the
slot template, the steps' slots and predicates, their order, for totals
which ends of each step are bound, the projection onto the node order and,
for useful partials, each step's bit and each node's mask of incident
triples. A run binds each live step to the graph's index entry for its
predicate as one closure, last step first, so that each closure calls the
next one directly and the last calls the leaf that records a result: what a
step does at a match is decided once per run, not at every match
(data-centric query compilation, Neumann, VLDB 2011). A total step runs the
one case its bound ends select: a membership test, the subject's list, the
object's list, a scan, or a scan for self-loops. A useful-partial step
skips first and then tests which ends are bound, since that depends on
which earlier steps matched. A step is live unless the graph lacks its
predicate or a constant end has no list under it. A step that is not makes
``enumerate_total`` return no totals, and is left out of
``enumerate_useful_partial``'s chain, where it could only be skipped. A
useful-partial run also reads which constants the segment holds and which
of those the closure rule binds, since that depends on the segment and its
interior. The closure rule tests a leaf's key against the interior as one
set operation, and only a key that holds an interior image goes through
the per-variable masks: on an edge partition most images are border nodes.

``enumerate_total`` and ``enumerate_useful_partial`` return their results in
the order of their depth-first search, and ``totals_from_fragments`` in the
order it builds them: the shuffle they go to, or ``AnswerSet`` for the
oracle, sorts them.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from dataclasses import dataclass
from functools import lru_cache
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
    TermDictionary,
    TriplePattern,
    border_of,
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
    triples, by_s, by_o = g.predicate_entry(t.p)
    if s_val is not None:
        return by_s.get(s_val, ())
    if o_val is not None:
        return by_o.get(o_val, ())
    return triples


def _live(s_slot: int, o_slot: int, entry: tuple, b: list) -> bool:
    """Whether a step with ends at these slots can match anything under its
    predicate's index entry: the graph has the predicate, and each constant
    end (set in b, still the slot template) has a list under it. A literal
    is never a data subject, so a literal subject has none."""
    triples, by_subject, by_object = entry
    s = b[s_slot]
    o = b[o_slot]
    return bool(triples) and (s is None or s in by_subject) and (
        o is None or o in by_object
    )


def _total_step(step: tuple, entry: tuple, b: list, nxt: Callable) -> Callable | None:
    """One planned step of ``enumerate_total`` bound to its predicate's
    index entry: a closure that binds each match in the slot vector b, calls
    ``nxt()`` after each and leaves b as it found it; None when the step is
    not ``_live``.

    The plan fixes which ends are bound, so the closure runs one case. A
    bound end narrows the matches to one index list. With both ends bound,
    the match is the one triple of the subject's list with that object, if
    there is one.

    A closure gets what it reads as default arguments, which its caller
    never passes: they are read as fast locals, and binding them builds one
    tuple where closing over them would build one cell per name.
    """
    s_slot, o_slot, _p, s_bound, o_bound = step
    if not _live(s_slot, o_slot, entry, b):
        return None
    triples, by_subject, by_object = entry
    if s_bound and o_bound:

        def run(b=b, nxt=nxt, s_slot=s_slot, o_slot=o_slot, by_subject=by_subject):
            o = b[o_slot]
            for t in by_subject.get(b[s_slot], ()):
                if t.o is o:
                    nxt()
                    return

    elif s_bound:

        def run(b=b, nxt=nxt, s_slot=s_slot, o_slot=o_slot, by_subject=by_subject):
            for t in by_subject.get(b[s_slot], ()):
                b[o_slot] = t.o
                nxt()
            b[o_slot] = None

    elif o_bound:

        def run(b=b, nxt=nxt, s_slot=s_slot, o_slot=o_slot, by_object=by_object):
            for t in by_object.get(b[o_slot], ()):
                b[s_slot] = t.s
                nxt()
            b[s_slot] = None

    elif s_slot == o_slot:  # a self-loop matches only the data's self-loops

        def run(b=b, nxt=nxt, s_slot=s_slot, triples=triples):
            for t in triples:
                if t.s is t.o:
                    b[s_slot] = t.s
                    nxt()
            b[s_slot] = None

    else:

        def run(b=b, nxt=nxt, s_slot=s_slot, o_slot=o_slot, triples=triples):
            for t in triples:
                b[s_slot] = t.s
                b[o_slot] = t.o
                nxt()
            b[s_slot] = b[o_slot] = None

    return run


def _useful_step(step: tuple, entry: tuple, b: list, nxt: Callable) -> Callable | None:
    """One planned step of ``enumerate_useful_partial`` bound to its
    predicate's index entry: a closure that takes the mask matched so far,
    calls ``nxt`` with it once to skip the step, then binds each match in
    the slot vector b and calls ``nxt`` with the step's bit added after
    each, leaving b as it found it; None when the step is not ``_live``,
    since it could only be skipped.

    Which variable ends are bound depends on which earlier steps matched,
    so the closure tests them at each call and then runs the case of
    ``_total_step`` they select. It gets what it reads as default
    arguments, as those closures do.
    """
    s_slot, o_slot, _p, bit = step
    if not _live(s_slot, o_slot, entry, b):
        return None
    triples, by_subject, by_object = entry

    def run(
        chosen: int, b=b, nxt=nxt, s_slot=s_slot, o_slot=o_slot, bit=bit,
        triples=triples, by_subject=by_subject, by_object=by_object,
    ):
        nxt(chosen)
        chosen |= bit
        s = b[s_slot]
        o = b[o_slot]
        if s is not None:
            if o is not None:
                for t in by_subject.get(s, ()):
                    if t.o is o:
                        nxt(chosen)
                        return
                return
            for t in by_subject.get(s, ()):
                b[o_slot] = t.o
                nxt(chosen)
            b[o_slot] = None
        elif o is not None:
            for t in by_object.get(o, ()):
                b[s_slot] = t.s
                nxt(chosen)
            b[s_slot] = None
        elif s_slot == o_slot:
            for t in triples:
                if t.s is t.o:
                    b[s_slot] = t.s
                    nxt(chosen)
            b[s_slot] = None
        else:
            for t in triples:
                b[s_slot] = t.s
                b[o_slot] = t.o
                nxt(chosen)
            b[s_slot] = b[o_slot] = None

    return run


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


def _slots(nodes: tuple[Term, ...], triples: Iterable[TriplePattern]) -> tuple:
    """Each of ``nodes``' slot, the slot vector's template (a constant's slot
    holds the constant, a variable's None) and each triple as a planned step:
    the slots of its subject and object (one slot for a self-loop) and its
    predicate."""
    slot = {node: k for k, node in enumerate(nodes)}
    template = [None if node.is_variable else node for node in nodes]
    return slot, template, tuple([(slot[t.s], slot[t.o], t.p) for t in triples])


@lru_cache(maxsize=1024)
def _total_plan(q: Query, nodes: tuple[Term, ...]) -> tuple:
    """What ``enumerate_total`` fixes before it looks at a graph: q's
    constants, the slot template (a trailing None slot for the nodes not in
    q), the steps most-constrained first, each with whether its subject and
    its object are bound when it runs, and the projection of the slot
    vector onto ``nodes``."""
    constants = q.constants
    order = _total_order(q.canonical, set(constants))
    slot, template, steps = _slots(tuple(q.nodes), order)
    bound = {slot[c] for c in constants}
    planned = []
    for s_slot, o_slot, p in steps:
        planned.append((s_slot, o_slot, p, s_slot in bound, o_slot in bound))
        bound.update((s_slot, o_slot))
    project = tuple_getter([slot.get(node, len(template)) for node in nodes])
    template.append(None)
    return constants, tuple(template), tuple(planned), project


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
    afresh at every node would pick the same triple in every branch, and
    each step's case is fixed with the order.
    """
    constants, template, plan_steps, project = _total_plan(q, nodes)
    if not constants <= g.nodes:
        return []  # a total maps each constant to itself inside a match
    entry = g.predicate_entry
    b = list(template)
    results: list[tuple[Term | None, ...]] = []

    def run(append=results.append, project=project, b=b):
        append(project(b))

    for step in reversed(plan_steps):
        run = _total_step(step, entry(step[2]), b, run)
        if run is None:
            return []  # a step with no match leaves no total
    run()
    return results


@lru_cache(maxsize=1024)
def _useful_plan(sub: Query, nodes: tuple[Term, ...]) -> tuple:
    """What ``enumerate_useful_partial`` fixes before it looks at a segment:
    the variables and then the constants, each sorted, which give the slot
    template and a leaf's key (the variables' slots); the steps in canonical
    order, each with its bit in a matched mask; each variable's and
    constant's mask of incident triples; and the projection of a key
    followed by the constants' tail, UNBOUND and the mask onto the images
    of ``nodes`` and the mask."""
    triples = sub.canonical
    variables = tuple(sorted(sub.variables))
    constants = tuple(sorted(sub.constants))
    order = variables + constants
    slot, template, steps = _slots(order, triples)
    incident = [0] * len(order)
    for i, t in enumerate(triples):
        for node in t.nodes:
            incident[slot[node]] |= 1 << i
    pick = [slot.get(node, len(order)) for node in nodes]
    pick.append(len(order) + 1)
    n_vars = len(variables)
    return (
        constants, tuple(template),
        tuple([(*step, 1 << i) for i, step in enumerate(steps)]), n_vars,
        tuple(incident[:n_vars]), tuple(incident[n_vars:]), tuple_getter(pick),
    )


def enumerate_useful_partial(
    sub: Query,
    segment: DataGraph,
    interior: frozenset[int],
    nodes: tuple[Term, ...],
    dictionary: TermDictionary,
) -> list[tuple[int, ...]]:
    """All useful partial embeddings of sub against one segment.

    Returns one flat tuple of ints per fragment: the ID in ``dictionary``
    of each of ``nodes``' images, UNBOUND for a node left unbound or not in
    sub, and last the bit mask of the subquery's canonical triples matched
    (bit i for triple i). ``interior`` holds the IDs of the segment's
    interior nodes (``DataDecomposition.interiors``), the images the closure
    rule applies to. The fragments come in the order the search first
    reaches them, which is deterministic but not sorted: the shuffle that
    receives them sorts them anyway.

    The search walks the canonical triples and either skips each one or
    matches it to a segment triple that agrees with the bindings so far, so
    every bound variable is witnessed by a matched triple, and the constants
    present in the segment are added at the end. A leaf is keyed by the IDs
    of its variable images. Its matched set is the union of the triples
    chosen on all the paths that reach it. That is every triple matched
    under the leaf's bindings, because such a triple can be chosen at its
    own step without changing them. Only non-triviality and the closure
    rule are left to check.
    """
    constants, template, plan_steps, n_vars, variable_masks, constant_masks, project = (
        _useful_plan(sub, nodes)
    )
    entry = segment.predicate_entry
    b = list(template)
    leaves: dict[tuple, int] = {}

    def leaf(
        chosen: int, b=b, n_vars=n_vars, leaves=leaves, code=dictionary.ids.__getitem__
    ):
        key = tuple(map(code, b[:n_vars]))
        leaves[key] = leaves.get(key, 0) | chosen

    run = leaf
    for step in reversed(plan_steps):
        # a step with no match could only be skipped, so it is left out
        run = _useful_step(step, entry(step[2]), b, run) or run
    if run is leaf:
        return []  # every leaf would match nothing
    run(0)
    # a constant the segment lacks is left unbound: its image in the tail
    # that follows a leaf's key is UNBOUND, as is the next, read by the
    # nodes not in sub
    seg_nodes = segment.nodes
    ids = dictionary.ids
    tail = tuple([ids[c] if c in seg_nodes else UNBOUND for c in constants])
    # interior images must have every incident triple matched here, since
    # no other segment can complete them
    always_required = 0
    for img, mask in zip(tail, constant_masks):
        if img in interior:
            always_required |= mask
    tail += (UNBOUND,)
    out = []
    for key, matched in leaves.items():
        if not matched:
            continue
        required = always_required
        # most images are border nodes, so most keys skip the masked loop
        if not interior.isdisjoint(key):
            for img, mask in zip(key, variable_masks):
                if img in interior:
                    required |= mask
        if required & ~matched:
            continue
        out.append(project(key + tail + (matched,)))
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


@lru_cache(maxsize=1024)
def star_of(sub: Query, nodes: tuple[Term, ...]) -> Star | None:
    """sub's star over ``nodes``, None when sub has no star centre.

    This is the one place a subquery's centre is decided: the canonically
    first so-centre of sub, else its canonically first star centre. Every
    fragment and every witness of the subquery binds its centre, whichever
    it is, because each of sub's triples holds it.

    A star depends on its arguments alone, so each is kept for the next
    layout with the same ones, as the search plans are: every evaluation
    builds a new layout, and building the star took about 4 microseconds a
    subquery on a 2-vCPU host with CPython 3.11.
    """
    centres = star_centers(sub)
    if not centres:
        return None
    so = so_centers(sub)
    node = so[0] if so else centres[0]
    at = nodes.index
    centre = at(node)
    far = tuple([at(t.o if t.s == node else t.s) for t in sub.canonical])
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
    the border nodes occurring in all subqueries. ``stars`` holds each
    subquery's ``star_of`` over ``nodes``: its one star, and so its one
    centre, which all three engines read.
    """

    dec: QueryDecomposition
    border_nodes: tuple[Term, ...]
    nodes: tuple[Term, ...]
    node_index: dict[Term, int]
    missing_border: tuple[tuple[Term, int], ...]
    common_border: tuple[Term, ...]
    stars: tuple[Star | None, ...]

    @property
    def query(self) -> Query:
        return self.dec.query

    @property
    def subqueries(self) -> tuple[Query, ...]:
        return self.dec.subqueries


def preprocess(dec: QueryDecomposition) -> QueryLayout:
    q = dec.query
    subs = dec.subqueries
    border_all = border_of(sub.nodes for sub in subs)
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
        stars=tuple(star_of(sub, nodes) for sub in subs),
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
    fragments: list[tuple[int, ...]],
    nodes: tuple[Term, ...],
    star: Star | None,
    *,
    cap: int | None = None,
) -> list[tuple[int, ...]]:
    """Join useful partial fragments into the total embeddings of sub.

    A fragment is a flat tuple of ints, as ``enumerate_useful_partial``
    returns it: the ID of each of ``nodes``' images, UNBOUND where the
    fragment leaves a node unbound, then the bit mask of the subquery
    triples it matched. ``nodes`` lists every node of sub, and each total
    comes back as an ID tuple over it. ``star`` is sub's ``star_of`` over
    ``nodes``, as a layout's ``stars`` holds it.

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
            img = frag[centre]
            part = parts.get(img)
            if part is None:
                parts[img] = [frag]
            else:
                part.append(frag)
        full = (1 << len(far)) - 1
        out: list[tuple[int, ...]] = []
        for img, part in parts.items():
            covered = 0
            for frag in part:
                covered |= frag[-1]
            if covered != full:
                continue
            witnessed: list[set] = [set() for _ in far]
            for frag in part:
                mask = frag[-1]
                for i, p in enumerate(far):
                    if mask >> i & 1:
                        witnessed[i].add(frag[p])
            out += star_totals(img, witnessed, star, cap)
        return out

    index = {node: p for p, node in enumerate(nodes)}
    ends = [(index[t.s], index[t.o]) for t in sub.canonical]
    pairs: list[set] = [set() for _ in ends]
    for frag in fragments:
        mask = frag[-1]
        for k, (s, o) in enumerate(ends):
            if mask >> k & 1:
                pairs[k].add((frag[s], frag[o]) if s != o else (frag[s],))
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
