"""Embeddings: total, partial, useful partial, and their encodings.

An embedding maps query nodes to data nodes. A total embedding of a query
instantiates every triple inside the graph. A partial embedding may leave
nodes unbound, but every binding it does make must be witnessed by a matched
triple. A useful partial embedding of a subquery against one segment is a
partial embedding worth shipping to the join phase: it is non-trivial, it is
defined on every constant of the subquery present in the segment, and any
node it maps to a non-border, non-literal value must have all of its triples
matched inside the segment (otherwise no other segment can ever complete it).

``totals_from_fragments`` joins the useful partials of one subquery back into
its total embeddings. Fragments with different images of the subquery's star
centre never join, so it joins them one centre image at a time; only a
subquery without a star centre (from a hand-built plan) gets a per-image
index of its fragments instead.

``enumerate_total`` and ``enumerate_useful_partial`` return their results in
the order of their depth-first search, and ``totals_from_fragments`` in the
order its join reaches them: the shuffle they go to, or ``AnswerSet`` for the
oracle, sorts them.

``encode`` splits an embedding into a border-node vector and a non-border
vector, following a fixed node enumeration with border nodes first, and puts
each image's ID from the data decomposition's ``TermDictionary`` in its place;
UNBOUND (-1) marks an unbound position. The engines ship embeddings between
stages in this form, and qejpe's fragments add one match flag per query
triple. ``id_vectors`` does the same for an embedding whose images are IDs
already, as in the reducers that join or assemble them.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress
from typing import Iterable, Iterator, Mapping

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
    star_centers,
)

__all__ = [
    "Embedding",
    "enumerate_total",
    "enumerate_useful_partial",
    "QueryLayout",
    "preprocess",
    "encode",
    "id_vectors",
    "totals_from_fragments",
]


class Embedding(Mapping):
    """An immutable mapping from query nodes to their images: data nodes,
    or their dictionary IDs in qejpe's fragment join."""

    __slots__ = ("_d", "_hash")

    def __init__(self, mapping: Mapping[Term, Term] | Iterable[tuple[Term, Term]]):
        self._d = dict(mapping)
        self._hash: int | None = None

    def __getitem__(self, node: Term) -> Term:
        return self._d[node]

    def __iter__(self) -> Iterator[Term]:
        return iter(sorted(self._d))

    def __len__(self) -> int:
        return len(self._d)

    def __contains__(self, node) -> bool:
        return node in self._d

    def items(self):
        return tuple(sorted(self._d.items()))

    @property
    def domain(self) -> frozenset[Term]:
        return frozenset(self._d)

    def __eq__(self, other) -> bool:
        if isinstance(other, Embedding):
            return self._d == other._d
        return NotImplemented

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(frozenset(self._d.items()))
        return self._hash

    def __repr__(self) -> str:
        body = ", ".join(
            f"{n.token()}->{v.token() if isinstance(v, Term) else v}"
            for n, v in self.items()
        )
        return "{" + body + "}"


# ------------------------------------------------------------------ matching


def _value_of(term: Term, bindings: dict[Term, Term]) -> Term | None:
    if term.is_constant:
        return term
    return bindings.get(term)


def _candidates(
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


def _extended(bindings: dict, t: TriplePattern, inst: DataTriple) -> dict | None:
    """Bindings plus whatever inst pins down; None on conflict. inst comes
    from ``_candidates``, so it already agrees with t's constants."""
    new = bindings
    for node, img in ((t.s, inst.s), (t.o, inst.o)):
        if node.is_constant:
            continue
        cur = new.get(node)
        if cur is None:
            if new is bindings:
                new = dict(bindings)
            new[node] = img
        elif cur != img:
            return None
    return dict(new) if new is bindings else new


def enumerate_total(q: Query, g: DataGraph) -> list[Embedding]:
    """All total embeddings of q in g, in the order the search finds them."""
    triples = list(q.canonical)
    n = len(triples)
    results: list[Embedding] = []

    def bound_count(t: TriplePattern, bindings) -> int:
        return sum(1 for x in (t.s, t.o) if _value_of(x, bindings) is not None)

    def dfs(remaining: list[int], bindings: dict):
        if not remaining:
            full = dict(bindings)
            for node in q.nodes:
                if node.is_constant:
                    full[node] = node
            results.append(Embedding(full))
            return
        # most-constrained first: prefer patterns with more bound endpoints
        pick = max(remaining, key=lambda i: (bound_count(triples[i], bindings), -i))
        rest = [i for i in remaining if i != pick]
        t = triples[pick]
        for inst in _candidates(g, t, _value_of(t.s, bindings), _value_of(t.o, bindings)):
            nb = _extended(bindings, t, inst)
            if nb is not None:
                dfs(rest, nb)

    dfs(list(range(n)), {})
    return results


def enumerate_useful_partial(
    sub: Query, segment: DataGraph, border: frozenset[Term]
) -> list[tuple[Embedding, frozenset[int]]]:
    """All useful partial embeddings of sub against one segment.

    Returns (embedding, matched-triple-indexes) pairs; indexes refer to the
    subquery's canonical triple order. The pairs come in the order the search
    first reaches them, which is deterministic but not sorted: the shuffle
    that receives them sorts them anyway.

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
    seg_nodes = segment.nodes
    present = {c: c for c in sorted(sub.constants) if c in seg_nodes}
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

    def dfs(i: int, bindings: dict, chosen: int):
        if i == n:
            key = tuple(map(bindings.get, variables))
            leaves[key] = leaves.get(key, 0) | chosen
            return
        dfs(i + 1, bindings, chosen)
        t = triples[i]
        with_i = chosen | (1 << i)
        for inst in _candidates(
            segment, t, _value_of(t.s, bindings), _value_of(t.o, bindings)
        ):
            nb = _extended(bindings, t, inst)
            if nb is not None:
                dfs(i + 1, nb, with_i)

    dfs(0, {}, 0)
    out = []
    matched_sets: dict[int, frozenset[int]] = {}
    for key, matched in leaves.items():
        if not matched:
            continue
        required = always_required
        for img, mask in zip(key, variable_masks):
            if img is not None and not img.is_literal and img not in border:
                required |= mask
        if required & ~matched:
            continue
        indexes = matched_sets.get(matched)
        if indexes is None:
            indexes = matched_sets[matched] = frozenset(
                i for i in range(n) if matched >> i & 1
            )
        # None marks an unbound variable and is the only falsy image
        bound = compress(zip(variables, key), key)
        out.append((Embedding(chain(bound, present.items())), indexes))
    return out


# ---------------------------------------------------------------- preprocess


@dataclass(frozen=True)
class QueryLayout:
    """Fixed enumerations and masks shared by all evaluation phases.

    Node positions list border nodes first, then the remaining query nodes,
    each canonically sorted. ``missing_border`` pairs each border node with
    every subquery it does not occur in; ``common_border`` lists the border
    nodes occurring in all subqueries.
    """

    dec: QueryDecomposition
    border_nodes: tuple[Term, ...]
    nonborder_nodes: tuple[Term, ...]
    triples: tuple[TriplePattern, ...]
    node_index: dict[Term, int]
    missing_border: tuple[tuple[Term, int], ...]
    common_border: tuple[Term, ...]

    @property
    def query(self) -> Query:
        return self.dec.query

    @property
    def subqueries(self) -> tuple[Query, ...]:
        return self.dec.subqueries

    # computed on first use, so the redundancy engine, which never reads
    # them, does not pay for them on every query
    @cached_property
    def to_query(self) -> tuple[tuple[int, ...], ...]:
        """Per subquery, the query triple index of each canonical position."""
        pos = {t: i for i, t in enumerate(self.triples)}
        return tuple(
            tuple(map(pos.__getitem__, sub.canonical)) for sub in self.subqueries
        )

    @cached_property
    def to_sub(self) -> tuple[dict[int, int], ...]:
        """Per subquery, ``to_query`` inverted."""
        return tuple(dict(zip(fwd, range(len(fwd)))) for fwd in self.to_query)

    # border nodes come first in the node order, so a border node's position
    # indexes the border vector too
    @cached_property
    def missing_positions(self) -> tuple[tuple[int, int], ...]:
        """``missing_border`` with each node given by its position."""
        return tuple((self.node_index[n], j) for n, j in self.missing_border)

    @cached_property
    def common_positions(self) -> tuple[int, ...]:
        """``common_border`` as positions."""
        return tuple(self.node_index[n] for n in self.common_border)


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
    nonborder_nodes = tuple(sorted(q.nodes - border_all))
    node_index = {n: i for i, n in enumerate(border_nodes + nonborder_nodes)}
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
        nonborder_nodes=nonborder_nodes,
        triples=q.canonical,
        node_index=node_index,
        missing_border=tuple(missing),
        common_border=common,
    )


# ------------------------------------------------------------------ encoding


def encode(
    e: Embedding, layout: QueryLayout, dictionary: TermDictionary
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The border-node and the non-border vector of an embedding, in the
    layout's node order: each node's image as its ID in ``dictionary``,
    UNBOUND for an unbound node. Every image must be a node of the
    dictionary's graph."""
    image = e._d.get
    code = dictionary.ids.__getitem__
    return (
        tuple(map(code, map(image, layout.border_nodes))),
        tuple(map(code, map(image, layout.nonborder_nodes))),
    )


def id_vectors(
    e: Embedding, layout: QueryLayout
) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """``encode`` for an embedding whose images are IDs already."""
    image = e._d.get
    return (
        tuple([image(n, UNBOUND) for n in layout.border_nodes]),
        tuple([image(n, UNBOUND) for n in layout.nonborder_nodes]),
    )


# ------------------------------------------------------- fragment joining


def totals_from_fragments(
    sub: Query,
    fragments: list[tuple[Embedding, frozenset[int], int]],
    *,
    cap: int | None = None,
) -> list[Embedding]:
    """Join useful partial fragments into the total embeddings of sub.

    Fragments are (embedding, matched subquery-triple indexes, segment id)
    records; the segment id does not take part in the join, and the images
    only need to hash and compare (qejpe joins dictionary IDs). A join state is
    (bindings, covered triples). The search walks the subquery's triples in
    canonical order and extends each state with fragments that match the
    first uncovered triple, so every join step makes progress and
    disconnected subqueries fall out of the same loop.

    When sub has a star centre, every fragment binds it (each matched triple
    contains the centre), and fragments with different centre images never
    join. The fragments are then split by centre image and each part is
    joined on its own, its candidates for triple i being the part's
    fragments that matched i. A subquery without a centre, which no
    decomposer builds but a hand-built plan may, is joined in one pass whose
    candidates for triple i are looked up by the image of the triple's
    bound subject or object.

    ``cap`` bounds the live join states of one part, or of the whole pass
    when there is no centre; beyond it the join raises CartesianCapExceeded.
    """
    n = len(sub.canonical)
    out: dict = {}
    centres = star_centers(sub)
    if centres:
        # a variable centre splits the fragments; a constant one cannot
        centre = next((c for c in centres if not c.is_constant), centres[0])
        parts: dict[Term, list] = {}
        for frag in fragments:
            img = frag[0]._d[centre]
            part = parts.get(img)
            if part is None:
                parts[img] = [frag]
            else:
                part.append(frag)
        for part in parts.values():
            by_triple = _by_triple(part, n)
            if all(by_triple):
                _join(by_triple, None, cap, out)
        return list(out.values())

    by_triple = _by_triple(fragments, n)
    if not all(by_triple):
        return []
    # A fragment listed under triple i matched that triple, so its embedding
    # binds both endpoints. Bucketing by those images lets a state with a
    # bound endpoint probe a handful of candidates instead of every fragment.
    endpoints = [(t.s, t.o) for t in sub.canonical]
    by_subject: list[dict] = []
    by_object: list[dict] = []
    for (s_node, o_node), frags in zip(endpoints, by_triple):
        sidx: dict = {}
        oidx: dict = {}
        for frag in frags:
            sidx.setdefault(frag[0][s_node], []).append(frag)
            oidx.setdefault(frag[0][o_node], []).append(frag)
        by_subject.append(sidx)
        by_object.append(oidx)

    def probe(i: int, bindings: dict) -> list:
        s_node, o_node = endpoints[i]
        s_img = bindings.get(s_node)
        if s_img is not None:
            return by_subject[i].get(s_img, ())
        o_img = bindings.get(o_node)
        if o_img is not None:
            return by_object[i].get(o_img, ())
        return by_triple[i]

    _join(by_triple, probe, cap, out)
    return list(out.values())


def _by_triple(fragments: list, n: int) -> list[list]:
    """The fragments listed under each subquery triple they matched."""
    by_triple: list[list] = [[] for _ in range(n)]
    for frag in fragments:
        for i in frag[1]:
            by_triple[i].append(frag)
    return by_triple


def _join(by_triple: list[list], probe, cap: int | None, out: dict) -> None:
    """The state join over one set of per-triple candidate lists; adds each
    total it reaches to out, keyed by its bindings. ``probe(i, bindings)``,
    when given, narrows the candidates for triple i."""
    states: dict = {(frozenset(), frozenset()): ({}, frozenset())}
    for i, frags in enumerate(by_triple):
        new_states: dict = {}
        for key, (bindings, covered) in states.items():
            if i in covered:
                new_states.setdefault(key, (bindings, covered))
                continue
            candidates = frags if probe is None else probe(i, bindings)
            for femb, fmatched, _fseg in candidates:
                ok = True
                for node, img in femb._d.items():
                    cur = bindings.get(node)
                    if cur is not None and cur != img:
                        ok = False
                        break
                if not ok:
                    continue
                merged = dict(bindings)
                merged.update(femb._d)
                cov = covered | fmatched
                new_key = (frozenset(merged.items()), cov)
                if new_key not in new_states:
                    new_states[new_key] = (merged, cov)
                    if cap is not None and len(new_states) > cap:
                        raise CartesianCapExceeded(
                            f"fragment join exceeded {cap} intermediate states"
                        )
        states = new_states
        if not states:
            return
    # every state left covers all triples: step i covered triple i
    for key, (bindings, _covered) in states.items():
        if key[0] not in out:
            out[key[0]] = Embedding(bindings)
