"""Embeddings: total, partial, useful partial, and their encodings.

An embedding maps query nodes to data nodes. A total embedding of a query
instantiates every triple inside the graph. A partial embedding may leave
nodes unbound, but every binding it does make must be witnessed by a matched
triple. A useful partial embedding of a subquery against one segment is a
partial embedding worth shipping to the join phase: it is non-trivial, it is
defined on every constant of the subquery present in the segment, and any
node it maps to a non-border, non-literal value must have all of its triples
matched inside the segment (otherwise no other segment can ever complete it).

The encoded form splits an embedding into a border-node vector, a non-border
vector, and triple-match flags, following a fixed node/triple enumeration with
border nodes first; None marks an unbound position. The engines ship
embeddings between stages in this form.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping

from .errors import CartesianCapExceeded
from .model import (
    DataGraph,
    DataTriple,
    Query,
    QueryDecomposition,
    Term,
    TriplePattern,
)

__all__ = [
    "Embedding",
    "is_compatible",
    "join",
    "restrict",
    "embedding_sort_key",
    "enumerate_total",
    "enumerate_useful_partial",
    "is_useful",
    "QueryLayout",
    "preprocess",
    "EncodedEmbedding",
    "encode",
    "totals_from_fragments",
]


class Embedding(Mapping):
    """An immutable node-to-node mapping."""

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
        body = ", ".join(f"{n.token()}->{v.token()}" for n, v in self.items())
        return "{" + body + "}"


def is_compatible(e1: Embedding, e2: Embedding) -> bool:
    """True when the embeddings agree on every shared node."""
    a, b = (e1, e2) if len(e1) <= len(e2) else (e2, e1)
    bd = b._d
    for n, v in a._d.items():
        if n in bd and bd[n] != v:
            return False
    return True


def join(e1: Embedding, e2: Embedding) -> Embedding:
    if not is_compatible(e1, e2):
        raise ValueError("cannot join incompatible embeddings")
    merged = dict(e1._d)
    merged.update(e2._d)
    return Embedding(merged)


def restrict(e: Embedding, nodes: Iterable[Term]) -> Embedding:
    keep = set(nodes)
    return Embedding({n: v for n, v in e._d.items() if n in keep})


def embedding_sort_key(e: Embedding):
    return tuple((n.key, v.key) for n, v in e.items())


# ------------------------------------------------------------------ matching


def _value_of(term: Term, bindings: dict[Term, Term]) -> Term | None:
    if term.is_constant:
        return term
    return bindings.get(term)


def _candidates(
    g: DataGraph, t: TriplePattern, s_val: Term | None, o_val: Term | None
) -> tuple[DataTriple, ...]:
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
    """Bindings plus whatever inst pins down; None on conflict."""
    new = bindings
    for node, img in ((t.s, inst.s), (t.o, inst.o)):
        if node.is_constant:
            if node != img:
                return None
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
    """All total embeddings of q in g, deterministically ordered."""
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
    results.sort(key=embedding_sort_key)
    return results


def _matched_under(
    triples: tuple[TriplePattern, ...], full: dict[Term, Term], segment: DataGraph
) -> frozenset[int]:
    matched = set()
    for i, t in enumerate(triples):
        sv = full.get(t.s) if t.s.is_variable else (t.s if t.s in full else None)
        ov = full.get(t.o) if t.o.is_variable else (t.o if t.o in full else None)
        if sv is None or ov is None or sv.is_literal:
            continue
        if DataTriple(sv, t.p, ov) in segment:
            matched.add(i)
    return frozenset(matched)


def _validate_partial(
    sub: Query,
    segment: DataGraph,
    border: frozenset[Term],
    full: dict[Term, Term],
) -> frozenset[int] | None:
    """Useful-partial checks; returns the matched triple set or None."""
    triples = sub.canonical
    matched = _matched_under(triples, full, segment)
    if not matched:
        return None
    # every constant of the subquery present in the segment must be bound
    seg_nodes = segment.nodes
    for c in sub.constants:
        if c in seg_nodes and c not in full:
            return None
    # every bound variable needs a matched triple as witness
    for node in full:
        if not node.is_variable:
            continue
        if not any(node in triples[i].nodes for i in matched):
            return None
    # bound nodes mapped outside border/literals must be fully matched here
    for node, img in full.items():
        if img.is_literal or img in border:
            continue
        for i, t in enumerate(triples):
            if node in t.nodes and i not in matched:
                return None
    return matched


def enumerate_useful_partial(
    sub: Query, segment: DataGraph, border: frozenset[Term]
) -> list[tuple[Embedding, frozenset[int]]]:
    """All useful partial embeddings of sub against one segment.

    Returns (embedding, matched-triple-indexes) pairs; indexes refer to the
    subquery's canonical triple order. Deterministically sorted.
    """
    triples = sub.canonical
    seg_nodes = segment.nodes
    present_constants = [c for c in sorted(sub.constants) if c in seg_nodes]
    results: dict = {}

    def finalize(bindings: dict):
        full = dict(bindings)
        for c in present_constants:
            full[c] = c
        if not full:
            return
        key = frozenset(full.items())
        if key in results:
            return
        matched = _validate_partial(sub, segment, border, full)
        if matched is not None:
            results[key] = (Embedding(full), matched)

    def dfs(i: int, bindings: dict):
        if i == len(triples):
            finalize(bindings)
            return
        dfs(i + 1, bindings)
        t = triples[i]
        for inst in _candidates(
            segment, t, _value_of(t.s, bindings), _value_of(t.o, bindings)
        ):
            nb = _extended(bindings, t, inst)
            if nb is not None:
                dfs(i + 1, nb)

    dfs(0, {})
    out = list(results.values())
    out.sort(key=lambda pair: (embedding_sort_key(pair[0]), sorted(pair[1])))
    return out


def is_useful(
    e: Embedding, sub: Query, segment: DataGraph, border: frozenset[Term]
) -> bool:
    """Check an arbitrary embedding against the useful-partial conditions."""
    full = dict(e._d)
    if not full:
        return False
    return _validate_partial(sub, segment, border, full) is not None


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


@dataclass(frozen=True)
class EncodedEmbedding:
    """Positional form: border vector, non-border vector, match flags."""

    bnv: tuple[Term | None, ...]
    nbnv: tuple[Term | None, ...]
    tm: tuple[bool, ...]


def encode(
    e: Embedding, layout: QueryLayout, matched: Iterable[int] = ()
) -> EncodedEmbedding:
    """Encode an embedding; match flags come from ``matched`` (query-level
    triple indexes)."""
    flags = set(matched)
    return EncodedEmbedding(
        bnv=tuple(e._d.get(n) for n in layout.border_nodes),
        nbnv=tuple(e._d.get(n) for n in layout.nonborder_nodes),
        tm=tuple(i in flags for i in range(len(layout.triples))),
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
    records; the segment id does not take part in the join. A join state is
    (bindings, covered triples). The search walks the subquery's triples in
    canonical order and extends each state with fragments that match the
    first uncovered triple, so every join step makes progress and
    disconnected subqueries fall out of the same loop.
    """
    n = len(sub.canonical)
    by_triple: dict[int, list[tuple[Embedding, frozenset[int], int]]] = {
        i: [] for i in range(n)
    }
    for frag in fragments:
        for i in frag[1]:
            by_triple[i].append(frag)

    # A fragment listed under triple i matched that triple, so its embedding
    # binds both endpoints. Bucketing by those images lets a state with a
    # bound endpoint probe a handful of candidates instead of every fragment.
    endpoints = [(t.s, t.o) for t in sub.canonical]
    by_subject: list[dict] = []
    by_object: list[dict] = []
    for i in range(n):
        s_node, o_node = endpoints[i]
        sidx: dict = {}
        oidx: dict = {}
        for frag in by_triple[i]:
            sidx.setdefault(frag[0][s_node], []).append(frag)
            oidx.setdefault(frag[0][o_node], []).append(frag)
        by_subject.append(sidx)
        by_object.append(oidx)

    states: dict = {(frozenset(), frozenset()): ({}, frozenset())}
    for i in range(n):
        new_states: dict = {}
        for key, (bindings, covered) in states.items():
            if i in covered:
                new_states.setdefault(key, (bindings, covered))
                continue
            s_node, o_node = endpoints[i]
            s_img = bindings.get(s_node)
            if s_img is not None:
                candidates = by_subject[i].get(s_img, ())
            else:
                o_img = bindings.get(o_node)
                if o_img is not None:
                    candidates = by_object[i].get(o_img, ())
                else:
                    candidates = by_triple[i]
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
            return []
    out: dict = {}
    for bindings, covered in states.values():
        if len(covered) == n:
            key = frozenset(bindings.items())
            if key not in out:
                out[key] = Embedding(bindings)
    result = list(out.values())
    result.sort(key=embedding_sort_key)
    return result
