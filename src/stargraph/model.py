"""Terms, triples, graphs, queries, and their canonical ordering.

Terms are interned: ``iri``, ``literal`` and ``variable`` (and ``Term(kind,
lexical)`` itself) return the one object that exists per (kind, lexical form),
pickling and copying come back to that same object, and terms therefore compare
and hash by identity. Triples, tuples and sets of terms hash without touching
the lexical forms.

As in the paper, a data graph and a basic graph pattern are both sets of
triples. A ``DataTriple`` is a ``TriplePattern`` that also holds no variable,
and ``DataGraph`` and ``Query`` share one base for what a set of triples
does: the empty-input check, the canonical order, the node set, membership,
length, iteration, equality and hashing. Each triple's constructor checks the
positions of its terms; the parser relies on those checks alone.

Everything downstream (partitioning, decomposition, evaluation) relies on the
canonical orders defined here: terms sort by (lexical form, kind), triples by
``TriplePattern.key``, their per-position term keys in one flat tuple, and a
graph's ``TermDictionary`` numbers its nodes in term order. Iteration over
graphs and queries always follows that order, which is what makes runs
reproducible regardless of hash seeds or worker counts. A ``DataGraph``'s
match index keeps it too: each lookup returns its triples in canonical
order, as a read-only sequence.
"""

from __future__ import annotations

import enum
from dataclasses import KW_ONLY, dataclass, field
from functools import cached_property, total_ordering
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    EmptyGraph,
    EmptyQuery,
    LiteralSubject,
    MalformedLine,
    NotADecomposition,
    NotAPartition,
    ParseError,
    VariableInData,
    VariablePredicate,
)

__all__ = [
    "TermKind",
    "Term",
    "iri",
    "literal",
    "variable",
    "DataTriple",
    "TriplePattern",
    "DataGraph",
    "Query",
    "so_centers",
    "star_centers",
    "QueryDecomposition",
    "border_of",
    "block_index",
    "UNBOUND",
    "TermDictionary",
    "DataDecomposition",
]


class TermKind(enum.IntEnum):
    IRI = 0
    LITERAL = 1
    VARIABLE = 2


@total_ordering
@dataclass(frozen=True, slots=True, eq=False, init=False)
class Term:
    """An IRI, literal, or variable. Compare/sort by (lexical, kind).

    Interned: construction returns the existing term for (kind, lexical), so
    ``==`` and ``hash`` are object identity.
    """

    kind: TermKind
    lexical: str

    def __new__(cls, kind: TermKind, lexical: str) -> "Term":
        if not isinstance(lexical, str):
            raise TypeError(f"lexical form must be str, not {type(lexical).__name__}")
        return _make(TermKind(kind), lexical)

    def __reduce__(self):
        return (_make, (self.kind, self.lexical))

    @property
    def key(self) -> tuple[str, int]:
        return (self.lexical, self.kind._value_)

    @property
    def is_variable(self) -> bool:
        return self.kind is TermKind.VARIABLE

    @property
    def is_literal(self) -> bool:
        return self.kind is TermKind.LITERAL

    @property
    def is_constant(self) -> bool:
        return self.kind is not TermKind.VARIABLE

    def token(self) -> str:
        """Render in input syntax: <iri>, "literal", ?variable."""
        if self.kind is TermKind.IRI:
            return f"<{self.lexical}>"
        if self.kind is TermKind.VARIABLE:
            return f"?{self.lexical}"
        escaped = self.lexical.replace("\\", "\\\\").replace('"', '\\"')
        return f'"{escaped}"'

    def __lt__(self, other: "Term") -> bool:
        if self.lexical != other.lexical:
            return self.lexical < other.lexical
        return self.kind < other.kind

    def __repr__(self) -> str:
        return f"Term({self.token()})"


_interned: dict[tuple[TermKind, str], Term] = {}
# term order as a sort key built in C, faster than Term.__lt__ in sorted()
_term_order = attrgetter("lexical", "kind")


def _make(kind: TermKind, lexical: str) -> Term:
    key = (kind, lexical)
    t = _interned.get(key)
    if t is None:
        t = object.__new__(Term)
        object.__setattr__(t, "kind", kind)
        object.__setattr__(t, "lexical", lexical)
        # setdefault is atomic, so threads interning one term at once agree on it
        t = _interned.setdefault(key, t)
    return t


def iri(lexical: str) -> Term:
    return _make(TermKind.IRI, lexical)


def literal(lexical: str) -> Term:
    return _make(TermKind.LITERAL, lexical)


def variable(name: str) -> Term:
    return _make(TermKind.VARIABLE, name)


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A query triple: subject/object may be variables, predicate may not.

    ``key`` is the canonical order's sort key: the (lexical form, kind) of
    the subject, predicate and object, flattened to six fields. Each term
    key has two fields, so it orders triples as the nested per-position term
    keys do, and builds one tuple, not four.
    """

    s: Term
    p: Term
    o: Term

    def __post_init__(self):
        if self.s.is_literal:
            raise LiteralSubject("literal in subject position")
        if self.p.is_variable:
            raise VariablePredicate("variable in predicate position")
        if self.p.is_literal:
            raise MalformedLine("literal in predicate position")

    @property
    def key(self) -> tuple:
        s, p, o = self.s, self.p, self.o
        return (
            s.lexical, s.kind._value_, p.lexical, p.kind._value_, o.lexical, o.kind._value_
        )

    @property
    def nodes(self) -> tuple[Term, ...]:
        """Subject and object (the predicate is not a node)."""
        if self.s == self.o:
            return (self.s,)
        return (self.s, self.o)

    def token(self) -> str:
        return f"{self.s.token()} {self.p.token()} {self.o.token()} ."

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.token()})"


@dataclass(frozen=True, slots=True, repr=False)
class DataTriple(TriplePattern):
    """A ground triple: IRI subject, IRI predicate, IRI or literal object.

    It never equals the ``TriplePattern`` of the same terms."""

    def __post_init__(self):
        # the decorator replaces the class, so zero-argument super() fails here
        TriplePattern.__post_init__(self)
        if self.s.is_variable or self.o.is_variable:
            raise VariableInData("variable in a data triple")


class _TripleSet:
    """An immutable, non-empty set of triples, iterated in canonical order.

    A subclass names the error and message for empty input in ``_empty``
    and the noun its repr counts in ``_noun``. Sets of different subclasses
    are never equal.
    """

    __slots__ = ("triples", "_canonical", "_nodes")
    _empty: tuple[type[ParseError], str]
    _noun: str

    def __init__(self, triples: Iterable[TriplePattern]):
        ts = frozenset(triples)
        if not ts:
            error, message = self._empty
            raise error(message)
        self.triples = ts
        self._canonical: tuple | None = None
        self._nodes: frozenset[Term] | None = None

    @property
    def canonical(self) -> tuple:
        if self._canonical is None:
            self._canonical = tuple(sorted(self.triples, key=TriplePattern.key.fget))
        return self._canonical

    @property
    def nodes(self) -> frozenset[Term]:
        if self._nodes is None:
            ns = set()
            for t in self.triples:
                ns.add(t.s)
                ns.add(t.o)
            self._nodes = frozenset(ns)
        return self._nodes

    def __contains__(self, t: TriplePattern) -> bool:
        return t in self.triples

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator:
        return iter(self.canonical)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

    def __repr__(self) -> str:
        return f"{type(self).__name__}({len(self.triples)} {self._noun})"


# the index entry of a predicate the graph does not have
_NO_ENTRY: tuple = ((), {}, {})


class DataGraph(_TripleSet):
    """An immutable set of data triples with a lazy match index.

    ``canonical`` lists the triples in canonical order. A graph built from
    arbitrary triples sorts them on first use; a segment built by
    ``partition`` inherits its parent's order, which it keeps as given.

    The index is one dict per graph, keyed by predicate (the per-predicate
    vectors of Hexastore, Weiss et al., VLDB 2008): ``_index[p]`` is
    ``(triples, by_subject, by_object)``, the list of p's triples and, under
    it, one list per subject and one per object, so no (s, p) or (o, p) pair
    needs a key of its own. The first lookup builds all of it in one pass
    over ``canonical``, so every list is in canonical order.
    ``predicate_entry(p)`` is the one lookup: it hands out p's entry itself,
    and ``by_predicate(p)`` its triples. Every part is a read-only sequence
    or mapping that callers must not change.
    """

    __slots__ = ("_index", "_dictionary")
    _empty = (EmptyGraph, "a data graph needs at least one triple")
    _noun = "triples"

    def __init__(self, triples: Iterable[DataTriple]):
        super().__init__(triples)
        self._index: dict[Term, tuple] | None = None
        self._dictionary: TermDictionary | None = None

    @classmethod
    def _from_canonical(cls, canonical: list[DataTriple]) -> "DataGraph":
        """The graph of ``canonical``, distinct triples already in canonical
        order, which it keeps without sorting again. Only segments come
        here, filled in one pass over their parent's ``canonical``."""
        g = cls(canonical)
        g._canonical = tuple(canonical)
        return g

    @property
    def dictionary(self) -> TermDictionary:
        """IDs for the graph's nodes, built on first use and kept, so every
        decomposition of the graph shares one."""
        if self._dictionary is None:
            self._dictionary = TermDictionary(self.nodes)
        return self._dictionary

    def _build_index(self) -> dict[Term, tuple]:
        index: dict[Term, tuple] = {}
        for t in self.canonical:
            entry = index.get(t.p)
            if entry is None:
                entry = index[t.p] = ([], {}, {})
            triples, by_s, by_o = entry
            triples.append(t)
            same = by_s.get(t.s)
            if same is None:
                by_s[t.s] = [t]
            else:
                same.append(t)
            same = by_o.get(t.o)
            if same is None:
                by_o[t.o] = [t]
            else:
                same.append(t)
        self._index = index
        return index

    def predicate_entry(self, p: Term) -> tuple:
        """p's index entry ``(triples, by_subject, by_object)``, read-only;
        every part is empty when the graph has no triple with predicate p."""
        index = self._index or self._build_index()  # never empty once built
        return index.get(p, _NO_ENTRY)

    def by_predicate(self, p: Term) -> Sequence[DataTriple]:
        """The triples with predicate p, canonical order, read-only."""
        return self.predicate_entry(p)[0]


class Query(_TripleSet):
    """An immutable basic graph pattern."""

    __slots__ = ("_variables", "_output_pattern", "_star_centers")
    _empty = (EmptyQuery, "a query needs at least one triple pattern")
    _noun = "patterns"

    def __init__(self, triples: Iterable[TriplePattern]):
        super().__init__(triples)
        self._variables: frozenset[Term] | None = None
        self._output_pattern: tuple[Term, ...] | None = None
        self._star_centers: tuple[Term, ...] | None = None

    @property
    def variables(self) -> frozenset[Term]:
        if self._variables is None:
            self._variables = frozenset(n for n in self.nodes if n.is_variable)
        return self._variables

    @property
    def constants(self) -> frozenset[Term]:
        return self.nodes - self.variables

    @property
    def output_pattern(self) -> tuple[Term, ...]:
        """Variables in order of first appearance over canonical triples."""
        if self._output_pattern is None:
            seen: list[Term] = []
            for t in self.canonical:
                for n in (t.s, t.o):
                    if n.is_variable and n not in seen:
                        seen.append(n)
            self._output_pattern = tuple(seen)
        return self._output_pattern

    def incident(self, node: Term) -> tuple[TriplePattern, ...]:
        return tuple(t for t in self.canonical if node in (t.s, t.o))


def star_centers(q: Query) -> tuple[Term, ...]:
    """Nodes that appear in every triple of q, canonical order; computed on
    the first call and kept in q."""
    if q._star_centers is None:
        common = None
        for t in q.triples:
            here = set(t.nodes)
            common = here if common is None else common & here
            if not common:
                break
        q._star_centers = tuple(sorted(common, key=_term_order))
    return q._star_centers


def so_centers(q: Query) -> tuple[Term, ...]:
    """Star centres that are the subject of at least one triple."""
    subjects = {t.s for t in q.triples}
    return tuple(c for c in star_centers(q) if c in subjects)


@dataclass(frozen=True)
class QueryDecomposition:
    """A query split into subqueries whose union is the query.

    Each subquery's centre follows from its triples alone, and
    ``embedding.star_of`` decides it.
    """

    query: Query
    subqueries: tuple[Query, ...]
    method: str

    def __post_init__(self):
        if not self.subqueries:
            raise NotADecomposition("a decomposition needs at least one subquery")
        union = set()
        for sub in self.subqueries:
            union |= sub.triples
        if union != self.query.triples:
            raise NotADecomposition("subqueries do not union to the query")

    def __len__(self) -> int:
        return len(self.subqueries)


def border_of(node_sets: Iterable[frozenset[Term]]) -> frozenset[Term]:
    """The border nodes of a decomposition, given the node sets of its
    parts (segments or subqueries): the non-literal nodes that two or more
    parts hold."""
    seen: set[Term] = set()
    shared: set[Term] = set()
    for ns in node_sets:
        shared |= seen & ns
        seen |= ns
    return frozenset(n for n in shared if not n.is_literal)


def block_index(graph: DataGraph, blocks) -> dict[Term, int]:
    """Each non-literal node of ``graph`` mapped to the index of its block.

    ``blocks``, a sequence of node sets, must partition exactly the graph's
    non-literal nodes: every block non-empty, no literal, no node in two
    blocks, no node the graph lacks and none left uncovered. Anything else
    raises NotAPartition naming the offending node first in term order, so
    the message does not depend on the order a set iterates in.
    """
    if not blocks or any(not b for b in blocks):
        raise NotAPartition("node blocks must be non-empty")
    expected = {n for n in graph.nodes if not n.is_literal}
    block_of: dict[Term, int] = {}
    for i, b in enumerate(blocks):
        for n in b:
            if n.is_literal or n in block_of:
                bad = min(
                    (m for m in b if m.is_literal or block_of.get(m, i) < i), default=n
                )
                if bad.is_literal:
                    raise NotAPartition(f"literal {bad.token()} cannot be in a node block")
                raise NotAPartition(f"node {bad.token()} appears in two blocks")
            block_of[n] = i
    if block_of.keys() != expected:
        missing = sorted(expected - block_of.keys())
        extra = sorted(block_of.keys() - expected)
        if extra:
            raise NotAPartition(f"block node {extra[0].token()} is not in the graph")
        raise NotAPartition(f"node {missing[0].token()} is not covered by any block")
    return block_of


def _route(graph: DataGraph, blocks) -> tuple[DataGraph, ...]:
    """The segments that ``blocks`` induce: segment i holds every triple
    with an endpoint in block i, in one pass over ``graph.canonical``.

    ``block_index`` checks the blocks before any triple is routed: a block
    of nodes the graph lacks would route no triple, and its empty segment
    would raise EmptyGraph instead of naming the node.
    """
    block_of = block_index(graph, blocks)
    segments: list[list[DataTriple]] = [[] for _ in blocks]
    for t in graph.canonical:
        i = block_of[t.s]
        segments[i].append(t)
        j = block_of.get(t.o)  # None for a literal, which no block holds
        if j is not None and j != i:
            segments[j].append(t)
    return tuple(map(DataGraph._from_canonical, segments))


UNBOUND = -1


class TermDictionary:
    """Order-preserving integer IDs for the nodes of one data graph, the
    dictionary encoding of RDF-3X (Neumann & Weikum, VLDB 2008).

    A node's ID is its rank in term order, so IDs compare as their terms do,
    and UNBOUND (-1), the image of an unbound query node, sorts before every
    ID. ``terms`` lists the nodes by ID; ``ids`` maps each node to its ID and
    None, the unbound image, to UNBOUND.
    """

    __slots__ = ("terms", "ids")

    def __init__(self, nodes: Iterable[Term]):
        self.terms: tuple[Term, ...] = tuple(
            sorted(nodes, key=_term_order)
        )
        self.ids: dict[Term | None, int] = {t: i for i, t in enumerate(self.terms)}
        self.ids[None] = UNBOUND


@dataclass(frozen=True)
class DataDecomposition:
    """Segments of a data graph plus the border bookkeeping evaluation needs.

    An edge partition is given its ``segments``, which must union to the
    graph. A node partition (an s-decomposition) is given ``node_blocks``
    instead, a partition of the graph's non-literal nodes that
    ``block_index`` checks, and the constructor routes the segments from
    them: segment i holds every triple with an endpoint in block i, so each
    node's whole star sits in its own block's segment. Segments and blocks
    are never given together.
    ``borders[i]`` holds segment i's border nodes, those of ``border_of``
    over all segments. ``replicated`` holds, per segment of a node
    partition, its border minus its own block (None for edge partitions):
    a node of another block reaches segment i only through a triple that
    its own block's segment holds too, so it is a non-literal node of two
    segments.
    ``interiors[i]`` holds the dictionary IDs of segment i's non-literal
    nodes outside its border, read by qejpe's closure rule and by the
    stars mapper, which splits central images by it.
    """

    graph: DataGraph
    segments: tuple[DataGraph, ...] | None = None
    _: KW_ONLY
    method: str
    seed: int | None = None
    node_blocks: tuple[frozenset[Term], ...] | None = None
    borders: tuple[frozenset[Term], ...] = field(init=False)
    replicated: tuple[frozenset[Term], ...] | None = field(init=False)

    def __post_init__(self):
        blocks = self.node_blocks
        if blocks is not None:
            if self.segments is not None:
                raise NotADecomposition(
                    "node blocks route their own segments; give segments or blocks"
                )
            blocks = tuple(map(frozenset, blocks))
            object.__setattr__(self, "node_blocks", blocks)
            object.__setattr__(self, "segments", _route(self.graph, blocks))
        elif not self.segments:
            raise NotADecomposition(
                "a data decomposition needs segments or node blocks"
            )
        elif set().union(*(s.triples for s in self.segments)) != self.graph.triples:
            raise NotADecomposition("segments do not union to the graph")
        shared = border_of(s.nodes for s in self.segments)
        borders = tuple(s.nodes & shared for s in self.segments)
        object.__setattr__(self, "borders", borders)
        object.__setattr__(self, "replicated", None if blocks is None else tuple(
            map(frozenset.difference, borders, blocks)
        ))

    @property
    def is_s_decomposition(self) -> bool:
        return self.node_blocks is not None

    @property
    def dictionary(self) -> TermDictionary:
        """The graph's dictionary, whose IDs the engines ship in place of
        terms. Every image a record carries is a graph node."""
        return self.graph.dictionary

    @cached_property
    def interiors(self) -> tuple[frozenset[int], ...]:
        """Per segment, the IDs of its interior nodes: the non-literal nodes
        outside its border. No other segment holds an interior node, so
        every triple at one lies in its segment. Built on first read and
        kept, as ``dictionary`` is, so set-up does not pay for them."""
        ids = self.dictionary.ids
        return tuple(
            frozenset([ids[n] for n in seg.nodes - border if not n.is_literal])
            for seg, border in zip(self.segments, self.borders)
        )

    def __len__(self) -> int:
        return len(self.segments)
