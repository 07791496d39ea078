"""Terms, triples, graphs, queries, and their canonical ordering.

Terms are interned: ``iri``, ``literal`` and ``variable`` (and ``Term(kind,
lexical)`` itself) return the one object that exists per (kind, lexical form),
pickling and copying come back to that same object, and terms therefore compare
and hash by identity. Triples, tuples and sets of terms hash without touching
the lexical forms.

Everything downstream (partitioning, decomposition, evaluation) relies on the
canonical orders defined here: terms sort by (lexical form, kind), triples by
their per-position term keys, and a graph's ``TermDictionary`` numbers its
nodes in term order. Iteration over graphs and queries always follows that
order, which is what makes runs reproducible regardless of hash seeds or
worker counts. A ``DataGraph``'s match index keeps it too: each lookup
returns its triples in canonical order, as a read-only sequence.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from functools import total_ordering
from operator import attrgetter
from typing import Iterable, Iterator, Sequence

from .errors import (
    EmptyGraph,
    EmptyQuery,
    LiteralSubject,
    MalformedLine,
    NotADecomposition,
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
    "QueryShape",
    "classify_query",
    "so_centers",
    "star_centers",
    "QueryDecomposition",
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
class DataTriple:
    """A ground triple: IRI subject, IRI predicate, IRI or literal object."""

    s: Term
    p: Term
    o: Term

    def __post_init__(self):
        if self.s.is_literal:
            raise LiteralSubject("literal in subject position")
        if self.s.is_variable or self.o.is_variable:
            raise VariableInData("variable in a data triple")
        if self.p.is_variable:
            raise VariablePredicate("variable in predicate position")
        if self.p.is_literal:
            raise MalformedLine("literal in predicate position")

    @property
    def key(self):
        return (self.s.key, self.p.key, self.o.key)

    def token(self) -> str:
        return f"{self.s.token()} {self.p.token()} {self.o.token()} ."

    def __repr__(self) -> str:
        return f"DataTriple({self.token()})"


@dataclass(frozen=True, slots=True)
class TriplePattern:
    """A query triple: subject/object may be variables, predicate may not."""

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
    def key(self):
        return (self.s.key, self.p.key, self.o.key)

    @property
    def nodes(self) -> tuple[Term, ...]:
        """Subject and object (the predicate is not a node)."""
        if self.s == self.o:
            return (self.s,)
        return (self.s, self.o)

    def token(self) -> str:
        return f"{self.s.token()} {self.p.token()} {self.o.token()} ."

    def ground(self, s: Term, o: Term) -> DataTriple:
        return DataTriple(s, self.p, o)

    def __repr__(self) -> str:
        return f"TriplePattern({self.token()})"


def _flat_key(t: DataTriple | TriplePattern) -> tuple:
    """``t.key`` flattened to six fields. Each term key has two fields, so
    both order triples alike, and the flat one builds one tuple, not four."""
    s, p, o = t.s, t.p, t.o
    return (
        s.lexical, s.kind._value_, p.lexical, p.kind._value_, o.lexical, o.kind._value_
    )


# the index entry of a predicate the graph does not have
_NO_ENTRY: tuple = ((), {}, {})


class DataGraph:
    """An immutable set of data triples with a lazy match index.

    ``canonical`` lists the triples in canonical order. A graph built from
    arbitrary triples sorts them on first use; a segment built by
    ``partition`` inherits its parent's order, which it keeps as given.

    The index is one dict per graph, keyed by predicate (the per-predicate
    vectors of Hexastore, Weiss et al., VLDB 2008): ``_index[p]`` is
    ``(triples, by_subject, by_object)``, the list of p's triples and, under
    it, one list per subject and one per object, so no (s, p) or (o, p) pair
    needs a key of its own. The first lookup builds all of it in one pass
    over ``canonical``, so every list is in canonical order. The lookups hand
    out those lists themselves: read-only sequences that callers must not
    change.
    """

    __slots__ = ("triples", "_canonical", "_nodes", "_index", "_dictionary")

    def __init__(self, triples: Iterable[DataTriple]):
        ts = frozenset(triples)
        if not ts:
            raise EmptyGraph("a data graph needs at least one triple")
        self.triples = ts
        self._canonical: tuple[DataTriple, ...] | None = None
        self._nodes: frozenset[Term] | None = None
        self._index: dict[Term, tuple] | None = None
        self._dictionary: TermDictionary | None = None

    @classmethod
    def _from_canonical(cls, canonical: list[DataTriple]) -> "DataGraph":
        """The graph of ``canonical``, distinct triples already in canonical
        order, which it keeps without sorting again. Only ``partition`` calls
        this, with segments filled in one pass over the parent's
        ``canonical``."""
        g = cls(canonical)
        g._canonical = tuple(canonical)
        return g

    @property
    def canonical(self) -> tuple[DataTriple, ...]:
        if self._canonical is None:
            self._canonical = tuple(sorted(self.triples, key=_flat_key))
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
        index = self._index or self._build_index()
        return index.get(p, _NO_ENTRY)[0]

    def by_subject_predicate(self, s: Term, p: Term) -> Sequence[DataTriple]:
        """The triples (s, p, *), canonical order, read-only."""
        index = self._index or self._build_index()
        return index.get(p, _NO_ENTRY)[1].get(s, ())

    def by_object_predicate(self, o: Term, p: Term) -> Sequence[DataTriple]:
        """The triples (*, p, o), canonical order, read-only."""
        index = self._index or self._build_index()
        return index.get(p, _NO_ENTRY)[2].get(o, ())

    def __contains__(self, t: DataTriple) -> bool:
        return t in self.triples

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[DataTriple]:
        return iter(self.canonical)

    def __eq__(self, other) -> bool:
        return isinstance(other, DataGraph) and self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

    def __repr__(self) -> str:
        return f"DataGraph({len(self.triples)} triples)"


class Query:
    """An immutable basic graph pattern."""

    __slots__ = ("triples", "_canonical", "_nodes", "_variables", "_output_pattern")

    def __init__(self, triples: Iterable[TriplePattern]):
        ts = frozenset(triples)
        if not ts:
            raise EmptyQuery("a query needs at least one triple pattern")
        self.triples = ts
        self._canonical: tuple[TriplePattern, ...] | None = None
        self._nodes: frozenset[Term] | None = None
        self._variables: frozenset[Term] | None = None
        self._output_pattern: tuple[Term, ...] | None = None

    @property
    def canonical(self) -> tuple[TriplePattern, ...]:
        if self._canonical is None:
            self._canonical = tuple(sorted(self.triples, key=_flat_key))
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

    def __contains__(self, t: TriplePattern) -> bool:
        return t in self.triples

    def __len__(self) -> int:
        return len(self.triples)

    def __iter__(self) -> Iterator[TriplePattern]:
        return iter(self.canonical)

    def __eq__(self, other) -> bool:
        return isinstance(other, Query) and self.triples == other.triples

    def __hash__(self) -> int:
        return hash(self.triples)

    def __repr__(self) -> str:
        return f"Query({len(self.triples)} patterns)"


class QueryShape(enum.Enum):
    STAR = "star"
    S_QUERY = "s-query"
    O_QUERY = "o-query"
    SO_QUERY = "so-query"


def star_centers(q: Query) -> tuple[Term, ...]:
    """Nodes that appear in every triple of q, canonical order."""
    centers = None
    for t in q.triples:
        here = set(t.nodes)
        centers = here if centers is None else centers & here
        if not centers:
            return ()
    return tuple(sorted(centers))


def so_centers(q: Query) -> tuple[Term, ...]:
    """Star centers that are the subject of at least one triple."""
    out = []
    for c in star_centers(q):
        if any(t.s == c for t in q.triples):
            out.append(c)
    return tuple(out)


def classify_query(q: Query) -> frozenset[QueryShape]:
    """All shape classes q belongs to.

    A query is a generalized star when some node occurs in every triple; it is
    an s-query / o-query when some node is the subject / object of every
    triple; it is an so-query when some star center is the subject of at least
    one triple. A single-triple query without a self-loop lands in every class.
    """
    shapes = set()
    centers = star_centers(q)
    if centers:
        shapes.add(QueryShape.STAR)
    if any(all(t.s == c for t in q.triples) for c in centers):
        shapes.add(QueryShape.S_QUERY)
    if any(all(t.o == c for t in q.triples) for c in centers):
        shapes.add(QueryShape.O_QUERY)
    if so_centers(q):
        shapes.add(QueryShape.SO_QUERY)
    return frozenset(shapes)


@dataclass(frozen=True)
class QueryDecomposition:
    """A query split into subqueries whose union is the query.

    ``centers`` records the central node each decomposer chose per subquery
    (None when no decomposer picked one, e.g. hand-built splits).
    """

    query: Query
    subqueries: tuple[Query, ...]
    centers: tuple[Term | None, ...]
    method: str

    def __post_init__(self):
        if len(self.subqueries) != len(self.centers):
            raise NotADecomposition("centers and subqueries differ in length")
        if not self.subqueries:
            raise NotADecomposition("a decomposition needs at least one subquery")
        union = set()
        for sub in self.subqueries:
            union |= sub.triples
        if union != self.query.triples:
            raise NotADecomposition("subqueries do not union to the query")

    def __len__(self) -> int:
        return len(self.subqueries)


def _compute_borders(node_sets: list[frozenset[Term]]) -> tuple[frozenset[Term], ...]:
    owner_count: dict[Term, int] = {}
    for ns in node_sets:
        for n in ns:
            owner_count[n] = owner_count.get(n, 0) + 1
    out = []
    for ns in node_sets:
        out.append(
            frozenset(n for n in ns if owner_count[n] > 1 and not n.is_literal)
        )
    return tuple(out)


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
            sorted(nodes, key=attrgetter("lexical", "kind"))
        )
        self.ids: dict[Term | None, int] = {t: i for i, t in enumerate(self.terms)}
        self.ids[None] = UNBOUND

    def decode(self, ids: Iterable[int]) -> tuple[Term | None, ...]:
        """The terms of a vector of IDs, None for UNBOUND."""
        terms = self.terms
        return tuple(None if i == UNBOUND else terms[i] for i in ids)


@dataclass(frozen=True)
class DataDecomposition:
    """Segments of a data graph plus the border bookkeeping evaluation needs.

    For s-decompositions (segments induced by a partition of the non-literal
    nodes) ``node_blocks`` holds that node partition and ``replicated`` the
    per-segment replicated node sets; both are None for edge partitions.
    """

    graph: DataGraph
    segments: tuple[DataGraph, ...]
    method: str
    seed: int | None = None
    node_blocks: tuple[frozenset[Term], ...] | None = None
    borders: tuple[frozenset[Term], ...] = field(init=False)
    replicated: tuple[frozenset[Term], ...] | None = field(init=False)

    def __post_init__(self):
        if not self.segments:
            raise NotADecomposition("a data decomposition needs segments")
        union = set()
        for seg in self.segments:
            union |= seg.triples
        if union != self.graph.triples:
            raise NotADecomposition("segments do not union to the graph")
        borders = _compute_borders([s.nodes for s in self.segments])
        object.__setattr__(self, "borders", borders)
        repl = None
        if self.node_blocks is not None:
            if len(self.node_blocks) != len(self.segments):
                raise NotADecomposition("node blocks and segments differ in length")
            repl = tuple(
                frozenset(
                    n for n in seg.nodes if not n.is_literal and n not in block
                )
                for seg, block in zip(self.segments, self.node_blocks)
            )
        object.__setattr__(self, "replicated", repl)

    @property
    def is_s_decomposition(self) -> bool:
        return self.node_blocks is not None

    @property
    def dictionary(self) -> TermDictionary:
        """The graph's dictionary, whose IDs the engines ship in place of
        terms. Every image a record carries is a graph node."""
        return self.graph.dictionary

    def __len__(self) -> int:
        return len(self.segments)
