"""Splitting a data graph into segments.

Two families:

- Edge partitions: each triple is assigned to exactly one segment. Segments
  are disjoint as triple sets; border nodes are whatever ends up shared.
- S-decompositions: the non-literal nodes are partitioned into blocks and
  each segment holds every triple incident to a node of its block. Triples
  whose endpoints live in different blocks are replicated into both segments,
  so each segment contains the full star around each of its own nodes.

Both produce a DataDecomposition. Imports from files are supported for both
families so partitions computed elsewhere can be reused.
"""

from __future__ import annotations

from pathlib import Path

from .errors import (
    MalformedLine,
    MissingNode,
    MissingTriple,
    NotAPartition,
    TooManySegments,
    UnknownNode,
    UnknownTriple,
)
from .model import DataGraph, DataDecomposition, DataTriple, Term
from .ntio import _LINE_RE, _parse_line, _read_text, term_from_token
from .rng import MASK64, XorShift64Star, _splitmix64, fnv1a64

__all__ = [
    "edge_random_partition",
    "vertex_hash_partition",
    "s_decompose",
    "segments_from_edge_blocks",
    "from_edge_assignment",
    "import_edge_assignment",
    "import_node_partition",
    "import_partition",
]


def segments_from_edge_blocks(
    g: DataGraph,
    blocks: list[set[DataTriple]],
    *,
    method: str,
    seed: int | None = None,
) -> DataDecomposition:
    segments = tuple(DataGraph(b) for b in blocks)
    return DataDecomposition(graph=g, segments=segments, method=method, seed=seed)


def edge_random_partition(g: DataGraph, m: int, seed: int = 0) -> DataDecomposition:
    """Assign each triple to one of m segments uniformly at random.

    The whole assignment is redrawn until no segment is empty, which keeps
    the per-triple distribution uniform conditioned on all segments being
    used. When m is close to the triple count that event is rare, so after a
    bounded number of redraws the last assignment is repaired instead by
    moving triples out of the largest segments. Deterministic in
    (graph, m, seed).
    """
    triples = g.canonical
    if m < 1:
        raise TooManySegments("need at least one segment")
    if m > len(triples):
        raise TooManySegments(
            f"cannot spread {len(triples)} triples over {m} non-empty segments"
        )
    rng = XorShift64Star(seed)
    blocks: list[set[DataTriple]] = []
    for _attempt in range(1000):
        blocks = [set() for _ in range(m)]
        for t in triples:
            blocks[rng.below(m)].add(t)
        if all(blocks):
            break
    while not all(blocks):
        donor = max(range(m), key=lambda i: (len(blocks[i]), -i))
        target = next(i for i in range(m) if not blocks[i])
        moved = min(blocks[donor], key=lambda t: t.key)
        blocks[donor].remove(moved)
        blocks[target].add(moved)
    return segments_from_edge_blocks(g, blocks, method="edge-random", seed=seed)


def _node_hash(node: Term, seed: int) -> int:
    return _splitmix64((seed & MASK64) ^ fnv1a64(node.lexical.encode("utf-8")))


def vertex_hash_partition(g: DataGraph, m: int, seed: int = 0) -> DataDecomposition:
    """Partition the non-literal nodes by a seeded hash, then s-decompose.

    Empty blocks are repaired deterministically: while one exists, the
    largest block (ties to the lowest index) donates its highest-hash node.
    """
    nodes = sorted(n for n in g.nodes if not n.is_literal)
    if m < 1:
        raise TooManySegments("need at least one segment")
    if m > len(nodes):
        raise TooManySegments(
            f"cannot spread {len(nodes)} non-literal nodes over {m} blocks"
        )
    hashes = {n: _node_hash(n, seed) for n in nodes}
    blocks: list[set[Term]] = [set() for _ in range(m)]
    for n in nodes:
        blocks[hashes[n] % m].add(n)
    while not all(blocks):
        donor = max(range(m), key=lambda i: (len(blocks[i]), -i))
        target = next(i for i in range(m) if not blocks[i])
        moved = max(blocks[donor], key=lambda n: (hashes[n], n.key))
        blocks[donor].remove(moved)
        blocks[target].add(moved)
    return s_decompose(
        g, [frozenset(b) for b in blocks], method="vertex-hash", seed=seed
    )


def s_decompose(
    g: DataGraph,
    node_blocks,
    *,
    method: str = "node-import",
    seed: int | None = None,
) -> DataDecomposition:
    """Build the s-decomposition induced by a partition of the node set.

    ``node_blocks`` must partition exactly the non-literal nodes of the
    graph. Segment i gets every triple with an endpoint in block i, so
    cross-block triples are replicated.
    """
    blocks = [frozenset(b) for b in node_blocks]
    if not blocks or any(not b for b in blocks):
        raise NotAPartition("node blocks must be non-empty")
    expected = {n for n in g.nodes if not n.is_literal}
    seen: set[Term] = set()
    for b in blocks:
        for n in b:
            if n.is_literal:
                raise NotAPartition(f"literal {n.token()} cannot be in a node block")
            if n in seen:
                raise NotAPartition(f"node {n.token()} appears in two blocks")
            seen.add(n)
    if seen != expected:
        missing = sorted(expected - seen)
        extra = sorted(seen - expected)
        if extra:
            raise NotAPartition(f"block node {extra[0].token()} is not in the graph")
        raise NotAPartition(f"node {missing[0].token()} is not covered by any block")
    segments = []
    for block in blocks:
        seg = [
            t
            for t in g.canonical
            if t.s in block or (not t.o.is_literal and t.o in block)
        ]
        segments.append(DataGraph(seg))
    return DataDecomposition(
        graph=g,
        segments=tuple(segments),
        method=method,
        seed=seed,
        node_blocks=tuple(blocks),
    )


def _check_block_ids(ids, kind: str) -> int:
    used = set(ids)
    if not used:
        raise NotAPartition(f"empty {kind} assignment")
    m = max(used) + 1
    if min(used) < 0 or used != set(range(m)):
        raise NotAPartition(
            f"{kind} block ids must be exactly 0..{m - 1} with none skipped"
        )
    return m


def from_edge_assignment(
    g: DataGraph,
    assignment,
    *,
    method: str = "edge-import",
    seed: int | None = None,
) -> DataDecomposition:
    """Edge partition from an explicit {triple: block} mapping.

    Triple keys may be DataTriple objects or their serialized tokens.
    """
    mapping: dict[DataTriple, int] = {}
    for key, block in dict(assignment).items():
        t = key
        if isinstance(key, str):
            t = _parse_line(key, None, as_query=False)
        if t not in g.triples:
            raise UnknownTriple(f"assigned triple {t.token()} is not in the graph")
        mapping[t] = int(block)
    for t in g.canonical:
        if t not in mapping:
            raise MissingTriple(f"triple {t.token()} has no block assignment")
    m = _check_block_ids(mapping.values(), "edge")
    blocks: list[set[DataTriple]] = [set() for _ in range(m)]
    for t, block in mapping.items():
        blocks[block].add(t)
    return segments_from_edge_blocks(g, blocks, method=method, seed=seed)


def _assignment_lines(path: Path):
    for idx, raw in enumerate(_read_text(path).splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "\t" not in raw:
            raise MalformedLine("expected <entry><TAB><block id>", idx)
        left, _, right = raw.rpartition("\t")
        try:
            block = int(right.strip())
        except ValueError:
            raise MalformedLine(f"block id is not an integer: {right.strip()!r}", idx)
        yield idx, left.strip(), block


def import_edge_assignment(source, g: DataGraph) -> DataDecomposition:
    """Edge partition from a file of ``<s> <p> <o> .<TAB><block id>`` lines."""
    if isinstance(source, (str, Path)):
        assignment = {}
        for idx, left, block in _assignment_lines(Path(source)):
            assignment[_parse_line(left, idx, as_query=False)] = block
        return from_edge_assignment(g, assignment)
    return from_edge_assignment(g, source)


def import_node_partition(source, g: DataGraph) -> DataDecomposition:
    """S-decomposition from ``<node token><TAB><block id>`` lines or a mapping."""
    if isinstance(source, (str, Path)):
        raw: dict[Term, int] = {}
        for idx, left, block in _assignment_lines(Path(source)):
            raw[term_from_token(left, idx)] = block
    else:
        raw = {
            (term_from_token(k) if isinstance(k, str) else k): int(v)
            for k, v in dict(source).items()
        }
    valid = {n for n in g.nodes if not n.is_literal}
    for n in raw:
        if n not in valid:
            raise UnknownNode(
                f"assigned node {n.token()} is not a non-literal node of the graph"
            )
    for n in valid:
        if n not in raw:
            raise MissingNode(f"node {n.token()} has no block assignment")
    m = _check_block_ids(raw.values(), "node")
    blocks: list[set[Term]] = [set() for _ in range(m)]
    for n, block in raw.items():
        blocks[block].add(n)
    return s_decompose(g, blocks)


def import_partition(source, g: DataGraph) -> DataDecomposition:
    """Import either assignment format, sniffing by the first data line.

    Lines whose left column parses as a full triple are an edge assignment;
    single node tokens are a node partition.
    """
    path = Path(source)
    for _idx, left, _block in _assignment_lines(path):
        if _LINE_RE.match(left):
            return import_edge_assignment(path, g)
        return import_node_partition(path, g)
    raise NotAPartition(f"no assignment lines in {path}")
