"""Splitting a data graph into segments.

Two families:

- Edge partitions: each triple is assigned to exactly one segment. Segments
  are disjoint as triple sets; border nodes are whatever ends up shared.
- S-decompositions: the non-literal nodes are partitioned into blocks and
  each segment holds every triple incident to a node of its block. Triples
  whose endpoints live in different blocks are replicated into both segments,
  so each segment contains the full star around each of its own nodes.

Both produce a DataDecomposition. ``import_partition`` reads either family
from an assignment file, so partitions computed elsewhere can be reused.
The edge families fill their segments here; an s-decomposition hands only
its blocks to the ``DataDecomposition`` constructor, which checks them and
routes the triples. Either way the segments are filled in one pass over the
graph's ``canonical``, so each segment lists its triples in the graph's
canonical order and keeps that order as its own without sorting again.
"""

from __future__ import annotations

from functools import partial
from pathlib import Path

from .errors import (
    MalformedLine,
    MissingTriple,
    NotAPartition,
    TooManySegments,
    UnknownTriple,
)
from .model import DataGraph, DataDecomposition, DataTriple, Term
from .ntio import _LINE_RE, _content_lines, _parse_line, _read_text, term_from_token
from .rng import MASK64, XorShift64Star, _splitmix64, fnv1a64

__all__ = [
    "edge_random_partition",
    "vertex_hash_partition",
    "s_decompose",
    "from_edge_assignment",
    "import_partition",
]


def _edge_decomposition(g: DataGraph, segments: list[list[DataTriple]], **fields):
    segs = tuple(map(DataGraph._from_canonical, segments))
    return DataDecomposition(g, segs, **fields)


def edge_random_partition(g: DataGraph, m: int, seed: int = 0) -> DataDecomposition:
    """Assign each triple to one of m segments uniformly at random.

    The whole assignment is redrawn until no segment is empty, which keeps
    the per-triple distribution uniform conditioned on all segments being
    used. When m is close to the triple count that event is rare, so after a
    bounded number of redraws the last assignment is repaired instead by
    moving the first triple of the largest segment into an empty one.
    Deterministic in (graph, m, seed).
    """
    triples = g.canonical
    if m < 1:
        raise TooManySegments("need at least one segment")
    if m > len(triples):
        raise TooManySegments(
            f"cannot spread {len(triples)} triples over {m} non-empty segments"
        )
    rng = XorShift64Star(seed)
    blocks: list[list[DataTriple]] = []
    for _attempt in range(1000):
        blocks = [[] for _ in range(m)]
        for t in triples:
            blocks[rng.below(m)].append(t)
        if all(blocks):
            break
    while not all(blocks):
        donor = max(range(m), key=lambda i: (len(blocks[i]), -i))
        target = next(i for i in range(m) if not blocks[i])
        blocks[target].append(blocks[donor].pop(0))
    return _edge_decomposition(g, blocks, method="edge-random", seed=seed)


def _node_hash(node: Term, seed: int) -> int:
    return _splitmix64((seed & MASK64) ^ fnv1a64(node.lexical.encode("utf-8")))


def vertex_hash_partition(g: DataGraph, m: int, seed: int = 0) -> DataDecomposition:
    """Partition the non-literal nodes by a seeded hash, then s-decompose.

    Empty blocks are repaired deterministically: while one exists, the
    largest block (ties to the lowest index) donates its highest-hash node.
    """
    nodes = [n for n in g.nodes if not n.is_literal]
    if m < 1:
        raise TooManySegments("need at least one segment")
    if m > len(nodes):
        raise TooManySegments(
            f"cannot spread {len(nodes)} non-literal nodes over {m} blocks"
        )
    hashes = {n: _node_hash(n, seed) for n in nodes}
    blocks: list[set[Term]] = [set() for _ in range(m)]
    for n, h in hashes.items():
        blocks[h % m].add(n)
    while not all(blocks):
        donor = max(range(m), key=lambda i: (len(blocks[i]), -i))
        target = next(i for i in range(m) if not blocks[i])
        moved = max(blocks[donor], key=lambda n: (hashes[n], n.key))
        blocks[donor].remove(moved)
        blocks[target].add(moved)
    return DataDecomposition(g, method="vertex-hash", seed=seed, node_blocks=blocks)


def s_decompose(g: DataGraph, node_blocks) -> DataDecomposition:
    """Build the s-decomposition induced by a partition of the node set.

    ``node_blocks`` must partition exactly the non-literal nodes of the
    graph, as ``model.block_index`` checks. Segment i gets every triple with
    an endpoint in block i, so cross-block triples are replicated; the
    ``DataDecomposition`` constructor checks the blocks and routes the triples.
    """
    return DataDecomposition(g, method="node-import", node_blocks=node_blocks)


def _check_block_ids(block_of: dict, kind: str, where) -> int:
    """The number of blocks, once the ids ``block_of`` gives its entries are
    exactly 0..m-1; ``where(entry)`` says where a negative id was read."""
    used = set(block_of.values())
    low, m = min(used), max(used) + 1
    if low < 0:
        entry = next(e for e, block in block_of.items() if block == low)
        raise NotAPartition(f"{kind} block id {low} {where(entry)} is negative")
    if len(used) < m:
        skipped = min(set(range(m)).difference(used))
        raise NotAPartition(
            f"{kind} block ids must be exactly 0..{m - 1}, but {skipped} is skipped"
        )
    return m


def from_edge_assignment(
    g: DataGraph, assignment: dict[DataTriple, int]
) -> DataDecomposition:
    """Edge partition from an explicit {triple: block} mapping that covers
    exactly the graph's triples."""
    for t in assignment:
        if t not in g.triples:
            raise UnknownTriple(f"assigned triple {t.token()} is not in the graph")
    for t in g.canonical:
        if t not in assignment:
            raise MissingTriple(f"triple {t.token()} has no block assignment")
    m = _check_block_ids(assignment, "edge", lambda t: f"of triple {t.token()}")
    segments: list[list[DataTriple]] = [[] for _ in range(m)]
    for t in g.canonical:
        segments[assignment[t]].append(t)
    return _edge_decomposition(g, segments, method="edge-import")


def _assignment_lines(path: Path):
    for idx, raw in _content_lines(_read_text(path)):
        if "\t" not in raw:
            raise MalformedLine("expected <entry><TAB><block id>", idx)
        left, _, right = raw.rpartition("\t")
        try:
            block = int(right.strip())
        except ValueError:
            raise MalformedLine(f"block id is not an integer: {right.strip()!r}", idx)
        yield idx, left.strip(), block


def _assigned(lines, parse, kind: str) -> dict:
    """Each entry of the (line number, entry, block id) ``lines``, parsed
    by ``parse(entry, line number)``, mapped to its block id. An entry
    listed twice raises NotAPartition naming it and both its lines."""
    line_of: dict = {}
    assignment: dict = {}
    for idx, left, block in lines:
        entry = parse(left, idx)
        if entry in line_of:
            raise NotAPartition(
                f"{kind} {entry.token()} is assigned on lines {line_of[entry]} and {idx}"
            )
        line_of[entry] = idx
        assignment[entry] = block
    return assignment


def import_partition(path, g: DataGraph) -> DataDecomposition:
    """Import an assignment file of ``<entry><TAB><block id>`` lines, read
    once and sniffed by its first line.

    Entries that parse as a whole triple (``<s> <p> <o> .``) make an edge
    assignment, handed to ``from_edge_assignment``; single node tokens make
    a node partition, whose blocks ``s_decompose`` hands to the
    ``DataDecomposition`` constructor. Either kind of file lists each entry
    once.
    """
    lines = list(_assignment_lines(Path(path)))
    if not lines:
        raise NotAPartition(f"no assignment lines in {path}")
    if _LINE_RE.match(lines[0][1]):
        return from_edge_assignment(g, _assigned(
            lines, partial(_parse_line, as_query=False), "triple"
        ))
    nodes = _assigned(lines, term_from_token, "node")
    m = _check_block_ids(
        {idx: block for idx, _, block in lines}, "node", "on line {}".format
    )
    blocks: list[set[Term]] = [set() for _ in range(m)]
    for n, block in nodes.items():
        blocks[block].add(n)
    return s_decompose(g, blocks)
