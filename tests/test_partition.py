"""Graph partitioning: random edge splits, hashed node splits, imports."""

import dataclasses
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import stargraph as sg
from stargraph.errors import (
    MalformedLine,
    MissingTriple,
    NotAPartition,
    TooManySegments,
    UnknownTriple,
)
from stargraph.model import UNBOUND, TermDictionary

from conftest import EDGE_BLOCKS, interior_of, triple_blocks
from test_differential import adversarial_instance, partition_for


class TestEdgeRandom:
    def test_is_deterministic(self, bibliography):
        a = sg.edge_random_partition(bibliography, 3, seed=5)
        b = sg.edge_random_partition(bibliography, 3, seed=5)
        assert a.segments == b.segments

    def test_seed_changes_assignment(self, bibliography):
        a = sg.edge_random_partition(bibliography, 3, seed=1)
        b = sg.edge_random_partition(bibliography, 3, seed=2)
        assert a.segments != b.segments

    def test_segments_partition_the_triples(self, bibliography):
        dec = sg.edge_random_partition(bibliography, 4, seed=9)
        total = sum(len(s) for s in dec.segments)
        assert total == len(bibliography.triples)
        assert all(len(s) >= 1 for s in dec.segments)
        union = set()
        for s in dec.segments:
            assert not (union & s.triples)
            union |= s.triples
        assert union == bibliography.triples

    def test_no_empty_segment_even_when_tight(self, bibliography):
        # as many segments as triples forces one triple per segment
        dec = sg.edge_random_partition(bibliography, 15, seed=0)
        assert [len(s) for s in dec.segments] == [1] * 15

    def test_more_segments_than_triples_rejected(self, bibliography):
        with pytest.raises(TooManySegments):
            sg.edge_random_partition(bibliography, 16, seed=0)

    def test_single_segment_is_the_graph(self, bibliography):
        dec = sg.edge_random_partition(bibliography, 1, seed=0)
        assert dec.segments == (bibliography,)
        assert dec.borders == (frozenset(),)


class TestVertexHash:
    def test_is_deterministic(self, bibliography):
        a = sg.vertex_hash_partition(bibliography, 3, seed=5)
        b = sg.vertex_hash_partition(bibliography, 3, seed=5)
        assert a.segments == b.segments
        assert a.node_blocks == b.node_blocks

    def test_blocks_partition_nonliteral_nodes(self, bibliography):
        dec = sg.vertex_hash_partition(bibliography, 3, seed=2)
        nonliteral = {n for n in bibliography.nodes if not n.is_literal}
        seen = set()
        for block in dec.node_blocks:
            assert block
            assert not (seen & block)
            seen |= block
        assert seen == nonliteral

    def test_each_segment_holds_full_stars_of_its_block(self, bibliography):
        dec = sg.vertex_hash_partition(bibliography, 3, seed=2)
        for seg, block in zip(dec.segments, dec.node_blocks):
            for t in bibliography:
                if t.s in block or t.o in block:
                    assert t in seg.triples

    def test_rebalancing_fills_every_block(self, bibliography):
        # one block per non-literal node: collisions are unavoidable, so the
        # repair loop has to move nodes until every block is populated
        n = len({x for x in bibliography.nodes if not x.is_literal})
        for seed in range(6):
            dec = sg.vertex_hash_partition(bibliography, n, seed=seed)
            assert all(len(b) == 1 for b in dec.node_blocks)

    def test_more_blocks_than_nodes_rejected(self, bibliography):
        with pytest.raises(TooManySegments):
            sg.vertex_hash_partition(bibliography, 100, seed=0)

    def test_blocks_are_checked_once(self, bibliography, tmp_path):
        # every node-partition build hands its blocks to the
        # DataDecomposition constructor, which checks them once and routes
        dec = sg.vertex_hash_partition(bibliography, 3, seed=2)
        sg.write_segments(dec, tmp_path / "segments")
        node_file = _write_nodes(tmp_path / "nodes.tsv", dec.node_blocks)
        builds = {
            "vertex_hash_partition": lambda: sg.vertex_hash_partition(
                bibliography, 3, seed=2
            ),
            "s_decompose": lambda: sg.s_decompose(bibliography, dec.node_blocks),
            "import_partition": lambda: sg.import_partition(node_file, bibliography),
            "read_segments": lambda: sg.read_segments(tmp_path / "segments"),
        }
        # counted by code object, so a call through any module's name counts
        code = sg.model.block_index.__code__
        calls = {}

        def count(frame, event, arg):
            if event == "call" and frame.f_code is code:
                calls[name] = calls.get(name, 0) + 1

        previous = sys.getprofile()
        for name, build in builds.items():
            sys.setprofile(count)
            try:
                segments = build().segments
            finally:
                sys.setprofile(previous)
            assert segments == dec.segments
        assert calls == dict.fromkeys(builds, 1)


class TestSDecompose:
    def test_replicates_cross_block_triples(self, node_split, bibliography):
        total = sum(len(s) for s in node_split.segments)
        assert total > len(bibliography.triples)

    def test_rejects_literals_in_blocks(self, bibliography):
        # of the three literals the set holds, the message names the first
        # in term order, whatever order the set iterates in
        blocks = [
            {n for n in bibliography.nodes if not n.is_literal},
            {n for n in bibliography.nodes if n.is_literal},
        ]
        with pytest.raises(NotAPartition, match='^literal "2008" cannot be in a node block$'):
            sg.s_decompose(bibliography, blocks)

    def test_rejects_overlapping_blocks(self, bibliography):
        nonlit = sorted(n for n in bibliography.nodes if not n.is_literal)
        blocks = [set(nonlit), {nonlit[0]}]
        with pytest.raises(NotAPartition):
            sg.s_decompose(bibliography, blocks)

    def test_rejects_uncovered_nodes(self, bibliography):
        nonlit = sorted(n for n in bibliography.nodes if not n.is_literal)
        with pytest.raises(NotAPartition):
            sg.s_decompose(bibliography, [set(nonlit[:3])])

    def test_rejects_foreign_nodes(self, bibliography):
        nonlit = {n for n in bibliography.nodes if not n.is_literal}
        with pytest.raises(NotAPartition):
            sg.s_decompose(bibliography, [nonlit, {sg.iri("Nowhere")}])


def _write_edges(path, assignment):
    path.write_text(
        "".join(f"{tok}\t{blk}\n" for tok, blk in assignment.items()),
        encoding="utf-8",
    )
    return path


def _write_nodes(path, blocks):
    path.write_text(
        "".join(f"{n.token()}\t{i}\n" for i, b in enumerate(blocks) for n in sorted(b)),
        encoding="utf-8",
    )
    return path


class TestImports:
    def test_edge_assignment_mapping(self, bibliography, edge_split):
        assert edge_split.method == "edge-import"
        assert edge_split.seed is None
        assert [len(s) for s in edge_split.segments] == [5, 6, 4]

    def test_edge_assignment_rejects_unknown_triple(self, bibliography):
        assignment = triple_blocks(
            dict(EDGE_BLOCKS, **{"<Nowhere> <hasAuthor> <Person1> .": 0})
        )
        with pytest.raises(UnknownTriple, match="<Nowhere> <hasAuthor> <Person1> ."):
            sg.from_edge_assignment(bibliography, assignment)

    def test_edge_assignment_rejects_missing_triple(self, bibliography):
        assignment = dict(EDGE_BLOCKS)
        assignment.pop("<Article1> <hasAuthor> <Person4> .")
        with pytest.raises(MissingTriple, match="<Article1> <hasAuthor> <Person4> ."):
            sg.from_edge_assignment(bibliography, triple_blocks(assignment))

    def test_edge_assignment_rejects_id_gap(self, bibliography):
        assignment = {tok: (5 if blk == 2 else blk) for tok, blk in EDGE_BLOCKS.items()}
        with pytest.raises(NotAPartition):
            sg.from_edge_assignment(bibliography, triple_blocks(assignment))

    def test_edge_assignment_file(self, bibliography, edge_split, tmp_path):
        path = _write_edges(tmp_path / "edges.tsv", EDGE_BLOCKS)
        dec = sg.import_partition(path, bibliography)
        assert dec.segments == edge_split.segments
        assert (dec.method, dec.seed) == ("edge-import", None)

    def test_node_assignment_file(self, bibliography, node_split, tmp_path):
        path = _write_nodes(tmp_path / "nodes.tsv", node_split.node_blocks)
        dec = sg.import_partition(path, bibliography)
        assert dec.segments == node_split.segments
        assert dec.node_blocks == node_split.node_blocks
        assert (dec.method, dec.seed) == ("node-import", None)

    def test_node_assignment_rejects_unknown_node(self, bibliography, tmp_path):
        nonlit = {n for n in bibliography.nodes if not n.is_literal}
        path = _write_nodes(tmp_path / "nodes.tsv", [nonlit | {sg.iri("Nowhere")}])
        with pytest.raises(NotAPartition, match="^block node <Nowhere> is not in the graph$"):
            sg.import_partition(path, bibliography)

    def test_node_assignment_rejects_literal(self, bibliography, tmp_path):
        nonlit = {n for n in bibliography.nodes if not n.is_literal}
        path = _write_nodes(tmp_path / "nodes.tsv", [nonlit | {sg.literal("2008")}])
        with pytest.raises(NotAPartition, match='^literal "2008" cannot be in a node block$'):
            sg.import_partition(path, bibliography)

    def test_node_assignment_rejects_missing_node(self, bibliography, tmp_path):
        nonlit = sorted(n for n in bibliography.nodes if not n.is_literal)
        path = _write_nodes(tmp_path / "nodes.tsv", [nonlit[:-1]])
        with pytest.raises(
            NotAPartition, match=f"^node {nonlit[-1].token()} is not covered by any block$"
        ):
            sg.import_partition(path, bibliography)

    def test_sniffer_picks_the_right_format(self, bibliography, tmp_path, monkeypatch):
        edge_file = _write_edges(tmp_path / "edges.tsv", EDGE_BLOCKS)
        nonlit = sorted(n for n in bibliography.nodes if not n.is_literal)
        node_file = _write_nodes(tmp_path / "nodes.tsv", [nonlit[::2], nonlit[1::2]])
        # each file is read once
        reads = []
        read_text = sg.partition._read_text
        monkeypatch.setattr(
            sg.partition, "_read_text", lambda path: reads.append(path) or read_text(path)
        )
        assert not sg.import_partition(edge_file, bibliography).is_s_decomposition
        assert sg.import_partition(node_file, bibliography).is_s_decomposition
        assert reads == [edge_file, node_file]

    def test_bad_block_id_is_malformed(self, bibliography, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("<Article1> <hasAuthor> <Person1> .\tmany\n")
        with pytest.raises(MalformedLine):
            sg.import_partition(path, bibliography)

    def test_missing_tab_is_malformed(self, bibliography, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("<Article1> 0\n")
        with pytest.raises(MalformedLine):
            sg.import_partition(path, bibliography)


# ------------------------------------------------- segment order and indexes

_PREDICATES = [sg.iri(f"p{i}") for i in range(3)]
_HUB = sg.iri("hub")
_IRIS = [_HUB] + [sg.iri(f"n{i}") for i in range(6)]
# "n0" is also an IRI's lexical form, so term order has to break the tie on kind
_LITERALS = [sg.literal("n0"), sg.literal("l1"), sg.literal("l2")]
_ABSENT = sg.iri("absent")


@st.composite
def _graphs(draw):
    """A hub with three to nine out-edges on one predicate, self-loops, and
    random triples whose objects are often literals."""
    hub_p = draw(st.sampled_from(_PREDICATES))
    fan = draw(st.lists(st.sampled_from(_IRIS[1:] + _LITERALS), min_size=3, unique=True))
    loops = draw(
        st.lists(st.tuples(st.sampled_from(_IRIS), st.sampled_from(_PREDICATES)), max_size=4)
    )
    rest = draw(
        st.lists(
            st.tuples(
                st.sampled_from(_IRIS),
                st.sampled_from(_PREDICATES),
                st.sampled_from(_IRIS + _LITERALS),
            ),
            max_size=20,
        )
    )
    triples = [sg.DataTriple(_HUB, hub_p, o) for o in fan]
    triples += [sg.DataTriple(n, p, n) for n, p in loops]
    triples += [sg.DataTriple(s, p, o) for s, p, o in rest]
    return sg.DataGraph(triples)


def _assert_ordered_and_indexed(g):
    """g keeps canonical order, and each lookup is the matching filter of
    it, in order, for present and absent keys alike."""
    canonical = g.canonical
    assert canonical == tuple(sorted(g.triples, key=lambda t: t.key))
    for p in _PREDICATES + [_ABSENT]:
        assert list(g.by_predicate(p)) == [t for t in canonical if t.p is p]
        _, by_subject, by_object = g.predicate_entry(p)
        for n in _IRIS + _LITERALS + [_ABSENT]:
            assert list(by_subject.get(n, ())) == [
                t for t in canonical if t.s is n and t.p is p
            ]
            assert list(by_object.get(n, ())) == [
                t for t in canonical if t.o is n and t.p is p
            ]


def _assert_s_segments(g, dec):
    """Each segment is the scan definition of its block, in g's order."""
    for seg, block in zip(dec.segments, dec.node_blocks):
        assert seg.canonical == tuple(
            t
            for t in g.canonical
            if t.s in block or (not t.o.is_literal and t.o in block)
        )
        _assert_ordered_and_indexed(seg)


def _non_literal(g):
    return sorted(n for n in g.nodes if not n.is_literal)


class TestSegmentOrderAndIndex:
    @settings(max_examples=40, deadline=None)
    @given(g=_graphs(), data=st.data())
    def test_edge_random_near_one_triple_per_segment(self, g, data):
        # this close to one triple per segment the redraws rarely fill every
        # segment, so the repair step runs
        m = data.draw(st.integers(max(1, len(g) - 2), len(g)))
        dec = sg.edge_random_partition(g, m, seed=data.draw(st.integers(0, 99)))
        _assert_ordered_and_indexed(g)
        for seg in dec.segments:
            _assert_ordered_and_indexed(seg)
        assert sum(len(seg) for seg in dec.segments) == len(g)

    @settings(max_examples=40, deadline=None)
    @given(g=_graphs(), data=st.data())
    def test_vertex_hash(self, g, data):
        m = data.draw(st.integers(1, min(4, len(_non_literal(g)))))
        dec = sg.vertex_hash_partition(g, m, seed=data.draw(st.integers(0, 99)))
        _assert_ordered_and_indexed(g)
        _assert_s_segments(g, dec)

    @settings(max_examples=40, deadline=None)
    @given(g=_graphs(), data=st.data())
    def test_shuffled_edge_assignment(self, g, data):
        shuffled = data.draw(st.permutations(g.canonical))
        m = data.draw(st.integers(1, min(4, len(g))))
        assignment = {t: i % m for i, t in enumerate(shuffled)}
        dec = sg.from_edge_assignment(g, assignment)
        for i, seg in enumerate(dec.segments):
            assert seg.canonical == tuple(t for t in g.canonical if assignment[t] == i)
            _assert_ordered_and_indexed(seg)

    @settings(max_examples=40, deadline=None)
    @given(g=_graphs(), data=st.data())
    def test_node_import(self, g, data):
        shuffled = data.draw(st.permutations(_non_literal(g)))
        m = data.draw(st.integers(1, min(4, len(shuffled))))
        dec = sg.s_decompose(g, [shuffled[i::m] for i in range(m)])
        _assert_s_segments(g, dec)


class TestSharedDictionary:
    def test_partitions_of_one_graph_share_the_graph_dictionary(self, bibliography):
        edge = sg.edge_random_partition(bibliography, 3, seed=1)
        node = sg.vertex_hash_partition(bibliography, 3, seed=1)
        assert edge.dictionary is node.dictionary is bibliography.dictionary
        # every ID is still the node's rank in term order
        ranked = sorted(bibliography.nodes, key=lambda n: n.key)
        assert edge.dictionary.ids == {
            **{n: i for i, n in enumerate(ranked)},
            None: UNBOUND,
        }
        assert edge.dictionary.ids == TermDictionary(bibliography.nodes).ids


def _assert_interiors(data):
    """Segment j's interior is the IDs of its non-literal nodes outside its
    border, and every graph triple at an interior node lies in segment j."""
    ids = data.dictionary.ids
    assert len(data.interiors) == len(data.segments)
    for seg, border, interior in zip(data.segments, data.borders, data.interiors):
        assert interior == interior_of(seg, border, data.dictionary)
        assert interior == {ids[n] for n in seg.nodes - border if not n.is_literal}
        inside = {data.dictionary.terms[i] for i in interior}
        for t in data.graph:
            if t.s in inside or t.o in inside:
                assert t in seg


class TestInteriors:
    @pytest.mark.parametrize("kind", ["edge-random", "vertex-hash", "node-import"])
    def test_interiors_hold_whole_stars(self, kind, bibliography):
        nonempty = 0
        for k in range(8):
            g, _q, m, _dec = adversarial_instance(k)
            for data in (partition_for(kind, g, m, k), partition_for(kind, bibliography, 3, k)):
                _assert_interiors(data)
                nonempty += any(data.interiors)
        assert nonempty

    def test_round_trip_gives_the_same_interiors(self, edge_split, node_split, tmp_path):
        for name, data in (("edge", edge_split), ("node", node_split)):
            sg.write_segments(data, tmp_path / name)
            back = sg.read_segments(tmp_path / name)
            _assert_interiors(back)
            assert back.interiors == data.interiors

    def test_built_on_first_read_and_kept(self, bibliography):
        data = sg.edge_random_partition(bibliography, 3, seed=4)
        assert "interiors" not in vars(data)  # the constructor builds none
        first = data.interiors
        assert data.interiors is first

    def test_literals_and_border_nodes_are_not_interior(self, bibliography, edge_split):
        ids = edge_split.dictionary.ids
        literals = {ids[n] for n in bibliography.nodes if n.is_literal}
        assert literals
        for border, interior in zip(edge_split.borders, edge_split.interiors):
            assert interior.isdisjoint(literals)
            assert interior.isdisjoint(ids[n] for n in border)
        # one segment holds the whole graph, so every IRI is interior
        whole = sg.edge_random_partition(bibliography, 1, seed=1)
        assert whole.interiors == (
            frozenset(ids[n] for n in bibliography.nodes if not n.is_literal),
        )


class TestColdSetup:
    def test_benchmark_setup_leaves_no_index_work_to_the_ops(self, monkeypatch):
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        import bench

        workload = dataclasses.replace(bench.WORKLOADS["hub-star"], triples=400, queries=1)
        state = bench.setup(bench.make_inputs(workload, 1))
        graphs = (state.graph, *state.edge.segments, *state.node.segments)
        assert len(graphs) == 1 + 2 * bench.SEGMENTS
        built = [g._index is not None and g._canonical is not None for g in graphs]
        assert built == [True] * len(graphs)
