"""Brute-force reconstruction checks behind the evaluation strategy.

Every test here re-derives, on at least a hundred small random instances,
one of the structural facts the engines rely on:

- fragment reconstruction: total embeddings of a query are exactly the joins
  of mutually compatible useful partial embeddings drawn from the segments
  of an edge partition, covering every triple;
- subquery reconstruction: total embeddings of a query are exactly the
  compatible joins of total embeddings of its decomposition's subqueries;
- the two combined (per-subquery totals built from fragments, then joined);
- locality: with an all-so decomposition over a node-partition with
  replicated border triples, each subquery total lives whole inside at least
  one segment, and the global answers are the joins of those local totals;
- border agreement: two subquery totals are compatible exactly when they
  agree on the shared non-literal nodes of their subqueries;
- the structural properties of node partitions with replication (coverage,
  replicated nodes and triples always owned elsewhere, and so on).

An embedding here is the tuple of the images of one fixed node order, the
query's nodes sorted, None for an unbound node; fragments are encoded to the
data decomposition's IDs for ``totals_from_fragments`` and its totals decoded
back. The joins are checked against a reference join of such tuples
(``is_compatible``, ``join``, ``restrict``, position by position) that the
engines do not use; ``TestCompatibilityAlgebra`` pins its own laws.
"""

import itertools
from typing import Iterable

import pytest
from hypothesis import given
from hypothesis import strategies as st

import stargraph as sg
from stargraph.embedding import (
    enumerate_useful_partial,
    star_of,
    totals_from_fragments,
)

DECOMPOSERS = sorted(sg.DECOMPOSERS)

STATE_GUARD = 100_000


Images = tuple  # one image per node of a fixed node order, None if unbound


def domain(e: Images) -> frozenset[int]:
    """The positions e binds."""
    return frozenset(p for p, v in enumerate(e) if v is not None)


def is_compatible(e1: Images, e2: Images) -> bool:
    """True when the embeddings agree at every position both bind."""
    return all(a is None or b is None or a == b for a, b in zip(e1, e2))


def join(e1: Images, e2: Images) -> Images:
    if not is_compatible(e1, e2):
        raise ValueError("cannot join incompatible embeddings")
    return tuple(b if a is None else a for a, b in zip(e1, e2))


def restrict(e: Images, keep: Iterable[int]) -> Images:
    keep = set(keep)
    return tuple(v if p in keep else None for p, v in enumerate(e))


class TestCompatibilityAlgebra:
    width = 6
    positions = st.integers(0, width - 1)
    images = st.none() | st.sampled_from([sg.iri(f"n{i}") for i in range(4)])
    embeddings = st.lists(images, min_size=width, max_size=width).map(tuple)

    @given(embeddings, embeddings)
    def test_compatibility_is_symmetric(self, e1, e2):
        assert is_compatible(e1, e2) == is_compatible(e2, e1)

    @given(embeddings, embeddings)
    def test_join_merges_or_raises(self, e1, e2):
        if is_compatible(e1, e2):
            j = join(e1, e2)
            assert domain(j) == domain(e1) | domain(e2)
            for p in domain(e1):
                assert j[p] == e1[p]
            for p in domain(e2):
                assert j[p] == e2[p]
            assert j == join(e2, e1)
        else:
            with pytest.raises(ValueError):
                join(e1, e2)

    @given(embeddings)
    def test_self_compatibility(self, e):
        assert is_compatible(e, e)
        assert join(e, e) == e

    @given(embeddings, st.sets(positions))
    def test_restrict_is_a_subset(self, e, keep):
        r = restrict(e, keep)
        assert domain(r) == domain(e) & frozenset(keep)
        for p in domain(r):
            assert r[p] == e[p]


def instance(uid, *, max_graph=50, max_query=6):
    g = sg.generate_graph(5 + uid % (max_graph - 4), seed=uid * 31 + 7)
    q = sg.generate_query(g, 1 + uid % max_query, seed=uid * 53 + 11)
    return g, q


def decomposer_for(uid):
    return sg.DECOMPOSERS[DECOMPOSERS[uid % len(DECOMPOSERS)]]


def edge_partition(g, uid):
    m = min(1 + uid % 4, len(g))
    return sg.edge_random_partition(g, m, seed=uid)


def node_partition(g, uid):
    non_literal = sum(1 for n in g.nodes if not n.is_literal)
    m = min(1 + uid % 4, non_literal)
    return sg.vertex_hash_partition(g, m, seed=uid)


def nodes_of(q):
    return tuple(sorted(q.nodes))


def totals_of(sub, data, nodes):
    """sub's totals joined from its useful partials in every segment, as
    term tuples over nodes."""
    code = data.dictionary.ids.__getitem__
    frags = [
        (tuple(map(code, images)), matched)
        for seg, border in zip(data.segments, data.borders)
        for images, matched in enumerate_useful_partial(sub, seg, border, nodes)
    ]
    return {
        data.dictionary.decode(ids)
        for ids in totals_from_fragments(sub, frags, nodes, star_of(sub, nodes))
    }


def incremental_join(total_sets, width):
    """All compatible joins taking one embedding from each set; None when the
    intermediate state count escapes the guard."""
    states = {(None,) * width}
    for totals in total_sets:
        nxt = set()
        for s in states:
            for e in totals:
                if is_compatible(s, e):
                    nxt.add(join(s, e))
                    if len(nxt) > STATE_GUARD:
                        return None
        states = nxt
        if not states:
            break
    return states


def run_instances(check, count=120, floor=100):
    evaluated = 0
    for uid in range(count):
        if check(uid):
            evaluated += 1
    assert evaluated >= floor


class TestFragmentReconstruction:
    def test_totals_are_joins_of_useful_partials(self):
        def check(uid):
            g, q = instance(uid)
            data = edge_partition(g, uid)
            nodes = nodes_of(q)
            assert totals_of(q, data, nodes) == set(sg.enumerate_total(q, g, nodes))
            return True

        run_instances(check)


class TestSubqueryReconstruction:
    def test_totals_are_joins_of_subquery_totals(self):
        def check(uid):
            g, q = instance(uid)
            dec = decomposer_for(uid)(q)
            nodes = nodes_of(q)
            sets = [set(sg.enumerate_total(sub, g, nodes)) for sub in dec.subqueries]
            joined = incremental_join(sets, len(nodes))
            if joined is None:
                return False
            assert joined == set(sg.enumerate_total(q, g, nodes))
            return True

        run_instances(check)

    def test_pairwise_compatibility_equals_joinability(self):
        # the incremental join above is justified by this: a join of several
        # embeddings is compatible with another one exactly when each of the
        # joined embeddings is
        def check(uid):
            g, q = instance(uid, max_query=5)
            dec = decomposer_for(uid)(q)
            if len(dec) < 3:
                return False
            nodes = nodes_of(q)
            sets = [sg.enumerate_total(sub, g, nodes)[:6] for sub in dec.subqueries]
            seen = False
            for a, b, c in itertools.combinations(range(len(dec)), 3):
                for e1, e2 in itertools.product(sets[a], sets[b]):
                    if not is_compatible(e1, e2):
                        continue
                    j12 = join(e1, e2)
                    for e3 in sets[c]:
                        seen = True
                        assert is_compatible(j12, e3) == (
                            is_compatible(e1, e3) and is_compatible(e2, e3)
                        )
            return seen

        run_instances(check, count=800, floor=100)


class TestTwoLevelReconstruction:
    def test_subquery_totals_from_fragments_then_joined(self):
        def check(uid):
            g, q = instance(uid)
            dec = decomposer_for(uid)(q)
            data = edge_partition(g, uid)
            nodes = nodes_of(q)
            sets = [totals_of(sub, data, nodes) for sub in dec.subqueries]
            joined = incremental_join(sets, len(nodes))
            if joined is None:
                return False
            assert joined == set(sg.enumerate_total(q, g, nodes))
            return True

        run_instances(check)


class TestSingleSegmentLocality:
    def test_so_subquery_totals_live_inside_one_segment(self):
        def check(uid):
            g, q = instance(uid)
            dec = decomposer_for(uid)(q)
            assert sg.validate_decomposition(q, dec).all_so
            data = node_partition(g, uid)
            nodes = nodes_of(q)
            sets = []
            for sub in dec.subqueries:
                local = set()
                for seg in data.segments:
                    local |= set(sg.enumerate_total(sub, seg, nodes))
                assert local == set(sg.enumerate_total(sub, g, nodes))
                sets.append(local)
            joined = incremental_join(sets, len(nodes))
            if joined is None:
                return False
            assert joined == set(sg.enumerate_total(q, g, nodes))
            return True

        run_instances(check)


class TestBorderAgreement:
    def test_compatibility_reduces_to_shared_nodes(self):
        def check(uid):
            g, q = instance(uid, max_query=5)
            dec = decomposer_for(uid)(q)
            if len(dec) < 2:
                return False
            nodes = nodes_of(q)
            totals = [sg.enumerate_total(sub, g, nodes)[:10] for sub in dec.subqueries]
            checked = False
            for i, j in itertools.combinations(range(len(dec)), 2):
                shared = [
                    p
                    for p, n in enumerate(nodes)
                    if n in dec.subqueries[i].nodes & dec.subqueries[j].nodes
                    and not n.is_literal
                ]
                for ei, ej in itertools.product(totals[i], totals[j]):
                    checked = True
                    agree = restrict(ei, shared) == restrict(ej, shared)
                    assert is_compatible(ei, ej) == agree
            return checked

        run_instances(check, count=200, floor=100)


class TestNodePartitionProperties:
    def test_replication_bookkeeping(self):
        def check(uid):
            g, _ = instance(uid)
            data = node_partition(g, uid)
            blocks = data.node_blocks
            literals = {n for n in g.nodes if n.is_literal}

            covered_nodes = set()
            covered_triples = set()
            for i, seg in enumerate(data.segments):
                seg_nodes = seg.nodes
                # owned nodes all appear locally
                assert blocks[i] <= seg_nodes - literals
                covered_nodes |= seg_nodes
                covered_triples |= seg.triples

                replicated = data.replicated[i]
                assert replicated == (seg_nodes - literals) - blocks[i]
                for t in seg.canonical:
                    if t.s in replicated:
                        # a foreign subject is only here because the object
                        # is owned, and the triple also lives where the
                        # subject is owned
                        assert t.o in blocks[i]
                    if t.o in replicated:
                        assert t.s in blocks[i]
                for n in replicated:
                    owners = [j for j, blk in enumerate(blocks) if n in blk]
                    assert owners and owners != [i]
                replicated_triples = {
                    t for t in seg.triples if t.s in replicated or t.o in replicated
                }
                for t in replicated_triples:
                    assert any(
                        t in data.segments[j].triples
                        for j in range(len(data.segments))
                        if j != i
                    )
            # the segments cover every node and every triple
            assert covered_nodes == g.nodes
            assert covered_triples == g.triples
            return True

        run_instances(check)
