"""Random graph and query generation."""

import pytest

import stargraph as sg
from stargraph.errors import ValidationError


class TestGenerateGraph:
    def test_deterministic_per_seed(self):
        a = sg.generate_graph(60, seed=5)
        b = sg.generate_graph(60, seed=5)
        c = sg.generate_graph(60, seed=6)
        assert a == b
        assert a != c

    def test_requested_size(self):
        for n in (1, 7, 150):
            assert len(sg.generate_graph(n, seed=1)) == n

    def test_literal_ratio_extremes(self):
        none = sg.generate_graph(100, literal_ratio=0.0, seed=2)
        assert all(not t.o.is_literal for t in none.canonical)
        heavy = sg.generate_graph(100, literal_ratio=1.0, seed=2)
        assert all(t.o.is_literal for t in heavy.canonical)

    def test_guards(self):
        with pytest.raises(ValidationError):
            sg.generate_graph(0)
        with pytest.raises(ValidationError):
            sg.generate_graph(10, literal_ratio=1.5)
        with pytest.raises(ValidationError):
            sg.generate_graph(10_000, nodes=2, predicates=1)

    def test_structure_is_not_a_loose_pile(self):
        g = sg.generate_graph(200, seed=9)
        out_degrees = {}
        for t in g.canonical:
            out_degrees[t.s] = out_degrees.get(t.s, 0) + 1
        assert max(out_degrees.values()) >= 3


class TestGenerateQuery:
    def test_deterministic_per_seed(self):
        g = sg.generate_graph(80, seed=11)
        q1 = sg.generate_query(g, 6, seed=3)
        q2 = sg.generate_query(g, 6, seed=3)
        assert q1 == q2

    @pytest.mark.parametrize("seed", range(12))
    def test_always_has_an_answer(self, seed):
        g = sg.generate_graph(50, seed=seed)
        q = sg.generate_query(g, 5, seed=seed * 17 + 1)
        assert len(sg.enumerate_total(q, g, tuple(sorted(q.nodes)))) >= 1

    def test_respects_size_budget(self):
        g = sg.generate_graph(100, seed=4)
        for n in (1, 3, 8):
            q = sg.generate_query(g, n, seed=21)
            assert 1 <= len(q) <= n

    def test_all_constants_when_ratio_zero(self):
        g = sg.generate_graph(40, seed=8)
        q = sg.generate_query(g, 4, seed=2, variable_ratio=0.0)
        assert all(n.is_constant for n in q.nodes)
        assert len(sg.enumerate_total(q, g, tuple(sorted(q.nodes)))) >= 1

    def test_guard(self):
        g = sg.generate_graph(10, seed=0)
        with pytest.raises(ValidationError):
            sg.generate_query(g, 0)
