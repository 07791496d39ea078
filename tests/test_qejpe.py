"""Three-phase evaluation built on useful partial fragments."""

import pytest

import stargraph as sg
from stargraph.errors import NotADecomposition
from stargraph.qejpe import qejpe_map1_records, run_qejpe

from conftest import decode, layout_centres, q3


class TestFragmentRecords:
    def test_record_counts_match_fragment_counts(
        self, edge_split, supervisor_decomposition
    ):
        layout = sg.preprocess(supervisor_decomposition)
        counts = {}
        for i in range(3):
            for j in range(3):
                recs = qejpe_map1_records(
                    layout, i, edge_split.segments[j], edge_split.interiors[j],
                    edge_split.dictionary,
                )
                counts[(i, j)] = len(recs)
                for key, frag in recs:
                    assert key == i
                    # one ID per layout node, then the mask
                    assert len(frag) == len(layout.nodes) + 1 and frag[-1] > 0
                    assert all(type(v) is int for v in frag)
        assert counts == {
            (0, 0): 3, (0, 1): 4, (0, 2): 1,
            (1, 0): 1, (1, 1): 4, (1, 2): 2,
            (2, 0): 0, (2, 1): 2, (2, 2): 0,
        }

    def test_mask_bits_refer_to_subquery_canonical_triples(
        self, edge_split, supervisor_decomposition
    ):
        # bit k of a mask is the subquery's k-th canonical triple, and it is
        # set exactly when the segment holds that triple under the record's
        # images
        layout = sg.preprocess(supervisor_decomposition)
        seen = 0
        for i, sub in enumerate(layout.subqueries):
            for j, seg in enumerate(edge_split.segments):
                recs = qejpe_map1_records(
                    layout, i, seg, edge_split.interiors[j], edge_split.dictionary
                )
                for _, frag in recs:
                    ids, mask = frag[:-1], frag[-1]
                    assert 0 < mask < 1 << len(sub.canonical)
                    image = dict(zip(layout.nodes, decode(edge_split.dictionary, ids)))
                    for k, t in enumerate(sub.canonical):
                        s_img, o_img = image[t.s], image[t.o]
                        held = (
                            s_img is not None
                            and o_img is not None
                            and sg.DataTriple(s_img, t.p, o_img) in seg
                        )
                        assert bool(mask >> k & 1) == held
                        seen += held
        assert seen


class TestRunQejpe:
    def test_fixture_answers(
        self, bibliography, edge_split, supervisor_query, supervisor_decomposition
    ):
        res = run_qejpe(edge_split, supervisor_query, supervisor_decomposition)
        assert res.algorithm == "qejpe"
        assert res.answers == sg.oracle_answers(supervisor_query, bibliography)
        assert res.subquery_embeddings == {0: 5, 1: 5, 2: 2}
        assert [s["stage"] for s in res.stats] == ["useful-partials", "join-answers"]
        assert all(s["recordsIn"] > 0 for s in res.stats)

    def test_answer_rows(self, edge_split, supervisor_query, supervisor_decomposition):
        res = run_qejpe(edge_split, supervisor_query, supervisor_decomposition)
        rows = set(res.answers.rows)
        assert rows == {
            tuple(sg.term_from_token(t) for t in row)
            for row in (
                ("<Article1>", "<Person4>", "<Person1>", '"Title1"'),
                ("<Article2>", "<Person2>", "<Person3>", '"Title2"'),
            )
        }

    def test_single_subquery_empty_border(
        self, bibliography, edge_split, journal_article_query
    ):
        dec = sg.naive_decomposition(journal_article_query)
        assert len(dec) == 1
        res = run_qejpe(edge_split, journal_article_query, dec)
        assert res.answers == sg.oracle_answers(journal_article_query, bibliography)
        assert len(res.answers.rows) == 2

    def test_every_decomposer_agrees_with_the_oracle(
        self, bibliography, edge_split, coauthor_query
    ):
        want = sg.oracle_answers(coauthor_query, bibliography)
        for name, make in sg.DECOMPOSERS.items():
            res = run_qejpe(edge_split, coauthor_query, make(coauthor_query))
            assert res.answers == want, name

    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_worker_count_is_invisible(
        self, edge_split, supervisor_query, supervisor_decomposition, workers
    ):
        base = run_qejpe(edge_split, supervisor_query, supervisor_decomposition)
        res = run_qejpe(
            edge_split, supervisor_query, supervisor_decomposition, workers=workers
        )
        assert res.answers.to_tsv() == base.answers.to_tsv()
        for a, b in zip(res.stats, base.stats):
            assert {k: v for k, v in a.items() if k != "wallMillis"} == {
                k: v for k, v in b.items() if k != "wallMillis"
            }

    def test_foreign_decomposition_rejected(
        self, edge_split, journal_article_query, supervisor_decomposition
    ):
        with pytest.raises(NotADecomposition):
            run_qejpe(edge_split, journal_article_query, supervisor_decomposition)

    def test_cartesian_cap_trips(
        self, edge_split, supervisor_query, supervisor_decomposition
    ):
        with pytest.raises(sg.CartesianCapExceeded):
            run_qejpe(
                edge_split,
                supervisor_query,
                supervisor_decomposition,
                cartesian_cap=1,
            )
        # <a> and <c> share ?x, overlapping in 10 of their 20 objects each,
        # beside 5 <b> objects: the one centre image has 50 totals, so cap 50
        # answers and cap 49 trips
        lines = [f"<c0> <a> <x{i}> ." for i in range(20)]
        lines += [f"<c0> <c> <x{i}> ." for i in range(10, 30)]
        lines += [f"<c0> <b> <y{i}> ." for i in range(5)]
        graph = sg.parse_data("\n".join(lines) + "\n")
        data = sg.edge_random_partition(graph, 8, seed=1)
        q = sg.parse_query("?c <a> ?x .\n?c <b> ?y .\n?c <c> ?x .")
        dec = sg.naive_decomposition(q)
        want = sg.oracle_answers(q, graph)
        assert len(want.rows) == 50
        assert run_qejpe(data, q, dec, cartesian_cap=50).answers == want
        with pytest.raises(sg.CartesianCapExceeded):
            run_qejpe(data, q, dec, cartesian_cap=49)

    def test_boolean_query(self, bibliography, edge_split):
        q = sg.Query([q3("<Article1>", "<publishedIn>", "<Journal1>")])
        res = run_qejpe(edge_split, q, sg.naive_decomposition(q))
        assert res.answers.variables == ()
        assert res.answers == sg.oracle_answers(q, bibliography)
        assert res.answers.to_tsv() == "\n\n"


class TestHandBuiltPathPlans:
    """qejpe on plans whose subqueries no decomposer builds: a 3-edge path
    split into its first two edges plus the last one (the two-edge part is a
    star at its middle node), and the whole path as one subquery, which has
    no star centre."""

    @staticmethod
    def bibliography_path(bibliography):
        path = [
            q3("?A", "<publishedIn>", "?J"),
            q3("?A", "<hasAuthor>", "?P"),
            q3("?P", "<hasSupervisor>", "?S"),
        ]
        return bibliography, path, sg.edge_random_partition(bibliography, 3, seed=7)

    @staticmethod
    def generated_path():
        g = sg.generate_graph(300)
        out_edges = {}
        for t in g.canonical:
            out_edges.setdefault(t.s, []).append(t)
        # the first walk of three edges over four distinct nodes
        t1, t2, t3 = next(
            (t1, t2, t3)
            for t1 in g.canonical
            for t2 in out_edges.get(t1.o, ())
            for t3 in out_edges.get(t2.o, ())
            if len({t1.s, t1.o, t2.o, t3.o}) == 4
        )
        a, b, c, d = (sg.variable(v) for v in "abcd")
        path = [
            sg.TriplePattern(a, t1.p, b),
            sg.TriplePattern(b, t2.p, c),
            sg.TriplePattern(c, t3.p, d),
        ]
        return g, path, sg.edge_random_partition(g, 4, seed=7)

    @pytest.mark.parametrize("workers", [1, 3])
    @pytest.mark.parametrize("graph_name", ["bibliography", "generated"])
    @pytest.mark.parametrize("split", ["two-plus-one", "whole"])
    def test_answers_equal_the_oracle(self, bibliography, graph_name, split, workers):
        if graph_name == "bibliography":
            g, path, data = self.bibliography_path(bibliography)
        else:
            g, path, data = self.generated_path()
        q = sg.Query(path)
        if split == "whole":
            subs = (q,)
            assert sg.star_centers(q) == ()
        else:
            subs = (sg.Query(path[:2]), sg.Query(path[2:]))
        dec = sg.QueryDecomposition(q, subs, method="hand-built")
        want = sg.oracle_answers(q, g)
        assert want.rows
        res = run_qejpe(data, q, dec, workers=workers)
        assert res.answers.to_tsv() == want.to_tsv()


class TestConstantCentre:
    """qejpe and stars cap the totals of one image of the same centre, the
    one the layout star holds. min-res makes ``<a> <p> ?x`` a singleton
    centred on ``<a>``, so its N totals share one centre image, while the
    final join, grouped by ``?x``, holds one row per group."""

    N = 6

    def instance(self):
        g = sg.parse_data(
            "".join(f"<a> <p> <b{i}> .\n<c> <q> <b{i}> .\n" for i in range(self.N))
        )
        q = sg.parse_query("<a> <p> ?x .\n<c> <q> ?x .\n")
        dec = sg.min_res_decomposition(q)
        assert layout_centres(dec) == (sg.iri("a"), sg.iri("c"))
        return g, q, dec, sg.edge_random_partition(g, 3, seed=1)

    @pytest.mark.parametrize("engine", [sg.run_qejpe, sg.run_stars])
    def test_cap_counts_the_totals_of_the_constant_centre(self, engine):
        g, q, dec, data = self.instance()
        cap = self.N - 1
        with pytest.raises(
            sg.CartesianCapExceeded,
            match=f"star join exceeded {cap} embeddings for one centre image",
        ):
            engine(data, q, dec, cartesian_cap=cap)
        res = engine(data, q, dec, cartesian_cap=self.N)
        assert res.answers.to_tsv() == sg.oracle_answers(q, g).to_tsv()
        assert len(res.answers.rows) == self.N
