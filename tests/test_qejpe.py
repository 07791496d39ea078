"""Three-phase evaluation built on useful partial fragments."""

import pytest

import stargraph as sg
from stargraph.errors import NotADecomposition
from stargraph.qejpe import qejpe_map1_records, run_qejpe


class TestFragmentRecords:
    def test_record_counts_match_fragment_counts(
        self, edge_split, supervisor_decomposition
    ):
        layout = sg.preprocess(supervisor_decomposition)
        counts = {}
        for i in range(3):
            for j in range(3):
                recs = qejpe_map1_records(
                    layout, i, edge_split.segments[j], j, edge_split.borders[j]
                )
                counts[(i, j)] = len(recs)
                for key, val in recs:
                    assert key == i
                    assert val[0] == "f" and val[1] == j
        assert counts == {
            (0, 0): 3, (0, 1): 4, (0, 2): 1,
            (1, 0): 1, (1, 1): 4, (1, 2): 2,
            (2, 0): 0, (2, 1): 2, (2, 2): 0,
        }

    def test_match_flags_use_query_indexes(self, edge_split, supervisor_decomposition):
        layout = sg.preprocess(supervisor_decomposition)
        sub2_mask_positions = {
            i for i, t in enumerate(layout.triples)
            if t in supervisor_decomposition.subqueries[2].triples
        }
        recs = qejpe_map1_records(
            layout, 2, edge_split.segments[1], 1, edge_split.borders[1]
        )
        for _, (_, _, _, _, tm) in recs:
            assert {i for i, f in enumerate(tm) if f} <= sub2_mask_positions


class TestRunQejpe:
    def test_fixture_answers(
        self, bibliography, edge_split, supervisor_query, supervisor_decomposition
    ):
        res = run_qejpe(edge_split, supervisor_query, supervisor_decomposition)
        assert res.algorithm == "qejpe"
        assert res.answers == sg.oracle_answers(supervisor_query, bibliography)
        assert res.subquery_embeddings == {0: 5, 1: 5, 2: 2}
        assert [s["stage"] for s in res.stats] == [
            "useful-partials", "complete-borders", "join-answers"
        ]
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

    def test_spill_threshold_is_invisible(
        self, edge_split, supervisor_query, supervisor_decomposition
    ):
        base = run_qejpe(edge_split, supervisor_query, supervisor_decomposition)
        res = run_qejpe(
            edge_split,
            supervisor_query,
            supervisor_decomposition,
            spill_threshold=2,
        )
        assert res.answers.to_tsv() == base.answers.to_tsv()

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

    def test_boolean_query(self, bibliography, edge_split):
        from conftest import q3

        q = sg.Query([q3("<Article1>", "<publishedIn>", "<Journal1>")])
        res = run_qejpe(edge_split, q, sg.naive_decomposition(q))
        assert res.answers.variables == ()
        assert res.answers == sg.oracle_answers(q, bibliography)
        assert res.answers.to_tsv() == "\n\n"
