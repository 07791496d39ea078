"""Deterministic map/shuffle/reduce runtime."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

import stargraph as sg
import stargraph.runtime
from stargraph.errors import CartesianCapExceeded, MapFnError, ReduceFnError
from stargraph.model import Term
from stargraph.runtime import (
    Emitter,
    Job,
    PipelineResult,
    Stage,
    record_sort_key,
    run_job,
    run_pipeline,
    spill_threshold_from_env,
)


values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-10, 10)
    | st.text(max_size=4)
    | st.sampled_from([sg.iri("a"), sg.variable("x"), sg.literal("v")]),
    lambda inner: st.lists(inner, max_size=3).map(tuple),
    max_leaves=6,
)

terms = st.builds(
    lambda make, lexical: make(lexical),
    st.sampled_from([sg.iri, sg.literal, sg.variable]),
    st.text(alphabet="ab", max_size=2),
)

nested_values = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 3)
    | st.floats(-3, 3, allow_nan=False)
    | st.text(alphabet="ab", max_size=2)
    | terms,
    lambda inner: st.lists(inner, max_size=3) | st.lists(inner, max_size=3).map(tuple),
    max_leaves=8,
)


def reference_record_sort_key(x):
    """The original implementation, kept verbatim as the order to preserve."""
    if x is None:
        return (0,)
    if isinstance(x, bool):
        return (1, x)
    if isinstance(x, int):
        return (2, x)
    if isinstance(x, float):
        return (3, x)
    if isinstance(x, str):
        return (4, x)
    if isinstance(x, Term):
        return (5,) + x.key
    if isinstance(x, (tuple, list)):
        return (6,) + tuple(reference_record_sort_key(i) for i in x)
    raise TypeError(f"records may not contain {type(x).__name__!r} values")


def _cmp(a, b):
    return (a > b) - (a < b)


class TestRecordSortKey:
    @given(values, values)
    def test_total_order(self, a, b):
        ka, kb = record_sort_key(a), record_sort_key(b)
        assert (ka < kb) or (kb < ka) or (ka == kb)

    @given(st.lists(values, max_size=8))
    def test_sorting_is_stable_and_deterministic(self, items):
        once = sorted(items, key=record_sort_key)
        twice = sorted(list(reversed(items)), key=record_sort_key)
        assert [record_sort_key(x) for x in once] == [
            record_sort_key(x) for x in twice
        ]

    def test_type_families_do_not_collide(self):
        ordered = [None, False, True, 0, 1.5, "s", sg.iri("a"), ("t",)]
        keys = [record_sort_key(v) for v in ordered]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_unsupported_type_rejected(self):
        with pytest.raises(TypeError):
            record_sort_key(object())
        with pytest.raises(TypeError):
            record_sort_key({"a": 1})
        with pytest.raises(TypeError):
            record_sort_key((1, (sg.iri("a"), {2})))

    @given(nested_values, nested_values)
    def test_pairwise_order_matches_reference(self, a, b):
        assert _cmp(record_sort_key(a), record_sort_key(b)) == _cmp(
            reference_record_sort_key(a), reference_record_sort_key(b)
        )

    @given(st.lists(nested_values, max_size=8))
    def test_sorted_order_matches_reference(self, items):
        got = sorted(items, key=record_sort_key)
        want = sorted(items, key=reference_record_sort_key)
        assert [reference_record_sort_key(x) for x in got] == [
            reference_record_sort_key(x) for x in want
        ]

    @given(terms, terms)
    def test_term_keys_match_reference_and_hold_no_enum_member(self, a, b):
        assert [type(part) for part in record_sort_key(a)] == [int, str, int]
        assert _cmp(record_sort_key(a), record_sort_key(b)) == _cmp(
            reference_record_sort_key(a), reference_record_sort_key(b)
        )


def word_count_records():
    text = "the quick fox and the lazy dog and the fox".split()
    return [(i, w) for i, w in enumerate(text)]


def split_map(key, value, em: Emitter):
    em.emit(value, 1)


def sum_reduce(key, counts, em: Emitter):
    em.emit(key, sum(counts))


class TestRunJob:
    def test_map_reduce_counts(self):
        res = run_job(Job("count", split_map, sum_reduce), word_count_records())
        assert res.records == [
            ("and", 2), ("dog", 1), ("fox", 2), ("lazy", 1), ("quick", 1), ("the", 3)
        ]
        assert res.stats["recordsIn"] == 10
        assert res.stats["recordsOut"] == 6
        assert res.stats["distinctKeys"] == 6

    def test_map_only_stage_sorts_emissions(self):
        res = run_job(Job("tag", split_map, None), word_count_records())
        assert res.records == sorted(
            res.records, key=lambda r: (record_sort_key(r[0]), record_sort_key(r[1]))
        )
        assert res.stats["distinctKeys"] == 6
        assert res.stats["recordsOut"] == 10

    def test_identity_map(self):
        recs = [(2, "b"), (1, "a"), (1, "c")]
        res = run_job(Job("group", None, lambda k, vs, em: em.emit(k, len(vs))), recs)
        assert res.records == [(1, 2), (2, 1)]

    def test_reducer_sees_values_in_sorted_order(self):
        recs = [(0, v) for v in (3, 1, 2, None, "z", "a")]
        seen = []
        run_job(Job("probe", None, lambda k, vs, em: seen.extend(vs)), recs)
        assert seen == [None, 1, 2, 3, "a", "z"]

    def test_stats_keys_exact(self):
        res = run_job(Job("count", split_map, sum_reduce), word_count_records())
        assert set(res.stats) == {
            "stage", "recordsIn", "recordsOut", "distinctKeys", "wallMillis"
        }
        assert res.stats["stage"] == "count"

    @pytest.mark.parametrize("workers", [1, 4, 8])
    def test_worker_count_changes_nothing(self, workers):
        base = run_job(Job("count", split_map, sum_reduce), word_count_records())
        res = run_job(
            Job("count", split_map, sum_reduce),
            word_count_records(),
            workers=workers,
        )
        assert res.records == base.records

    def test_output_conservation(self):
        res = run_job(
            Job("count", split_map, sum_reduce), word_count_records(), workers=4
        )
        assert sum(res.per_worker_out) == res.stats["recordsOut"]

    def test_spill_path_equivalent(self, tmp_path, monkeypatch):
        big = [(i % 7, i) for i in range(500)]
        job = Job("mod", None, lambda k, vs, em: em.emit(k, sum(vs)))
        plain = run_job(job, big)
        spilled = run_job(job, big, spill_threshold=16)
        assert plain.records == spilled.records
        monkeypatch.setenv("STARGRAPH_SPILL_THRESHOLD", "16")
        assert spill_threshold_from_env() == 16
        via_env = run_job(job, big)
        assert via_env.records == plain.records
        monkeypatch.setenv("STARGRAPH_SPILL_THRESHOLD", "0")
        assert spill_threshold_from_env() is None

    def test_side_channels_collected_and_sorted(self):
        def mapper(key, value, em: Emitter):
            em.emit_side("extras", value, key)
            em.emit(value, 1)

        res = run_job(
            Job("count", mapper, sum_reduce, side_channels=("extras",)),
            word_count_records(),
        )
        extras = res.side["extras"]
        assert len(extras) == 10
        assert extras == sorted(
            extras, key=lambda r: (record_sort_key(r[0]), record_sort_key(r[1]))
        )
        # side emissions count toward the stage output total
        assert res.stats["recordsOut"] == 6 + 10

    def test_undeclared_side_channel_raises(self):
        def mapper(key, value, em: Emitter):
            em.emit_side("nope", value, key)

        with pytest.raises(MapFnError):
            run_job(Job("bad", mapper, None), word_count_records())


class TestErrorWrapping:
    def test_map_error_carries_stage_and_key(self):
        def bad(key, value, em):
            if key == 3:
                raise KeyError("boom")
            em.emit(key, value)

        with pytest.raises(MapFnError) as exc:
            run_job(Job("stage-a", bad, None), word_count_records())
        assert "stage-a" in str(exc.value)
        assert "3" in str(exc.value)

    def test_reduce_error_carries_stage_and_key(self):
        def bad(key, values, em):
            raise ValueError("nope")

        with pytest.raises(ReduceFnError) as exc:
            run_job(Job("stage-b", split_map, bad), word_count_records())
        assert "stage-b" in str(exc.value)

    def test_limit_errors_pass_through_map(self):
        def capped(key, value, em):
            raise CartesianCapExceeded("too many")

        with pytest.raises(CartesianCapExceeded):
            run_job(Job("stage-c", capped, None), word_count_records())

    def test_limit_errors_pass_through_reduce(self):
        def capped(key, values, em):
            raise CartesianCapExceeded("too many")

        with pytest.raises(CartesianCapExceeded):
            run_job(Job("stage-d", split_map, capped), word_count_records())


class TestSpillRoundTrip:
    """Engines give the same bytes when their shuffles spill to disk."""

    @pytest.mark.parametrize("engine", ["qejpe", "stars", "redundancy"])
    def test_spilled_engines_match_unspilled(
        self, engine, edge_split, node_split, supervisor_query, monkeypatch
    ):
        run = {"qejpe": sg.run_qejpe, "stars": sg.run_stars,
               "redundancy": sg.run_redundancy}[engine]
        data = node_split if engine == "redundancy" else edge_split
        dec = sg.DECOMPOSERS["max-degree"](supervisor_query)
        plain = run(data, supervisor_query, dec)

        spills = []
        spill_runs = stargraph.runtime._spill_runs

        def counting(records, threshold, tmpdir):
            spills.append(len(records))
            return spill_runs(records, threshold, tmpdir)

        monkeypatch.setattr(stargraph.runtime, "_spill_runs", counting)
        spilled = run(data, supervisor_query, dec, spill_threshold=4)
        assert spills, "no shuffle exceeded the threshold"
        assert spilled.answers.to_tsv() == plain.answers.to_tsv()
        assert spilled.answers.rows
        for row in spilled.answers.rows:
            for t in row:
                assert t is Term(t.kind, t.lexical)


class TestPipeline:
    def build(self):
        def mapper(key, value, em: Emitter):
            em.emit(value, 1)
            if value == "fox":
                em.emit_side("foxes", key, value)

        first = Stage(Job("count", mapper, sum_reduce, side_channels=("foxes",)))
        second = Stage(
            Job("fold", None, lambda k, vs, em: em.emit(k, sum(vs))),
            consume_main=True,
            consume_sides=(),
        )
        return [first, second]

    def test_stats_per_stage(self):
        res = run_pipeline(self.build(), word_count_records())
        assert isinstance(res, PipelineResult)
        assert [s["stage"] for s in res.stats] == ["count", "fold"]
        assert res.side["foxes"] == [(2, "fox"), (9, "fox")]

    def test_consume_sides_feeds_later_stage(self):
        def mapper(key, value, em: Emitter):
            em.emit_side("detour", value, 1)

        stages = [
            Stage(Job("split", mapper, None, side_channels=("detour",))),
            Stage(
                Job("count", None, sum_reduce),
                consume_main=False,
                consume_sides=("detour",),
            ),
        ]
        res = run_pipeline(stages, word_count_records())
        assert res.records == [
            ("and", 2), ("dog", 1), ("fox", 2), ("lazy", 1), ("quick", 1), ("the", 3)
        ]

    def test_unknown_side_channel_rejected(self):
        stages = [
            Stage(Job("a", split_map, sum_reduce)),
            Stage(Job("b", None, sum_reduce), consume_sides=("ghost",)),
        ]
        with pytest.raises(ValueError):
            run_pipeline(stages, word_count_records())

    def test_duplicate_side_channel_rejected(self):
        stages = [
            Stage(Job("a", split_map, None, side_channels=("x",))),
            Stage(Job("b", None, sum_reduce, side_channels=("x",))),
        ]
        with pytest.raises(ValueError):
            run_pipeline(stages, word_count_records())
