"""Deterministic map/shuffle/reduce runtime."""

import importlib
import itertools
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import stargraph as sg
import stargraph.runtime
from stargraph.errors import (
    CartesianCapExceeded,
    MapFnError,
    ReduceFnError,
    UnorderableRecords,
)
from stargraph.embedding import enumerate_total
from stargraph.model import UNBOUND, Term, TermDictionary
from stargraph.runtime import Emitter, Job, JobResult, _chunks, _run_task, run_job


# lexical forms shared across kinds and prefixing each other ("", "a", "ab")
terms = st.builds(
    lambda make, lexical: make(lexical),
    st.sampled_from([sg.iri, sg.literal, sg.variable]),
    st.text(alphabet="ab", max_size=2),
)


@st.composite
def stage_records(draw):
    """A term pool and one stage's worth of engine-shaped term records.

    The shapes are those the engines emit into one shuffle: qejpe's
    (subquery, (vector, mask)) fragments, stars' (subquery, centre image)
    witnesses of (query-triple index, image), phase 1's
    (subquery, vector) totals, and the final join's (common-border vector,
    (subquery, the rest of the vector)). Vectors hold a ``Term | None`` per
    position; a stage's vectors share their lengths.
    """
    pool = draw(st.lists(terms, min_size=1, max_size=6, unique=True))
    term = st.sampled_from(pool)
    sub = st.integers(0, 3)
    n_nodes, n_common = (draw(st.integers(0, 3)) for _ in range(2))

    def vector(n, ground=False):
        image = term if ground else term | st.none()
        return st.tuples(*[image] * n)

    kind = draw(st.sampled_from(["fragment", "witness", "total", "join"]))
    if kind == "fragment":
        record = st.tuples(sub, st.tuples(vector(n_nodes), st.integers(1, 7)))
    elif kind == "witness":
        record = st.tuples(st.tuples(sub, term), st.tuples(st.integers(0, 5), term))
    elif kind == "total":
        record = st.tuples(sub, vector(n_nodes))
    else:
        record = st.tuples(vector(n_common, True), st.tuples(sub, vector(n_nodes)))
    return TermDictionary(pool), draw(st.lists(record, max_size=10))


def to_ids(x, dictionary):
    """A term record as the engines ship it: IDs for terms, UNBOUND for None."""
    if type(x) is Term:
        return dictionary.ids[x]
    if x is None:
        return UNBOUND
    if type(x) is tuple:
        return tuple(to_ids(i, dictionary) for i in x)
    return x


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


def _identity(key, value, em):
    em.emit(key, value)


def _collect(key, values, em):
    em.emit(key, tuple(values))


class TestShuffleRecordOrder:
    """The shuffle sorts records in Python's own order: records carry term
    IDs, and that order must be the one ``reference_record_sort_key`` gives
    the term records they encode."""

    @given(stage_records())
    def test_total_order(self, case):
        dictionary, records = case
        encoded = [to_ids(r, dictionary) for r in records]
        for a, b in itertools.product(encoded, repeat=2):
            assert [a < b, b < a, a == b].count(True) == 1

    @given(stage_records())
    def test_sorting_is_stable_and_deterministic(self, case):
        dictionary, records = case
        encoded = [to_ids(r, dictionary) for r in records]
        assert sorted(encoded) == sorted(reversed(encoded))

    @given(stage_records())
    def test_type_families_do_not_collide(self, case):
        # distinct term records stay distinct, and unbound collides with no ID
        dictionary, records = case
        assert len({to_ids(r, dictionary) for r in records}) == len(set(records))
        assert list(dictionary.ids.values()) == [*range(len(dictionary.terms)), UNBOUND]

    def test_unsupported_type_rejected(self):
        job = Job("mixed-images", _identity, _collect)
        bad_pairs = (((1,), (None,)), ({"a": 1}, {"b": 2}))
        for a, b in bad_pairs:
            with pytest.raises(UnorderableRecords) as exc:
                run_job(job, [(0, a), (1, (2,)), (0, b), (1, (2,))])
            assert not isinstance(exc.value, TypeError)
            assert exc.value.stage == "mixed-images"
            assert str(exc.value).startswith("mixed-images: the shuffle cannot order")

    def test_unhashable_key_rejected(self):
        job = Job("list-keys", _identity, _collect)
        with pytest.raises(UnorderableRecords) as exc:
            run_job(job, [([0], "a"), ([1], "b"), ([0], "c")])
        assert not isinstance(exc.value, TypeError)
        assert exc.value.stage == "list-keys"
        assert str(exc.value).startswith("list-keys: the shuffle cannot order")

    def test_bool_and_int_keys_share_a_group(self):
        # a documented limitation: keys group by equality, and 0 == False
        records = [(0, "a"), (False, "b"), (True, "c"), (1, "d")]
        res = run_job(Job("flags", _identity, _collect), records)
        assert res.records == [(0, ("a", "b")), (True, ("c", "d"))]
        assert res.stats["distinctKeys"] == 2

    def test_set_values_keep_arrival_order(self):
        # a documented limitation: sets compare by inclusion only, so two
        # sets neither of which holds the other are not ordered; the
        # shuffle hands them to the reducer as they arrived
        one, two = frozenset({1}), frozenset({2})
        job = Job("sets", _identity, _collect)
        assert run_job(job, [(0, two), (0, one)]).records == [(0, (two, one))]
        assert run_job(job, [(0, one), (0, two)]).records == [(0, (one, two))]

    @given(stage_records())
    def test_pairwise_order_matches_reference(self, case):
        dictionary, records = case
        for a, b in itertools.product(records[:6], repeat=2):
            assert _cmp(to_ids(a, dictionary), to_ids(b, dictionary)) == _cmp(
                reference_record_sort_key(a), reference_record_sort_key(b)
            )

    @settings(deadline=None)
    @given(stage_records())
    def test_sorted_order_matches_reference(self, case):
        dictionary, records = case
        encoded = [to_ids(r, dictionary) for r in records]
        positions = range(len(records))
        assert sorted(positions, key=encoded.__getitem__) == sorted(
            positions, key=lambda i: reference_record_sort_key(records[i])
        )
        # the groups the shuffle forms are those of the term records sorted
        # by the reference key
        want = []
        for _, group in itertools.groupby(
            sorted(records, key=reference_record_sort_key),
            key=lambda r: reference_record_sort_key(r[0]),
        ):
            group = list(group)
            want.append(to_ids((group[0][0], tuple(v for _, v in group)), dictionary))
        assert run_job(Job("groups", _identity, _collect), encoded).records == want

    @given(terms, terms)
    def test_term_keys_match_reference_and_hold_no_enum_member(self, a, b):
        ids = TermDictionary({a, b}).ids
        assert type(ids[a]) is int and type(ids[b]) is int
        assert _cmp(ids[a], ids[b]) == _cmp(
            reference_record_sort_key(a), reference_record_sort_key(b)
        )


def _stage_job(i: int, map_kind: str, reduce_kind: str | None, bypass: bool) -> Job:
    """A stage named after ``i``. Keys and values are all strs, so every
    record compares with every other. Reducers emit their values in order,
    so any change in the order a reducer sees its values changes the output.
    With ``bypass``, a non-identity map also sends records past the shuffle."""

    def swap(key, value, em):
        em.emit(value, key)
        if bypass:
            em.output.append((key, value))

    def fan_out(key, value, em):
        em.emit(key, value)
        em.emit(str(i), repr((key, value)))
        if bypass:
            em.output.append((value, str(i)))

    def collect(key, values, em):
        em.emit(key, repr(tuple(values)))

    def count(key, values, em):
        em.emit(str(len(values)), key)

    map_fn = {"identity": _identity, "swap": swap, "fan-out": fan_out}[map_kind]
    reduce_fn = {None: None, "collect": collect, "count": count}[reduce_kind]
    return Job(f"stage{i}", map_fn, reduce_fn)


@st.composite
def stage_jobs(draw):
    """Identity and non-identity maps, map-only and reduce stages, and maps
    that do or do not bypass the shuffle."""
    return _stage_job(
        draw(st.integers(0, 2)),
        draw(st.sampled_from(["identity", "swap", "fan-out"])),
        draw(st.sampled_from([None, "collect", "count"])),
        draw(st.booleans()),
    )


def _without_wall(stats):
    return [{k: v for k, v in s.items() if k != "wallMillis"} for s in stats]


str_records = st.lists(
    st.tuples(st.sampled_from("01234ab"), st.text(alphabet="ab", max_size=3)),
    max_size=12,
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

    def test_map_only_stage_keeps_emission_order(self):
        res = run_job(Job("tag", split_map, None), word_count_records())
        assert res.records == [(w, 1) for _, w in word_count_records()]
        # no shuffle, so no groups
        assert res.stats["distinctKeys"] == 0
        assert res.stats["recordsOut"] == 10

    def test_reducer_sees_values_in_sorted_order(self):
        recs = [(0, v) for v in ((3, "a"), (1, "z"), (2, ""), (UNBOUND, "b"), (1, "a"))]
        seen = []
        run_job(Job("probe", _identity, lambda k, vs, em: seen.extend(vs)), recs)
        assert seen == [(UNBOUND, "b"), (1, "a"), (1, "z"), (2, ""), (3, "a")]

    def test_stats_keys_exact(self):
        res = run_job(Job("count", split_map, sum_reduce), word_count_records())
        assert set(res.stats) == {
            "stage", "recordsIn", "recordsOut", "distinctKeys", "maxGroupSize",
            "wallMillis",
        }
        assert res.stats["stage"] == "count"
        # the largest group is "the", three times; a map-only stage has none
        assert res.stats["maxGroupSize"] == 3
        assert run_job(Job("tag", split_map, None), word_count_records()).stats[
            "maxGroupSize"
        ] == 0

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

    def test_tasks_run_in_the_calling_thread(self):
        seen = []

        def mapper(key, value, em: Emitter):
            seen.append(threading.get_ident())
            split_map(key, value, em)

        def reducer(key, counts, em: Emitter):
            seen.append(threading.get_ident())
            sum_reduce(key, counts, em)

        run_job(Job("count", mapper, reducer), word_count_records(), workers=4)
        assert len(seen) == 10 + 6
        assert set(seen) == {threading.get_ident()}

    def test_more_workers_than_records(self):
        records = word_count_records()[:5]
        job = Job("count", split_map, sum_reduce)
        base = run_job(job, records)
        res = run_job(job, records, workers=64)
        assert res.records == base.records
        assert _without_wall([res.stats]) == _without_wall([base.stats])
        # one map task per record, then one reduce task per word group
        # (and, fox, quick, the); only the reduce tasks emit stage output
        assert res.per_worker_out == (0, 0, 0, 0, 0, 1, 1, 1, 1)

    def test_a_huge_worker_count_splits_as_many_as_there_are_items(self):
        # a task per item at most, so the count costs nothing beyond that
        assert _chunks(list(range(5)), 10**12) == [[0], [1], [2], [3], [4]]
        records = word_count_records()[:5]
        job = Job("count", split_map, sum_reduce)
        res = run_job(job, records, workers=10**12)
        five = run_job(job, records, workers=5)
        assert res.records == five.records
        assert _without_wall([res.stats]) == _without_wall([five.stats])
        assert res.per_worker_out == five.per_worker_out

    def test_output_bypasses_the_reduce_in_emission_order(self):
        seen = []

        def mapper(key, value, em: Emitter):
            # whole lists, as the engines' maps hand over their records
            em.output += [(value, key)]
            em.records += [(value, 1)]

        def reducer(key, counts, em: Emitter):
            seen.append((key, counts))
            sum_reduce(key, counts, em)

        job = Job("count", mapper, reducer)
        results = {w: run_job(job, word_count_records(), workers=w) for w in (1, 3)}
        # the reducer only ever sees the shuffled 1s, never a bypassed index
        assert seen == 2 * [
            ("and", [1, 1]), ("dog", [1]), ("fox", [1, 1]),
            ("lazy", [1]), ("quick", [1]), ("the", [1, 1, 1]),
        ]
        for res in results.values():
            # the map tasks' bypassed records come first, as emitted
            assert res.records[:10] == [(w, i) for i, w in word_count_records()]
            assert res.records[10:] == [
                ("and", 2), ("dog", 1), ("fox", 2), ("lazy", 1), ("quick", 1), ("the", 3)
            ]
            assert res.stats["recordsOut"] == 10 + 6
            assert res.stats["distinctKeys"] == 6
        # each map task's bypassed records count as its output
        assert results[1].per_worker_out == (10, 6)
        assert results[3].per_worker_out == (4, 3, 3, 2, 2, 2)
        assert _without_wall([results[3].stats]) == _without_wall([results[1].stats])

    def test_output_in_a_map_only_stage_keeps_emission_order(self):
        def mapper(key, value, em: Emitter):
            em.emit(value, 1)
            em.output += [(key, value)]

        res = run_job(Job("tag", mapper, None), word_count_records(), workers=3)
        assert res.records == [
            rec for i, w in word_count_records() for rec in ((w, 1), (i, w))
        ]
        assert res.per_worker_out == (8, 6, 6)
        assert res.stats["recordsOut"] == 20

    @settings(max_examples=60, deadline=None)
    @given(stage_jobs(), str_records, st.sampled_from([1, 3]), st.data())
    def test_arrival_order_changes_no_group_value_order_or_stat(
        self, job, source, workers, data
    ):
        # the records a map puts in its output are part of the stage's
        # records, so comparing records compares them too
        want = run_job(job, source, workers=workers)
        got = run_job(job, data.draw(st.permutations(source)), workers=workers)
        # outputs are in emission order, which a map-only stage takes from
        # its input, so compare them sorted
        assert sorted(got.records) == sorted(want.records)
        assert _without_wall([got.stats]) == _without_wall([want.stats])


def _reference_collect_groups(ordered: list[tuple]) -> list[tuple[object, list]]:
    """Fold (key, value) records, already in order, into (key, values)."""
    groups: list[tuple[object, list]] = []
    last = values = None
    for key, value in ordered:
        if values is None or key != last:
            last = key
            values = [value]
            groups.append((key, values))
        else:
            values.append(value)
    return groups


def reference_run_job(job: Job, records: list[tuple], *, workers: int = 1) -> JobResult:
    """The original shuffle, kept verbatim as the behaviour to preserve: one
    sort of every (key, value) emission, then a fold of equal keys."""
    shuffled = job.reduce_fn is not None
    out: list[tuple] = []
    per_worker: list[int] = []
    emissions = []
    for chunk in _chunks(records, workers):
        em = _run_task(job.map_fn, chunk, Emitter(shuffled), MapFnError, job.name)
        if shuffled:
            emissions.extend(em.records)
        out.extend(em.output)
        per_worker.append(len(em.output))
    distinct_keys = max_group = 0
    if shuffled:
        try:
            emissions = sorted(emissions)
        except TypeError as exc:  # two records that do not compare
            raise UnorderableRecords(job.name, exc) from exc
        groups = _reference_collect_groups(emissions)
        distinct_keys = len(groups)
        max_group = max((len(values) for _, values in groups), default=0)
        for chunk in _chunks(groups, workers):
            em = _run_task(job.reduce_fn, chunk, Emitter(), ReduceFnError, job.name)
            out.extend(em.output)
            per_worker.append(len(em.output))
    stats = {
        "stage": job.name,
        "recordsIn": len(records),
        "recordsOut": len(out),
        "distinctKeys": distinct_keys,
        "maxGroupSize": max_group,
    }
    return JobResult(records=out, stats=stats, per_worker_out=tuple(per_worker))


def _seeing(job: Job, seen: list) -> Job:
    """``job`` with a reducer that also logs each group it is handed."""
    if job.reduce_fn is None:
        return job

    def reduce_fn(key, values, em):
        seen.append((key, list(values)))
        job.reduce_fn(key, values, em)

    return Job(job.name, job.map_fn, reduce_fn)


class TestShuffleMatchesReference:
    """``run_job`` groups by key and sorts the keys and each group's values;
    reducers, records and stats must be those of the original one-sort
    shuffle."""

    def _check(self, job, records, workers):
        seen, want_seen = [], []
        got = run_job(_seeing(job, seen), records, workers=workers)
        want = reference_run_job(_seeing(job, want_seen), records, workers=workers)
        assert seen == want_seen
        assert got.records == want.records
        assert got.per_worker_out == want.per_worker_out
        assert _without_wall([got.stats]) == [want.stats]

    @settings(max_examples=60, deadline=None)
    @given(stage_jobs(), str_records, st.sampled_from([1, 3]), st.data())
    def test_str_stages(self, job, source, workers, data):
        self._check(job, data.draw(st.permutations(source)), workers)

    @settings(max_examples=60, deadline=None)
    @given(stage_records(), st.sampled_from([1, 3]), st.data())
    def test_id_encoded_engine_records(self, case, workers, data):
        dictionary, records = case
        encoded = [to_ids(r, dictionary) for r in records]
        job = Job("engine-shaped", _identity, _collect)
        self._check(job, data.draw(st.permutations(encoded)), workers)


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


class TestEngineStageHook:
    """A tracer swaps ``<engine module>.run_job``, ``.preprocess`` and
    ``.answers_from_records`` for wrappers. Every stage an engine runs must go
    through that ``run_job``, in the order of its stats, and each run must
    call the other two through the engine module exactly once.

    The tracer also swaps the embedding primitives where the engines and the
    oracle call them (``qejpe.enumerate_useful_partial``,
    ``qejpe.totals_from_fragments``, ``stars.enumerate_total``,
    ``redundancy.enumerate_total``, ``oracle.enumerate_total``) and counts
    ``len()`` of what they return as fragments and totals. So each must be
    called through that name, and return a list with one entry per fragment
    or total, as counted some other way."""

    PRIMITIVES = {
        "qejpe": ("enumerate_useful_partial", "totals_from_fragments"),
        "stars": ("enumerate_total",),
        "redundancy": ("enumerate_total",),
        "oracle": ("enumerate_total",),
    }

    @pytest.mark.parametrize("engine", ["qejpe", "stars", "redundancy"])
    @pytest.mark.parametrize(
        "query, method",
        [("supervisor_query", "max-degree"), ("journal_article_query", "naive")],
    )
    def test_every_stage_runs_through_the_engine_module(
        self, engine, query, method, bibliography, edge_split, node_split, request,
        monkeypatch,
    ):
        module = importlib.import_module(f"stargraph.{engine}")
        names = []

        def recording(job, records, **kwargs):
            names.append(job.name)
            return stargraph.runtime.run_job(job, records, **kwargs)

        monkeypatch.setattr(module, "run_job", recording)
        calls = dict.fromkeys(["preprocess", "answers_from_records"], 0)
        for name in calls:
            def counting(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, counting)
        # (arguments, returned length) of every primitive call, per name
        returned: dict[str, list] = {}
        for owner in (engine, "oracle"):
            owner_module = importlib.import_module(f"stargraph.{owner}")
            for name in self.PRIMITIVES[owner]:
                log = returned[f"{owner}.{name}"] = []

                def listing(*args, _log=log, _fn=getattr(owner_module, name), **kwargs):
                    out = _fn(*args, **kwargs)
                    assert type(out) is list
                    _log.append((args, len(out)))
                    return out

                monkeypatch.setattr(owner_module, name, listing)
        q = request.getfixturevalue(query)
        data = node_split if engine == "redundancy" else edge_split
        dec = sg.DECOMPOSERS[method](q)
        res = getattr(module, f"run_{engine}")(data, q, dec)
        assert names
        assert names == [s["stage"] for s in res.stats]
        assert calls == {"preprocess": 1, "answers_from_records": 1}
        assert res.answers.rows
        for row in res.answers.rows:
            for t in row:
                assert t is Term(t.kind, t.lexical)

        assert res.answers == sg.oracle_answers(q, bibliography)
        nodes = tuple(sorted(q.nodes))
        (_, oracle_totals), = returned["oracle.enumerate_total"]
        assert oracle_totals == len(enumerate_total(q, bibliography, nodes))
        totals = sum(res.subquery_embeddings.values())
        pairs = len(dec.subqueries) * len(data.segments)
        if engine == "qejpe":
            enumerated = returned["qejpe.enumerate_useful_partial"]
            joined = returned["qejpe.totals_from_fragments"]
            assert len(enumerated) == pairs
            # every fragment enumerated reaches a join, and every total joined
            # is one of the subquery totals phase 1 ships
            assert sum(len(args[1]) for args, _ in joined) == sum(
                n for _, n in enumerated
            ) > 0
            assert sum(n for _, n in joined) == totals > 0
        else:
            enumerated = returned[f"{engine}.enumerate_total"]
            assert len(enumerated) == pairs
            counted = sum(n for _, n in enumerated)
            if engine == "redundancy":
                # segments find a total through replicated triples too, but
                # only the owner of its so-centre image ships it
                assert counted >= totals > 0
                qejpe = sg.run_qejpe(edge_split, q, dec)
                assert totals == sum(qejpe.subquery_embeddings.values())
            else:
                # stars part 2 ships only the totals part 1 does not cover
                layout = sg.preprocess(dec)
                assert counted == sum(
                    len(enumerate_total(sub, seg, layout.nodes))
                    for sub in dec.subqueries
                    for seg in data.segments
                )
