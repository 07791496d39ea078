"""A small deterministic map/shuffle/reduce runtime on threads.

Records are (key, value) pairs built from None, bool, int, float, str, Term,
and nested tuples/lists of those. Determinism comes from sorting, not from
scheduling: the shuffle sorts all map emissions by a total order over record
structure, reducers see their values in that order, and every stage's outputs
are sorted again before they leave the stage. Worker count therefore changes
wall time and nothing else; the acceptance suite pins byte-identical results
for 1, 4, and 8 workers.

Each emission's sort key is computed once: the shuffle sorts by it and groups
on its key half, and drops the keys before reduce starts. When a stage's map
emissions exceed the spill threshold (argument, or the
STARGRAPH_SPILL_THRESHOLD environment variable, default unbounded), sorted
runs of (sort key, record) are pickled to a temporary directory and merged
back lazily. Spilling bounds the sort keys held in memory at once; the
emission list and the reducer groups stay in memory either way.

Map and reduce callables receive an Emitter; exceptions are wrapped into
MapFnError / ReduceFnError with the failing stage and key attached. Limit
guards (LimitError) pass through unwrapped: tripping a cap is a deliberate
abort, not a bug in the user function, and it must keep its exit code.
"""

from __future__ import annotations

import heapq
import os
import pickle
import shutil
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from operator import itemgetter
from typing import Callable, Iterable, Iterator

from .errors import LimitError, MapFnError, ReduceFnError
from .model import Term

__all__ = [
    "record_sort_key",
    "Emitter",
    "Job",
    "JobResult",
    "run_job",
    "Stage",
    "PipelineResult",
    "run_pipeline",
    "spill_threshold_from_env",
]


def record_sort_key(x):
    """Total order over the record value universe. Injective per type family,
    so sorting by it is as good as sorting by value.

    Keys hold only ints, floats, strs, bools and tuples, never a TermKind
    member, so the collector can stop tracking them.
    """
    t = type(x)
    if t is Term:
        return (5, x.lexical, x.kind._value_)
    if t is tuple:
        return (6,) + tuple(map(record_sort_key, x))
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
        return (6,) + tuple(map(record_sort_key, x))
    raise TypeError(f"records may not contain {type(x).__name__!r} values")


def _record_key(rec):
    return (record_sort_key(rec[0]), record_sort_key(rec[1]))


_first_item = itemgetter(0)


class Emitter:
    """Collects a task's emissions; side channels must be declared up front."""

    __slots__ = ("records", "side")

    def __init__(self, side_channels: tuple[str, ...] = ()):
        self.records: list[tuple] = []
        self.side: dict[str, list[tuple]] = {name: [] for name in side_channels}

    def emit(self, key, value) -> None:
        self.records.append((key, value))

    def emit_side(self, channel: str, key, value) -> None:
        if channel not in self.side:
            raise ValueError(f"undeclared side channel {channel!r}")
        self.side[channel].append((key, value))


MapFn = Callable[[object, object, Emitter], None]
ReduceFn = Callable[[object, list, Emitter], None]


@dataclass(frozen=True)
class Job:
    """One map/shuffle/reduce stage.

    map_fn None means identity (records pass straight to the shuffle);
    reduce_fn None means a map-only stage whose output is the sorted map
    emissions themselves.
    """

    name: str
    map_fn: MapFn | None = None
    reduce_fn: ReduceFn | None = None
    side_channels: tuple[str, ...] = ()


@dataclass
class JobResult:
    records: list[tuple]
    side: dict[str, list[tuple]]
    stats: dict
    per_worker_out: tuple[int, ...]


def spill_threshold_from_env() -> int | None:
    raw = os.environ.get("STARGRAPH_SPILL_THRESHOLD")
    if not raw:
        return None
    value = int(raw)
    return value if value > 0 else None


def _chunks(items: list, n: int) -> list[list]:
    if n <= 1 or len(items) <= 1:
        return [items]
    size, rem = divmod(len(items), n)
    out = []
    start = 0
    for i in range(n):
        end = start + size + (1 if i < rem else 0)
        if start < end:
            out.append(items[start:end])
        start = end
    return out


def _run_tasks(task, chunks: list, workers: int) -> list:
    """Run task over chunks, preserving chunk order in the result list."""
    if workers <= 1 or len(chunks) <= 1:
        return [task(c) for c in chunks]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(task, c) for c in chunks]
        return [f.result() for f in futures]


def _spill_runs(records: list[tuple], threshold: int, tmpdir: str) -> list[str]:
    """Write sorted runs of (sort key, record) pairs, ``threshold`` at a time."""
    paths = []
    for start in range(0, len(records), threshold):
        run = [(_record_key(rec), rec) for rec in records[start:start + threshold]]
        run.sort(key=_first_item)
        path = os.path.join(tmpdir, f"run-{len(paths):05d}.bin")
        with open(path, "wb") as f:
            for pair in run:
                pickle.dump(pair, f, protocol=pickle.HIGHEST_PROTOCOL)
        paths.append(path)
    return paths


def _iter_run(path: str) -> Iterator[tuple]:
    with open(path, "rb") as f:
        while True:
            try:
                yield pickle.load(f)
            except EOFError:
                return


def _group(
    records: list[tuple], spill_threshold: int | None
) -> list[tuple[object, list]]:
    """Group records by key: groups in key order, each group's values in
    value order. Each record's sort key is computed once; past the spill
    threshold the sorted runs go to disk and are merged back lazily."""
    if spill_threshold is None or len(records) <= spill_threshold:
        keys = list(map(_record_key, records))
        return _collect_groups(_take_in_order(keys, records, _argsort(keys)))
    tmpdir = tempfile.mkdtemp(prefix="stargraph-spill-")
    try:
        paths = _spill_runs(records, spill_threshold, tmpdir)
        return _collect_groups(heapq.merge(*map(_iter_run, paths), key=_first_item))
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)


def _collect_groups(keyed: Iterable[tuple]) -> list[tuple[object, list]]:
    """Fold (sort key, record) pairs, already in order, into (key, values)."""
    groups: list[tuple[object, list]] = []
    last = None
    for (key_key, _), (key, value) in keyed:
        if key_key != last:
            last = key_key
            values = [value]
            groups.append((key, values))
        else:
            values.append(value)
    return groups


def _take_in_order(keys: list, records: list, order: list[int]) -> Iterator[tuple]:
    """Yield (sort key, record) in ``order``, releasing each key once read so
    the sort keys shrink while the groups grow instead of peaking together."""
    for i in order:
        key = keys[i]
        keys[i] = None
        yield key, records[i]


def _argsort(keys: list) -> list[int]:
    return sorted(range(len(keys)), key=keys.__getitem__)


def run_job(
    job: Job,
    records: list[tuple],
    *,
    workers: int = 1,
    spill_threshold: int | None = None,
) -> JobResult:
    if spill_threshold is None:
        spill_threshold = spill_threshold_from_env()
    started = time.perf_counter()

    # ---- map
    map_only = job.reduce_fn is None
    if job.map_fn is None:
        map_emissions = list(records)
        map_side: dict[str, list[tuple]] = {name: [] for name in job.side_channels}
        map_out_counts = [len(map_emissions)] if map_only else []
    else:
        def map_task(chunk: list[tuple]) -> Emitter:
            em = Emitter(job.side_channels)
            for key, value in chunk:
                try:
                    job.map_fn(key, value, em)
                except LimitError:
                    raise
                except Exception as exc:  # noqa: BLE001 - rewrapped with context
                    raise MapFnError(job.name, key, exc) from exc
            return em

        emitters = _run_tasks(map_task, _chunks(records, workers), workers)
        map_emissions = []
        map_side = {name: [] for name in job.side_channels}
        map_out_counts = []
        for em in emitters:
            map_emissions.extend(em.records)
            side_count = sum(len(v) for v in em.side.values())
            # a map worker's stage-level output is its side emissions, plus
            # its main emissions only when no reduce phase follows
            map_out_counts.append(
                side_count + (len(em.records) if map_only else 0)
            )
            for name, recs in em.side.items():
                map_side[name].extend(recs)

    # ---- shuffle
    distinct_keys = 0
    if job.reduce_fn is None:
        keys = list(map(_record_key, map_emissions))
        out_records = [map_emissions[i] for i in _argsort(keys)]
        distinct_keys = len({key_key for key_key, _ in keys})
        del keys
        side = {name: sorted(recs, key=_record_key) for name, recs in map_side.items()}
        per_worker = tuple(map_out_counts)
    else:
        groups = _group(map_emissions, spill_threshold)
        distinct_keys = len(groups)

        # ---- reduce
        def reduce_task(chunk: list[tuple[object, list]]) -> Emitter:
            em = Emitter(job.side_channels)
            for key, values in chunk:
                try:
                    job.reduce_fn(key, values, em)
                except LimitError:
                    raise
                except Exception as exc:  # noqa: BLE001 - rewrapped with context
                    raise ReduceFnError(job.name, key, exc) from exc
            return em

        emitters = _run_tasks(reduce_task, _chunks(groups, workers), workers)
        out_records = []
        side = {name: list(recs) for name, recs in map_side.items()}
        per_worker_counts = list(map_out_counts)
        for em in emitters:
            out_records.extend(em.records)
            per_worker_counts.append(
                len(em.records) + sum(len(v) for v in em.side.values())
            )
            for name, recs in em.side.items():
                side[name].extend(recs)
        out_records.sort(key=_record_key)
        side = {name: sorted(recs, key=_record_key) for name, recs in side.items()}
        per_worker = tuple(per_worker_counts)

    wall = int((time.perf_counter() - started) * 1000)
    records_out = len(out_records) + sum(len(v) for v in side.values())
    stats = {
        "stage": job.name,
        "recordsIn": len(records),
        "recordsOut": records_out,
        "distinctKeys": distinct_keys,
        "wallMillis": wall,
    }
    return JobResult(
        records=out_records, side=side, stats=stats, per_worker_out=per_worker
    )


@dataclass(frozen=True)
class Stage:
    """Pipeline wiring: where this job's input comes from."""

    job: Job
    consume_main: bool = True
    consume_sides: tuple[str, ...] = ()


@dataclass
class PipelineResult:
    records: list[tuple]
    side: dict[str, list[tuple]]
    stats: list[dict] = field(default_factory=list)


def run_pipeline(
    stages: list[Stage],
    source: list[tuple],
    *,
    workers: int = 1,
    spill_threshold: int | None = None,
) -> PipelineResult:
    """Run stages in order. Each stage consumes the previous stage's main
    output (unless consume_main is False) plus any named side channels emitted
    by earlier stages. Side channel names must be unique across the pipeline."""
    seen_channels: set[str] = set()
    for stage in stages:
        for name in stage.job.side_channels:
            if name in seen_channels:
                raise ValueError(f"duplicate side channel {name!r}")
            seen_channels.add(name)

    available: dict[str, list[tuple]] = {}
    current = list(source)
    all_stats: list[dict] = []
    result_side: dict[str, list[tuple]] = {}
    for stage in stages:
        inputs = list(current) if stage.consume_main else []
        for name in stage.consume_sides:
            if name not in available:
                raise ValueError(f"side channel {name!r} not produced yet")
            inputs.extend(available.pop(name))
        inputs.sort(key=_record_key)
        res = run_job(
            stage.job, inputs, workers=workers, spill_threshold=spill_threshold
        )
        for name, recs in res.side.items():
            available[name] = recs
            result_side[name] = recs
        all_stats.append(res.stats)
        current = res.records
    return PipelineResult(records=current, side=result_side, stats=all_stats)
