"""A small deterministic map/shuffle/reduce runtime.

Records are (key, value) pairs built from ints, strs, bools and tuples of
them; the engines put a term's ID in a ``TermDictionary`` where the term
would be, and UNBOUND (-1) for an unbound position. Determinism comes from
sorting: the shuffle puts a stage's map emissions into groups by key in one
pass, then sorts the distinct keys and each group's values in Python's own
order, and reducers see the groups and their values in that order. Keys
must be hashable, and the keys, like each group's values, must compare
with each other (never None next to an int, say); a stage whose emissions
do not is stopped with UnorderableRecords naming it. Two mixes pass that
check and are not supported: keys group by equality, so 0 and False (or 1
and True) fall into one group, which keeps the key that arrived first, and
sets compare only by inclusion, so two sets neither of which holds the
other reach the reducer in the order they arrived. The engines emit
neither.

``workers`` is the logical number of map and reduce tasks per stage, as in
MapReduce: it splits a stage's input records (and its groups) into that many
contiguous chunks, one task each, and ``JobResult.per_worker_out`` counts each
task's output. The tasks run one after another in the calling thread; on a
GIL build, threads gave no CPU parallelism and measured slower than running
the same chunks in turn. Worker count changes no output; the acceptance
suite pins byte-identical results for 1, 4, and 8 workers.

A map task may put records straight into its stage's output by appending
them to ``Emitter.output``, past the shuffle and the reduce; they count in
``recordsOut`` and in that task's ``per_worker_out`` like any other output.
``distinctKeys`` is the number of shuffle groups and ``maxGroupSize`` the
size of the largest, both 0 for a map-only stage, which has no shuffle.

Sorting happens in exactly two places. Intermediate records are ordered
once, by the shuffle of the stage that reads them, as in MapReduce. Answers
are ordered once, by ``ntio.AnswerSet``. Everything else keeps emission
order: a ``JobResult`` holds its records as the tasks emitted them (a map
task's bypassed records first, then the reduce output), unsorted. This is
safe because the shuffle orders the keys, and each group's values, by
value, so the groups, the order of each group's values, and therefore the
stage stats and which key trips a cap do not depend on the order the
records arrive in; only the order a reducer emits in may. Values that
compare equal are equal (the sorts are stable, but no two distinct values
tie, with the caveats above).

The shuffle runs in memory: a stage's emissions, its groups and its output
are held in memory.

Map and reduce callables receive an Emitter; exceptions are wrapped into
MapFnError / ReduceFnError with the failing stage and key attached. Limit
guards (LimitError) pass through unwrapped: tripping a cap is a deliberate
abort, not a bug in the user function, and it must keep its exit code.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Callable

from .errors import LimitError, MapFnError, ReduceFnError, UnorderableRecords

__all__ = [
    "Emitter",
    "Job",
    "JobResult",
    "run_job",
]


class Emitter:
    """Collects one task's emissions.

    ``records`` feeds the stage's shuffle, and ``emit`` appends one record
    to it; a task may also extend it with a whole list. ``output``, in a map
    task, is the stage's output, past the shuffle and the reduce. A task
    with no shuffle after it (a reduce task, or a map task of a map-only
    stage) has only output, so both names are one list.
    """

    __slots__ = ("records", "output")

    def __init__(self, shuffled: bool = False):
        self.records: list[tuple] = []
        self.output: list[tuple] = [] if shuffled else self.records

    def emit(self, key, value) -> None:
        self.records.append((key, value))


MapFn = Callable[[object, object, Emitter], None]
ReduceFn = Callable[[object, list, Emitter], None]


@dataclass(frozen=True)
class Job:
    """One map/shuffle/reduce stage.

    reduce_fn None means a map-only stage whose output is the map emissions
    themselves.
    """

    name: str
    map_fn: MapFn
    reduce_fn: ReduceFn | None = None


@dataclass
class JobResult:
    """One stage's output records, in emission order, with its stats and
    each task's output count."""

    records: list[tuple]
    stats: dict
    per_worker_out: tuple[int, ...]


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


def _run_task(fn, items: list[tuple], em: Emitter, wrap, stage: str) -> Emitter:
    """Call ``fn`` on every (key, value) of one task's chunk, rewrapping
    anything but a LimitError with the stage and key."""
    for key, value in items:
        try:
            fn(key, value, em)
        except LimitError:
            raise
        except Exception as exc:  # noqa: BLE001 - rewrapped with context
            raise wrap(stage, key, exc) from exc
    return em


def run_job(job: Job, records: list[tuple], *, workers: int = 1) -> JobResult:
    started = time.perf_counter()
    shuffled = job.reduce_fn is not None
    out: list[tuple] = []
    per_worker: list[int] = []

    # ---- map: emissions feed the shuffle, or are the output of a map-only
    # stage; bypassed records go straight to the output either way
    emissions = []
    for chunk in _chunks(records, workers):
        em = _run_task(job.map_fn, chunk, Emitter(shuffled), MapFnError, job.name)
        if shuffled:
            emissions.extend(em.records)
        out.extend(em.output)
        per_worker.append(len(em.output))

    # ---- shuffle and reduce
    distinct_keys = max_group = 0
    if shuffled:
        by_key: dict[object, list] = {}
        try:
            for key, value in emissions:
                by_key.setdefault(key, []).append(value)
            for values in by_key.values():
                if len(values) > 1:
                    values.sort()
            groups = [(key, by_key[key]) for key in sorted(by_key)]
        except TypeError as exc:  # an unhashable key, or two that do not compare
            raise UnorderableRecords(job.name, exc) from exc
        distinct_keys = len(by_key)
        max_group = max(map(len, by_key.values()), default=0)
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
        "wallMillis": int((time.perf_counter() - started) * 1000),
    }
    return JobResult(records=out, stats=stats, per_worker_out=tuple(per_worker))
