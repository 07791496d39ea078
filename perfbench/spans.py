"""The traced run: spans around each layer's calls, kept in memory.

Everything is measured from outside the program. While a run is traced,
the public functions each engine module calls (``run_job``,
``enumerate_useful_partial``, ``totals_from_fragments``,
``enumerate_total``, ``preprocess``, ``answers_from_records``,
``validate_decomposition``) are replaced in that module's namespace by timing
wrappers, and so are the ``map_fn``/``reduce_fn`` of every Job handed to
``run_job``. The benchmark's own op code opens the spans for the decomposer,
the engine call and ``to_tsv``. ``gc.callbacks`` times collector pauses.

A span is (id, parent, op, name, layer, start, end, self seconds). Spans
nest per thread; map and reduce calls running in pool threads belong to the
``run_job`` span that started them. To keep memory flat, the calls one thread
makes in one phase of one job form one batch span (first start to last end,
self time = summed call time minus their children), and collector pauses are
summed into the span they interrupt rather than kept, except gen-2 ones.
A layer's self time is the sum over its spans of duration minus children.
With ``workers=2`` two batches overlap in wall time, and both count.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import stargraph.oracle
import stargraph.qejpe
import stargraph.redundancy
import stargraph.stars

import bench

perf_counter = time.perf_counter

LAYERS = (
    "ntio", "partition", "model", "decompose", "embedding", "runtime",
    "evalcore", "qejpe", "stars", "redundancy", "oracle", "gc",
)
STAGES = {
    "qejpe": ("useful-partials", "complete-borders", "join-answers"),
    "stars": ("star-assembly", "complete-borders", "join-answers"),
    "redundancy": ("segment-totals", "complete-borders", "join-answers"),
}
STAGE_FIELDS = {
    "map_s": "s", "shuffle_s": "s", "reduce_s": "s", "output_sort_s": "s",
    "records_in": "count", "records_out": "count", "distinct_keys": "count",
    "max_group": "count", "share": "ratio",
}
SETUP_SPANS = {
    "ntio.parse_s": "parse_data",
    "partition.edge_s": "edge_random_partition",
    "partition.vertex_s": "vertex_hash_partition",
    "model.index_s": "build_indexes",
}
# wrapped call -> (metric for its summed duration, metric counting its results)
CALL_METRICS = {
    "enumerate_useful_partial": ("embedding.useful_partial_s", "embedding.fragments"),
    "totals_from_fragments": ("embedding.totals_s", "embedding.totals"),
    "enumerate_total": ("embedding.enumerate_total_s", "embedding.total_embeddings"),
}


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric a traced run reports, with its unit."""
    units = {name: "s" for name in SETUP_SPANS}
    units.update({
        "partition.replication": "ratio",
        "partition.border_nodes": "count",
        "decompose.s": "s",
    })
    for time_metric, count_metric in CALL_METRICS.values():
        units[time_metric] = "s"
        units[count_metric] = "count"
    units["embedding.useful_ratio"] = "ratio"
    for engine, stages in STAGES.items():
        for stage in stages:
            for field, unit in STAGE_FIELDS.items():
                units[f"runtime.{engine}.{stage}.{field}"] = unit
    units.update({
        "evalcore.completion_fanout": "ratio",
        "evalcore.join_selectivity": "ratio",
        "gc.gen2": "count",
        "gc.pause_s": "s",
    })
    units.update({f"{layer}.self_s": "s" for layer in LAYERS})
    units.update({"trace.overhead_s": "s", "trace.spans": "count"})
    return units


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


class _Frame:
    """An open span on one thread's stack; children add their time to it."""

    __slots__ = ("span_id", "child", "intervals")

    def __init__(self, span_id: int, intervals: list | None = None):
        self.span_id = span_id
        self.child = 0.0
        # run_job frames collect child intervals instead, because their
        # children also run on pool threads and overlap each other
        self.intervals = intervals


class _Batch:
    __slots__ = ("span_id", "start", "end", "busy", "child", "max_group")

    def __init__(self, span_id: int, start: float):
        self.span_id = span_id
        self.start = self.end = start
        self.busy = self.child = 0.0
        self.max_group = 0


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.stage_rows: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op: int | None = None
        self._gc_start = 0.0
        self._op_ids = itertools.count(1)

    # ---------------------------------------------------------------- spans

    def _stack(self) -> list[_Frame]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _record(self, span_id, parent, name, layer, start, end, self_s):
        self.spans.append((span_id, parent, self._op, name, layer, start, end, self_s))

    def _count(self, key: str, n: float) -> None:
        with self._lock:
            self.counts[key] += n

    @contextlib.contextmanager
    def span(self, name: str, layer: str, intervals: list | None = None):
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Frame(next(self._ids), intervals)
        stack.append(frame)
        start = perf_counter()
        try:
            yield frame
        finally:
            end = perf_counter()
            stack.pop()
            covered = frame.child + (_union_length(intervals) if intervals else 0.0)
            self._record(
                frame.span_id, parent.span_id if parent else None,
                name, layer, start, end, end - start - covered,
            )
            if parent is not None:
                parent.child += end - start

    @contextlib.contextmanager
    def op(self):
        self._op = next(self._op_ids)
        try:
            with self.span("op", "bench"):
                yield
        finally:
            self._op = None

    # ------------------------------------------------------------- wrappers

    def _wrap_call(self, fn, name: str, layer: str, counter: str | None = None):
        def wrapped(*args, **kwargs):
            with self.span(name, layer):
                out = fn(*args, **kwargs)
            if counter is not None:
                self._count(counter, len(out))
            return out

        return wrapped

    def _wrap_task_fn(self, fn, phase: str, batches: dict):
        """Wrap a map or reduce function; calls aggregate per thread."""
        stack_of = self._stack
        ids = self._ids

        def wrapped(key, value, em):
            tid = threading.get_ident()
            batch = batches.get((phase, tid))
            t0 = perf_counter()
            if batch is None:
                batch = batches[(phase, tid)] = _Batch(next(ids), t0)
            stack = stack_of()
            frame = _Frame(batch.span_id)
            stack.append(frame)
            try:
                fn(key, value, em)
            finally:
                t1 = perf_counter()
                stack.pop()
                batch.end = t1
                batch.busy += t1 - t0
                batch.child += frame.child
                if phase == "reduce" and len(value) > batch.max_group:
                    batch.max_group = len(value)

        return wrapped

    def _wrap_run_job(self, engine: str, run_job):
        def wrapped(job, records, **kwargs):
            batches: dict = {}
            traced_job = dataclasses.replace(
                job,
                map_fn=job.map_fn and self._wrap_task_fn(job.map_fn, "map", batches),
                reduce_fn=job.reduce_fn
                and self._wrap_task_fn(job.reduce_fn, "reduce", batches),
            )
            intervals: list = []
            with self.span(f"run_job:{job.name}", "runtime", intervals) as frame:
                start = perf_counter()
                res = run_job(traced_job, records, **kwargs)
                end = perf_counter()
                for (phase, _tid), b in batches.items():
                    fn = job.map_fn if phase == "map" else job.reduce_fn
                    self._record(
                        b.span_id, frame.span_id, f"{phase}:{job.name}",
                        fn.__module__.rsplit(".", 1)[-1], b.start, b.end,
                        b.busy - b.child,
                    )
                    intervals.append((b.start, b.end))
            self.stage_rows.append(
                _stage_row(engine, job, batches, start, end, res.stats)
            )
            return res

        return wrapped

    def _gc_callback(self, phase: str, info: dict) -> None:
        now = perf_counter()
        if phase == "start":
            self._gc_start = now
            return
        pause = now - self._gc_start
        stack = self._stack()
        if stack:
            top = stack[-1]
            if top.intervals is not None:
                top.intervals.append((self._gc_start, now))
            else:
                top.child += pause
        if self._op is not None:
            self.counts["gc.pause_s"] += pause
            if info["generation"] == 2:
                self.counts["gc.gen2"] += 1
                self._record(
                    next(self._ids), stack[-1].span_id if stack else None,
                    "gc.gen2", "gc", self._gc_start, now, pause,
                )

    @contextlib.contextmanager
    def installed(self):
        """Swap the wrappers into the engine modules for the duration."""
        patches = []
        for engine in STAGES:
            module = getattr(stargraph, engine)
            patches.append((module, "run_job", self._wrap_run_job(engine, module.run_job)))
            patches.append((module, "preprocess", self._wrap_call(module.preprocess, "preprocess", "embedding")))
            patches.append((
                module, "answers_from_records",
                self._wrap_call(module.answers_from_records, "answers_from_records", "evalcore", "answers"),
            ))
        for module in (stargraph.stars, stargraph.redundancy, stargraph.oracle):
            patches.append((
                module, "enumerate_total",
                self._wrap_call(module.enumerate_total, "enumerate_total", "embedding", "embedding.total_embeddings"),
            ))
        q = stargraph.qejpe
        patches.append((
            q, "enumerate_useful_partial",
            self._wrap_call(q.enumerate_useful_partial, "enumerate_useful_partial", "embedding", "embedding.fragments"),
        ))
        patches.append((
            q, "totals_from_fragments",
            self._wrap_call(q.totals_from_fragments, "totals_from_fragments", "embedding", "embedding.totals"),
        ))
        r = stargraph.redundancy
        patches.append((
            r, "validate_decomposition",
            self._wrap_call(r.validate_decomposition, "validate_decomposition", "decompose"),
        ))
        originals = [(m, name, getattr(m, name)) for m, name, _ in patches]
        for m, name, fn in patches:
            setattr(m, name, fn)
        gc.callbacks.append(self._gc_callback)
        try:
            yield self
        finally:
            gc.callbacks.remove(self._gc_callback)
            for m, name, fn in originals:
                setattr(m, name, fn)

    # -------------------------------------------------------------- metrics

    def metrics(self, state, overhead_s: float) -> dict[str, float]:
        """Per-layer metrics from the recorded spans, stage rows and counts."""
        duration = defaultdict(float)
        self_in_ops = defaultdict(float)
        for _id, _parent, op, name, layer, start, end, self_s in self.spans:
            duration[name] += end - start
            if op is not None:
                self_in_ops[layer] += self_s
        m: dict[str, float] = {
            metric: duration[name] for metric, name in SETUP_SPANS.items()
        }
        graph = state.graph
        m["partition.replication"] = sum(len(s) for s in state.node.segments) / len(graph)
        m["partition.border_nodes"] = len(frozenset().union(*state.node.borders))
        m["decompose.s"] = duration["decompose"]
        for name, (time_metric, count_metric) in CALL_METRICS.items():
            m[time_metric] = duration[name]
            m[count_metric] = self.counts[count_metric]
        m["embedding.useful_ratio"] = _ratio(
            self.counts["embedding.totals"], self.counts["embedding.fragments"]
        )
        sums: dict[tuple[str, str], dict[str, float]] = {}
        for row in self.stage_rows:
            acc = sums.setdefault((row["engine"], row["stage"]), defaultdict(float))
            for field in STAGE_FIELDS:
                if field == "max_group":
                    acc[field] = max(acc[field], row[field])
                elif field != "share":
                    acc[field] += row[field]
            acc["wall"] += row["wall"]
        for engine, stages in STAGES.items():
            engine_s = duration[engine]
            for stage in stages:
                acc = sums.get((engine, stage), defaultdict(float))
                acc["share"] = _ratio(acc["wall"], engine_s)
                for field in STAGE_FIELDS:
                    m[f"runtime.{engine}.{stage}.{field}"] = acc[field]
        completion = [a for (_e, st), a in sums.items() if st == "complete-borders"]
        m["evalcore.completion_fanout"] = _ratio(
            sum(a["records_out"] for a in completion),
            sum(a["records_in"] for a in completion),
        )
        joins = [a for (_e, st), a in sums.items() if st == "join-answers"]
        m["evalcore.join_selectivity"] = _ratio(
            self.counts["answers"], sum(a["records_in"] for a in joins)
        )
        m["gc.gen2"] = self.counts["gc.gen2"]
        m["gc.pause_s"] = self.counts["gc.pause_s"]
        for layer in LAYERS:
            m[f"{layer}.self_s"] = (
                self.counts["gc.pause_s"] if layer == "gc" else self_in_ops[layer]
            )
        m["trace.overhead_s"] = overhead_s
        m["trace.spans"] = len(self.spans)
        m["bench.self_s"] = self_in_ops["bench"]
        return m

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "parent", "op", "name", "layer", "start", "end", "self_s")
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(dict(zip(keys, span))) + "\n")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _stage_row(engine, job, batches, start, end, stats) -> dict:
    """Phase boundaries of one run_job call, from its wrapped calls."""
    maps = [b for (phase, _), b in batches.items() if phase == "map"]
    reduces = [b for (phase, _), b in batches.items() if phase == "reduce"]
    map_end = max((b.end for b in maps), default=start)
    map_s = map_end - min(b.start for b in maps) if maps else 0.0
    if job.reduce_fn is None:
        shuffle_s = reduce_s = 0.0
        sort_s = end - map_end
    elif reduces:
        first = min(b.start for b in reduces)
        last = max(b.end for b in reduces)
        shuffle_s, reduce_s, sort_s = first - map_end, last - first, end - last
    else:
        shuffle_s, reduce_s, sort_s = end - map_end, 0.0, 0.0
    return {
        "engine": engine,
        "stage": job.name,
        "wall": end - start,
        "map_s": map_s,
        "shuffle_s": shuffle_s,
        "reduce_s": reduce_s,
        "output_sort_s": sort_s,
        "records_in": stats["recordsIn"],
        "records_out": stats["recordsOut"],
        "distinct_keys": stats["distinctKeys"],
        "max_group": max((b.max_group for b in reduces), default=0),
    }


def why_checks(workload, m: dict[str, float]) -> list[tuple[str, float, bool]]:
    """Does the split confirm the workload's stated reason? (claim, share, ok)"""
    if workload.name == "hub-star":
        share = m["runtime.qejpe.useful-partials.share"]
        return [("useful-partials share of qejpe_s", share, share > 0.5)]
    if workload.name == "border-completion":
        out = []
        for engine in STAGES:
            share = (
                m[f"runtime.{engine}.complete-borders.share"]
                + m[f"runtime.{engine}.join-answers.share"]
            )
            out.append((f"complete-borders + join-answers share of {engine}_s", share, share > 0.5))
        return out
    return []


def traced_run(workload, seed: int, out_dir: Path) -> dict:
    """Set up traced, then answer the query list untraced, traced, untraced."""
    inputs = bench.make_inputs(workload, seed)
    tracer = Tracer()
    with tracer.installed():
        state = bench.setup(inputs, tracer)
    tally = bench.Tally()
    reference: dict[int, str] = {}
    # untraced rounds on both sides of the traced one, so drift cancels
    before = bench.run_round(workload, state, inputs.queries, reference, tally)
    with tracer.installed():
        traced = bench.run_round(
            workload, state, inputs.queries, reference, tally, tracer
        )
    after = bench.run_round(workload, state, inputs.queries, reference, tally)
    untraced_s = (sum(before.values()) + sum(after.values())) / 2
    traced_s = sum(traced.values())
    overhead = traced_s - untraced_s
    m = tracer.metrics(state, overhead)
    tracer.write(out_dir / f"spans-{workload.name}-seed{seed}.jsonl")
    units = per_layer_units()
    report = [
        f"traced run: workload {workload.name} seed {seed}, "
        f"{len(inputs.queries)} queries; untraced, traced, untraced round",
        f"  untraced {untraced_s:.4f} s (mean of two), traced {traced_s:.4f} s, "
        f"overhead {overhead:.4f} s, {len(tracer.spans)} spans",
        "  layer self time inside ops (s):",
        *(f"    {layer:<11} {m[f'{layer}.self_s']:10.4f}" for layer in LAYERS),
        f"    {'(bench)':<11} {m['bench.self_s']:10.4f}",
        "  per-layer metrics:",
        *(f"    {name:<48} {m[name]:14.6f} {unit}" for name, unit in units.items()),
    ]
    for claim, share, ok in why_checks(workload, m):
        report.append(f"  why-check {'PASS' if ok else 'FAIL'}: {claim} = {share:.3f} (> 0.5)")
    return {
        "report": report,
        "correct": tally.failed == 0 and tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": m[name], "unit": unit} for name, unit in units.items()},
    }
