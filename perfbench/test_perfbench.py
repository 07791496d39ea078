"""Tests of the benchmark's own code, at tiny sizes, through the same paths.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys

import pytest

import run

run._import_program()

import bench  # noqa: E402
import spans  # noqa: E402
import stargraph as sg  # noqa: E402
import stargraph.qejpe  # noqa: E402
import stargraph.runtime  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny(name: str) -> bench.Workload:
    return dataclasses.replace(bench.WORKLOADS[name], triples=400, queries=4)


def test_workloads_match_the_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench.WORKLOADS)
    for entry in SPEC["workloads"]:
        assert entry["why"] == bench.WORKLOADS[entry["name"]].why


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_end_to_end_metrics_print_with_units(name):
    result = run.measure(tiny(name), seed=5, seconds=0)
    expected = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    report = "\n".join(result["report"])
    for metric, unit in expected.items():
        value = result["metrics"][metric]["value"]
        assert math.isfinite(value) and value > 0, metric
        assert f"{metric} " in report and f" {unit} " in report
    assert "samples above p90" in report and "failed_ratio" in report
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_per_layer_metrics_print_with_units(name, tmp_path):
    result = spans.traced_run(tiny(name), seed=5, out_dir=tmp_path)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert spans.per_layer_units() == expected
    report = "\n".join(result["report"])
    for metric, unit in expected.items():
        assert math.isfinite(result["metrics"][metric]["value"])
        assert f"{metric} " in report
    assert result["correct"]
    lines = (tmp_path / f"spans-{name}-seed5.jsonl").read_text().splitlines()
    assert len(lines) == result["metrics"]["trace.spans"]["value"] > 0


def test_traced_run_restores_the_program(tmp_path):
    before = stargraph.qejpe.run_job
    spans.traced_run(tiny("hub-star"), seed=2, out_dir=tmp_path)
    assert stargraph.qejpe.run_job is before is stargraph.runtime.run_job


def test_traced_split_accounts_for_stage_work(tmp_path):
    m = {
        k: v["value"]
        for k, v in spans.traced_run(tiny("hub-star"), seed=3, out_dir=tmp_path)[
            "metrics"
        ].items()
    }
    assert m["runtime.qejpe.useful-partials.distinct_keys"] == 1
    assert m["runtime.qejpe.useful-partials.max_group"] == m["embedding.fragments"]
    assert m["embedding.totals"] == m["runtime.qejpe.useful-partials.records_out"]
    assert 0 < m["runtime.qejpe.useful-partials.share"] <= 1


def _round_with(engines, name="selective-mix"):
    workload = tiny(name)
    inputs = bench.make_inputs(workload, seed=7)
    state = bench.setup(inputs)
    tally = bench.Tally()
    bench.run_round(workload, state, inputs.queries, {}, tally, engines=engines)
    return tally, len(inputs.queries)


def test_gate_counts_altered_answers_as_failed():
    def dropped_row(data, query, dec, workers):
        res = sg.run_qejpe(data, query, dec, workers=workers)
        res.answers = sg.AnswerSet(res.answers.variables, res.answers.rows[1:])
        return res

    engines = dict(bench.DEFAULT_ENGINES, qejpe=dropped_row)
    tally, queries = _round_with(engines)
    assert tally.attempted == 3 * queries
    assert tally.failed == tally.mismatches == queries
    assert len(tally.latencies["qejpe"]) == 0
    assert len(tally.latencies["stars"]) == queries


def test_gate_counts_exceptions_by_type():
    def capped(data, query, dec, workers):
        raise sg.CartesianCapExceeded("cap")

    engines = dict(bench.DEFAULT_ENGINES, stars=capped)
    tally, queries = _round_with(engines)
    assert tally.failed == queries and tally.mismatches == 0
    assert tally.errors == {"CartesianCapExceeded": queries}


def test_times_are_scaled_by_the_host_probe(monkeypatch):
    monkeypatch.setattr(bench, "host_probe", lambda: 2 * bench.PROBE_REF_S)
    workload = tiny("selective-mix")
    inputs = bench.make_inputs(workload, seed=7)
    state = bench.setup(inputs)
    tally = bench.Tally()
    raw = bench.run_round(workload, state, inputs.queries, {}, tally)
    assert tally.scales == [0.5]
    assert sum(tally.latencies["qejpe"]) == pytest.approx(raw["qejpe"] * 0.5)


def test_inputs_depend_on_the_seed_alone():
    workload = tiny("border-completion")
    a, b = bench.make_inputs(workload, 11), bench.make_inputs(workload, 11)
    assert a.text == b.text and a.queries == b.queries
    assert a.partition_seed == b.partition_seed
    c = bench.make_inputs(workload, 12)
    assert c.text != a.text


def test_anchored_queries_keep_their_constant_in_every_subquery():
    graph = sg.generate_graph(2000, seed=4)
    for q in bench.anchored_queries(graph, 8, seed=4):
        assert len(q) == 3 and len(q.constants) == 1
        layout = sg.preprocess(sg.min_res_decomposition(q))
        assert layout.missing_border == ()


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(
        run.ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "hub-star",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout
