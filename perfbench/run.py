"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload hub-star --seed 1 --seconds 20 --trace 0

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the result holds the end-to-end metrics of BENCHMARK.json; with
``--trace 1`` a separate traced run reports the per-layer metrics and writes
its spans to ``perfbench/out/``. The last line of standard output is the
result object; the lines before it are a readable report.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = Path(__file__).resolve().parent / "out"
# small graphs set up in a tenth of a second, too briefly for three samples
# to agree between runs, so set-up repeats until a second has been timed
SETUP_REPEATS = 3
SETUP_SECONDS = 1.0


def _import_program():
    if not (SRC / "stargraph" / "__init__.py").is_file():
        sys.exit(f"error: no stargraph sources under {SRC}; run from a checkout")
    sys.path.insert(0, str(SRC))


def measure(workload, seed: int, seconds: float) -> dict:
    """Untraced run: the end-to-end metrics of BENCHMARK.json.

    ``setup_s`` is the median of the set-ups, the per-engine times the
    lower quartile of the rounds, ``op_p50_ms`` the median over every engine
    op of the run. Every time is scaled by ``bench.host_scale`` to the
    reference host speed; the report also prints the raw figures.
    """
    import bench

    inputs = bench.make_inputs(workload, seed)
    state, raw_setups, setup_scales = bench.timed_setups(
        inputs, SETUP_REPEATS, SETUP_SECONDS
    )
    setup_times = [t * k for t, k in zip(raw_setups, setup_scales)]
    tally = bench.Tally()
    reference: dict[int, str] = {}
    rounds: list[dict[str, float]] = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < seconds:
        rounds.append(
            bench.run_round(workload, state, inputs.queries, reference, tally)
        )
    scaled = [
        {e: t * k for e, t in r.items()} for r, k in zip(rounds, tally.scales)
    ]
    ops = [dt for e in bench.ENGINES for dt in tally.latencies[e]]
    metrics = {
        "setup_s": (statistics.median(setup_times), "s", len(setup_times)),
        # lower quartile of the rounds: the host alternates between a fast
        # and a slow state (NOTES.md), and this varies least between runs
        **{
            f"{e}_s": (bench.lower_quartile([r[e] for r in scaled]), "s", len(rounds))
            for e in ("oracle",) + bench.ENGINES
        },
        "op_p50_ms": (
            statistics.median(ops) * 1000 if ops else float("nan"),
            "ms",
            len(ops),
        ),
        "peak_rss_mb": (bench.peak_rss_mb(), "MB", 1),
    }
    report = [
        f"workload {workload.name} seed {seed}: {len(inputs.queries)} queries, "
        f"{workload.triples} triples, {workload.method}, workers={workload.workers}, "
        f"{len(rounds)} rounds",
        *(f"  {name:<14} {v:12.6f} {unit:<3} (n={n})" for name, (v, unit, n) in metrics.items()),
        "  times above are scaled to the reference host speed; per-engine "
        "times are the rounds' lower quartile",
        f"  host probe median {statistics.median(tally.probes) * 1000:.4f} ms "
        f"(reference {bench.PROBE_REF_S * 1000:.4f} ms, {len(tally.probes)} probes); "
        f"round scales {min(tally.scales):.4f}..{max(tally.scales):.4f}; "
        f"raw set-up median {statistics.median(raw_setups):.6f} s",
        "  raw round medians: "
        + ", ".join(
            f"{e} {statistics.median(r[e] for r in rounds):.6f} s"
            for e in ("oracle",) + bench.ENGINES
        ),
        f"  op_p90_ms      {bench.percentile(ops, 90) * 1000 if ops else float('nan'):12.6f} ms"
        f"  (n={len(ops)}, {max(0, len(ops) - int(0.9 * len(ops)))} samples above p90)",
        f"  failed_ratio   {tally.failed / tally.attempted:12.6f}     "
        f"({tally.failed} of {tally.attempted} ops; {tally.mismatches} mismatches; "
        f"errors {tally.errors or 'none'})",
        f"  gc gen-2 collections inside {tally.ops_timed} timed ops: {tally.gen2_in_ops}",
        *(
            f"  round {i} (scale {k:.4f}): "
            + ", ".join(f"{e} {t:.4f} s" for e, t in r.items())
            for i, (r, k) in enumerate(zip(rounds, tally.scales), 1)
        ),
    ]
    return {
        "report": report,
        "correct": tally.failed == 0 and tally.mismatches == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _n) in metrics.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    import bench

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(bench.WORKLOADS)}")
    if args.trace:
        import spans

        result = spans.traced_run(workload, args.seed, OUT_DIR)
    else:
        result = measure(workload, args.seed, args.seconds)
    for line in result.pop("report"):
        print(line)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
