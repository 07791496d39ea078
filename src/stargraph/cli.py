"""Command line interface.

Subcommands: partition, decompose, eval, oracle, gen. Exit codes: 0 on
success, 2 for parse and usage errors (an unwritable output path among
them), 3 for semantic validation errors, 4 when a resource-limit guard
trips.
"""

from __future__ import annotations

import argparse
import json
import sys

from .decompose import DECOMPOSERS
from .errors import LimitError, ParseError, StarGraphError
from .evalcore import CARTESIAN_CAP
from .gen import generate_graph
from .ntio import (
    load_data,
    load_query,
    read_plan,
    read_segments,
    serialize_graph,
    write_plan,
    write_segments,
    write_text,
)
from .oracle import oracle_answers
from .partition import edge_random_partition, import_partition, vertex_hash_partition
from .qejpe import run_qejpe
from .redundancy import run_redundancy
from .stars import run_stars

ENGINES = {"qejpe": run_qejpe, "stars": run_stars, "redundancy": run_redundancy}

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be a positive integer")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stargraph",
        description="Partition, decompose and evaluate basic graph pattern "
        "queries over segmented data graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_part = sub.add_parser("partition", help="split a data graph into segments")
    p_part.add_argument("input", help="data graph (.nt style triples)")
    p_part.add_argument(
        "--method",
        choices=["edge-random", "vertex-hash", "import"],
        default="edge-random",
    )
    p_part.add_argument("-m", "--segments", type=_positive_int, default=2)
    p_part.add_argument("--seed", type=int, default=0)
    p_part.add_argument(
        "--assign",
        help="assignment file for --method import "
        "(triple or node token, TAB, block id)",
    )
    p_part.add_argument("--out", required=True, help="output directory")

    p_dec = sub.add_parser("decompose", help="decompose a query into subqueries")
    p_dec.add_argument("query", help="query file (triple patterns)")
    p_dec.add_argument("--method", choices=sorted(DECOMPOSERS), default="naive")
    p_dec.add_argument("--out", help="plan JSON path (default: stdout)")

    p_eval = sub.add_parser("eval", help="evaluate a query over segments")
    p_eval.add_argument("--data", required=True, help="segment directory")
    p_eval.add_argument("--query", required=True, help="query file")
    p_eval.add_argument(
        "--algorithm", choices=sorted(ENGINES), default="qejpe"
    )
    how = p_eval.add_mutually_exclusive_group()
    how.add_argument("--method", choices=sorted(DECOMPOSERS))
    how.add_argument("--plan", help="plan JSON produced by decompose")
    p_eval.add_argument("--workers", type=_positive_int, default=1)
    p_eval.add_argument("--cartesian-cap", type=_positive_int, default=CARTESIAN_CAP)
    p_eval.add_argument("--out", help="answers TSV path (default: stdout)")
    p_eval.add_argument("--stats", help="stats JSON path")

    p_oracle = sub.add_parser(
        "oracle", help="evaluate a query over one whole graph, no segments"
    )
    p_oracle.add_argument("--graph", required=True)
    p_oracle.add_argument("--query", required=True)
    p_oracle.add_argument("--out", help="answers TSV path (default: stdout)")

    p_gen = sub.add_parser("gen", help="generate a deterministic synthetic graph")
    p_gen.add_argument("--triples", type=_positive_int, required=True)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--nodes", type=_positive_int)
    p_gen.add_argument("--predicates", type=_positive_int)
    p_gen.add_argument("--literal-ratio", type=float, default=0.15)
    p_gen.add_argument("--out", help="graph path (default: stdout)")
    return parser


def _emit(text: str, out: str | None) -> None:
    if out:
        write_text(out, text)
    else:
        sys.stdout.write(text)


def _cmd_partition(args) -> int:
    g = load_data(args.input)
    if args.method == "import":
        if not args.assign:
            raise ParseError("--method import needs --assign FILE")
        dec = import_partition(args.assign, g)
    elif args.method == "edge-random":
        dec = edge_random_partition(g, args.segments, args.seed)
    else:
        dec = vertex_hash_partition(g, args.segments, args.seed)
    write_segments(dec, args.out)
    sizes = "/".join(str(len(s)) for s in dec.segments)
    print(
        f"{dec.method}: {len(dec)} segments ({sizes} triples) -> {args.out}",
        file=sys.stderr,
    )
    return 0


def _cmd_decompose(args) -> int:
    q = load_query(args.query)
    dec = DECOMPOSERS[args.method](q)
    plan = write_plan(dec, args.out)
    if not args.out:
        sys.stdout.write(json.dumps(plan, indent=2) + "\n")
    sizes = "/".join(str(len(s)) for s in dec.subqueries)
    print(
        f"{args.method}: {len(dec.subqueries)} subqueries ({sizes} triples)",
        file=sys.stderr,
    )
    return 0


def _cmd_eval(args) -> int:
    data = read_segments(args.data)
    query = load_query(args.query)
    if args.plan:
        dec = read_plan(args.plan, query)
    else:
        dec = DECOMPOSERS[args.method or "naive"](query)
    engine = ENGINES[args.algorithm]
    result = engine(
        data,
        query,
        dec,
        workers=args.workers,
        cartesian_cap=args.cartesian_cap,
    )
    _emit(result.answers.to_tsv(), args.out)
    if args.stats:
        stats = {
            "algorithm": result.algorithm,
            "workers": result.workers,
            "stages": result.stats,
            "subqueryEmbeddings": {
                f"Q{i + 1}": n for i, n in sorted(result.subquery_embeddings.items())
            },
            "answers": len(result.answers.rows),
        }
        write_text(args.stats, json.dumps(stats, indent=2) + "\n")
    wall = sum(s["wallMillis"] for s in result.stats)
    print(
        f"{result.algorithm}: {len(result.answers.rows)} answer(s), "
        f"{len(dec.subqueries)} subqueries, {len(data)} segments, "
        f"{args.workers} worker(s), {wall} ms",
        file=sys.stderr,
    )
    return 0


def _cmd_oracle(args) -> int:
    g = load_data(args.graph)
    q = load_query(args.query)
    answers = oracle_answers(q, g)
    _emit(answers.to_tsv(), args.out)
    print(f"oracle: {len(answers.rows)} answer(s)", file=sys.stderr)
    return 0


def _cmd_gen(args) -> int:
    g = generate_graph(
        args.triples,
        nodes=args.nodes,
        predicates=args.predicates,
        literal_ratio=args.literal_ratio,
        seed=args.seed,
    )
    _emit(serialize_graph(g), args.out)
    print(f"gen: {len(g.triples)} triples, seed {args.seed}", file=sys.stderr)
    return 0


_COMMANDS = {
    "partition": _cmd_partition,
    "decompose": _cmd_decompose,
    "eval": _cmd_eval,
    "oracle": _cmd_oracle,
    "gen": _cmd_gen,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except LimitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except StarGraphError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
