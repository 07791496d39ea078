"""Machinery shared by the three distributed evaluation algorithms.

All engines meet in the same final join. Phase 1 differs per algorithm but
always ends with, per subquery, records of two tagged shapes:

    ("e", bnv, nbnv)   a total embedding of the subquery, split into its
                       border-node vector and non-border vector (None marks
                       an unbound position)
    ("v", pos, term)   a candidate value for the border-node position ``pos``,
                       sent to subqueries that do not contain that node

The completion step (the second-phase mapper, run here as a reduce over the
grouping key) dedups both lists, fills every unbound border position of every
embedding from the candidate sets, and emits fully ground border vectors. The
final reducer groups by ground border vector, requires a record from every
subquery, merges the non-border vectors positionally, and projects the query's
output pattern.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from pathlib import Path

from .errors import CartesianCapExceeded
from .model import DataDecomposition, Term
from .ntio import AnswerSet, read_segments
from .embedding import QueryLayout

__all__ = [
    "CARTESIAN_CAP",
    "EvalResult",
    "phase2_expand_fn",
    "reduce2_fn",
    "answers_from_records",
    "coerce_data",
    "phase1_source",
]

CARTESIAN_CAP = 1_000_000


@dataclass
class EvalResult:
    algorithm: str
    answers: AnswerSet
    stats: list[dict] = field(default_factory=list)
    subquery_embeddings: dict[int, int] = field(default_factory=dict)
    workers: int = 1


def coerce_data(data) -> DataDecomposition:
    if isinstance(data, DataDecomposition):
        return data
    return read_segments(Path(data))


def phase1_source(layout: QueryLayout, data: DataDecomposition) -> list[tuple]:
    """Every engine's pipeline input: one ((subquery, segment), None) record
    per pair, for the phase-1 mapper to expand."""
    return [
        ((i, j), None)
        for i in range(len(layout.subqueries))
        for j in range(len(data.segments))
    ]


def _sub_index(key) -> int:
    return key if isinstance(key, int) else key[0]


def phase2_expand_fn(layout: QueryLayout, cap: int = CARTESIAN_CAP):
    """Reduce function that completes starred border positions.

    Keys are either a subquery index or (subquery index, extra grouping);
    values are the tagged records described in the module docstring. Emits
    (ground bnv, (subquery index, nbnv)) pairs.
    """

    def fn(key, values, em):
        sub_idx = _sub_index(key)
        embeddings: list[tuple] = []
        seen_e: set[tuple] = set()
        candidates: dict[int, list[Term]] = {}
        seen_v: set[tuple[int, Term]] = set()
        for val in values:
            tag = val[0]
            if tag == "e":
                pair = (val[1], val[2])
                if pair not in seen_e:
                    seen_e.add(pair)
                    embeddings.append(pair)
            elif tag == "v":
                pv = (val[1], val[2])
                if pv not in seen_v:
                    seen_v.add(pv)
                    candidates.setdefault(val[1], []).append(val[2])
            else:
                raise ValueError(f"unknown phase-2 record tag {tag!r}")
        emitted = 0
        for bnv, nbnv in embeddings:
            holes = [i for i, v in enumerate(bnv) if v is None]
            pools = []
            ok = True
            for i in holes:
                pool = candidates.get(i)
                if not pool:
                    ok = False  # nothing anywhere can ground this position
                    break
                pools.append(pool)
            if not ok:
                continue
            for combo in itertools.product(*pools):
                emitted += 1
                if emitted > cap:
                    raise CartesianCapExceeded(
                        f"border completion for key {key!r} exceeded {cap} records"
                    )
                filled = list(bnv)
                for i, v in zip(holes, combo):
                    filled[i] = v
                em.emit(tuple(filled), (sub_idx, nbnv))

    return fn


def reduce2_fn(layout: QueryLayout, cap: int = CARTESIAN_CAP):
    """Final join: one record per subquery per ground border vector."""
    num_subs = len(layout.subqueries)
    n_border = len(layout.border_nodes)
    out_positions = [layout.node_index[v] for v in layout.query.output_pattern]

    def fn(key, values, em):
        by_sub: dict[int, list[tuple]] = {}
        seen: set[tuple[int, tuple]] = set()
        for sub_idx, nbnv in values:
            mark = (sub_idx, nbnv)
            if mark in seen:
                continue
            seen.add(mark)
            by_sub.setdefault(sub_idx, []).append(nbnv)
        if len(by_sub) < num_subs:
            return
        pools = [by_sub[i] for i in range(num_subs)]
        count = 1
        for pool in pools:
            count *= len(pool)
        if count > cap:
            raise CartesianCapExceeded(
                f"final join for key {key!r} would produce {count} combinations"
            )
        rows: set[tuple] = set()
        for combo in itertools.product(*pools):
            merged: list[Term | None] = [None] * len(layout.nonborder_nodes)
            consistent = True
            for nbnv in combo:
                for i, v in enumerate(nbnv):
                    if v is None:
                        continue
                    if merged[i] is None:
                        merged[i] = v
                    elif merged[i] != v:
                        consistent = False
                        break
                if not consistent:
                    break
            if not consistent:
                continue
            row = []
            for pos in out_positions:
                value = key[pos] if pos < n_border else merged[pos - n_border]
                assert value is not None, "output variable left unbound"
                row.append(value)
            rows.add(tuple(row))
        for row in rows:
            em.emit(row, None)

    return fn


def answers_from_records(layout: QueryLayout, records: list[tuple]) -> AnswerSet:
    return AnswerSet(layout.query.output_pattern, [key for key, _ in records])
