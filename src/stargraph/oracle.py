"""Single-machine reference evaluation used to cross-check the engines."""

from __future__ import annotations

from .embedding import enumerate_total
from .model import DataGraph, Query
from .ntio import AnswerSet

__all__ = ["oracle_answers"]


def oracle_answers(query: Query, graph: DataGraph) -> AnswerSet:
    """All answers of the query over the whole graph, by direct backtracking."""
    pattern = query.output_pattern
    return AnswerSet(pattern, enumerate_total(query, graph, pattern))

