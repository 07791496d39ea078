"""Exception taxonomy.

Every error raised by the library derives from StarGraphError so the CLI can
map failures onto its exit codes: parse and usage problems exit 2, semantic
validation failures exit 3, resource-limit guards exit 4.
"""

from __future__ import annotations

__all__ = [
    "StarGraphError",
    "ParseError",
    "MalformedLine",
    "LiteralSubject",
    "VariablePredicate",
    "VariableInData",
    "EmptyGraph",
    "EmptyQuery",
    "UnwritableOutput",
    "ValidationError",
    "NotAPartition",
    "NotANodeCover",
    "NotADecomposition",
    "NotSoDecomposition",
    "NotAnSDecomposition",
    "UnknownTriple",
    "MissingTriple",
    "TooManySegments",
    "LimitError",
    "SearchSpaceTooLarge",
    "CartesianCapExceeded",
    "RuntimeFailure",
    "MapFnError",
    "ReduceFnError",
    "UnorderableRecords",
]


class StarGraphError(Exception):
    """Base class for all library errors."""


# ---------------------------------------------------------------- parse (exit 2)


class ParseError(StarGraphError):
    """Input text could not be parsed."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class MalformedLine(ParseError):
    """A line does not match the triple grammar."""


class LiteralSubject(ParseError):
    """A literal appeared in subject position."""


class VariablePredicate(ParseError):
    """A variable appeared in predicate position."""


class VariableInData(ParseError):
    """A variable appeared in a data file."""


class EmptyGraph(ParseError):
    """A data graph must contain at least one triple."""


class EmptyQuery(ParseError):
    """A query must contain at least one triple pattern."""


class UnwritableOutput(ParseError):
    """An output path cannot be written; like a bad argument, a usage error."""


# ----------------------------------------------------------- semantic (exit 3)


class ValidationError(StarGraphError):
    """A structural precondition does not hold."""


class NotAPartition(ValidationError):
    """Node blocks do not partition the graph's non-literal nodes."""


class NotANodeCover(ValidationError):
    """The given node set leaves some triple pattern uncovered."""


class NotADecomposition(ValidationError):
    """Subqueries are empty or do not union to the query."""


class NotSoDecomposition(ValidationError):
    """An evaluation strategy required every subquery to be an so-query."""


class NotAnSDecomposition(ValidationError):
    """An evaluation strategy required node-partitioned segments."""


class UnknownTriple(ValidationError):
    """An imported edge assignment names a triple absent from the graph."""


class MissingTriple(ValidationError):
    """An imported edge assignment leaves some triple unassigned."""


class TooManySegments(ValidationError):
    """More segments requested than the graph can populate."""


# -------------------------------------------------------------- limits (exit 4)


class LimitError(StarGraphError):
    """A configured resource guard tripped."""


class SearchSpaceTooLarge(LimitError):
    """Exhaustive subset search would exceed the guard bound."""


class CartesianCapExceeded(LimitError):
    """A reducer-side cartesian product would exceed the cap."""


# ------------------------------------------------------------------- runtime


class RuntimeFailure(StarGraphError):
    """A user function failed inside the dataflow runtime."""

    def __init__(self, stage: str, key: object, cause: BaseException):
        self.stage = stage
        self.key = key
        self.cause = cause
        super().__init__(f"{stage} failed on key {key!r}: {cause!r}")


class MapFnError(RuntimeFailure):
    """Map function raised."""


class ReduceFnError(RuntimeFailure):
    """Reduce function raised."""


class UnorderableRecords(StarGraphError):
    """A stage emitted records that the shuffle cannot put in one order."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        self.cause = cause
        super().__init__(f"{stage}: the shuffle cannot order its records ({cause})")
