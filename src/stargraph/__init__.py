"""Distributed evaluation of basic graph pattern queries over segmented graphs.

The library splits an RDF-style data graph into segments, decomposes a query
into star-shaped subqueries, and evaluates the query with shuffle-based
dataflows whose answers are bit-identical to a single-machine evaluation.
"""

from .decompose import (
    DECOMPOSERS,
    DecompositionReport,
    max_degree_decomposition,
    max_degree_redundancy_decomposition,
    max_degree_reshaping_decomposition,
    min_res_decomposition,
    min_subquery_decomposition,
    naive_decomposition,
    star_decomposition_from_cover,
    validate_decomposition,
)
from .embedding import (
    enumerate_total,
    enumerate_useful_partial,
    preprocess,
    QueryLayout,
    totals_from_fragments,
)
from .errors import (
    CartesianCapExceeded,
    LimitError,
    MapFnError,
    ParseError,
    ReduceFnError,
    RuntimeFailure,
    SearchSpaceTooLarge,
    StarGraphError,
    TooManySegments,
    UnorderableRecords,
    ValidationError,
)
from .evalcore import CARTESIAN_CAP, EvalResult
from .gen import generate_graph, generate_query
from .model import (
    DataDecomposition,
    DataGraph,
    DataTriple,
    Query,
    QueryDecomposition,
    Term,
    TermKind,
    TriplePattern,
    iri,
    literal,
    so_centers,
    star_centers,
    variable,
)
from .ntio import (
    AnswerSet,
    load_data,
    load_query,
    parse_data,
    parse_query,
    read_plan,
    read_segments,
    serialize_graph,
    term_from_token,
    write_plan,
    write_segments,
)
from .oracle import oracle_answers
from .partition import (
    edge_random_partition,
    from_edge_assignment,
    import_partition,
    s_decompose,
    vertex_hash_partition,
)
from .qejpe import run_qejpe
from .redundancy import run_redundancy
from .rng import XorShift64Star, fnv1a64
from .runtime import Job, JobResult, run_job
from .stars import run_stars

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "Term",
    "TermKind",
    "iri",
    "literal",
    "variable",
    "DataTriple",
    "TriplePattern",
    "DataGraph",
    "Query",
    "star_centers",
    "so_centers",
    "QueryDecomposition",
    "DataDecomposition",
    "parse_data",
    "parse_query",
    "load_data",
    "load_query",
    "serialize_graph",
    "term_from_token",
    "write_segments",
    "read_segments",
    "write_plan",
    "read_plan",
    "AnswerSet",
    "enumerate_total",
    "enumerate_useful_partial",
    "preprocess",
    "QueryLayout",
    "totals_from_fragments",
    "DECOMPOSERS",
    "DecompositionReport",
    "naive_decomposition",
    "min_res_decomposition",
    "min_subquery_decomposition",
    "max_degree_decomposition",
    "max_degree_redundancy_decomposition",
    "max_degree_reshaping_decomposition",
    "star_decomposition_from_cover",
    "validate_decomposition",
    "edge_random_partition",
    "vertex_hash_partition",
    "s_decompose",
    "import_partition",
    "from_edge_assignment",
    "run_qejpe",
    "run_stars",
    "run_redundancy",
    "CARTESIAN_CAP",
    "EvalResult",
    "oracle_answers",
    "generate_graph",
    "generate_query",
    "XorShift64Star",
    "fnv1a64",
    "Job",
    "JobResult",
    "run_job",
    "StarGraphError",
    "ParseError",
    "ValidationError",
    "LimitError",
    "TooManySegments",
    "SearchSpaceTooLarge",
    "CartesianCapExceeded",
    "RuntimeFailure",
    "MapFnError",
    "ReduceFnError",
    "UnorderableRecords",
]
