"""Reading and writing the on-disk formats.

Data and query files use one triple per line, N-Triples style:

    <Article1> <hasAuthor> <Person1> .
    ?A <title> ?T .

IRIs are angle-bracketed, literals double-quoted (escapes: \\" and \\\\ only),
variables start with '?'. Full-line comments start with '#'. Serialization is
canonical: sorted, deduplicated, newline-terminated, so parse(serialize(x))
is the identity on every graph and query.

A partition directory holds segment-NN.nt files, one .border file per segment
(border node tokens, one per line), a .repl file per segment when the split
was node-based (replicated node tokens; present but possibly empty), and a
manifest.json with {method, seed, segments, created}.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path
from typing import Iterable

from .errors import (
    LiteralSubject,
    MalformedLine,
    NotADecomposition,
    NotAPartition,
    ParseError,
    VariableInData,
    VariablePredicate,
)
from .model import (
    DataDecomposition,
    DataGraph,
    DataTriple,
    Query,
    Term,
    TriplePattern,
    iri,
    literal,
    variable,
)

__all__ = [
    "term_from_token",
    "parse_data",
    "parse_query",
    "load_data",
    "load_query",
    "serialize_graph",
    "serialize_query",
    "write_segments",
    "read_segments",
    "AnswerSet",
    "write_plan",
    "read_plan",
]

_TERM = r'<[^<>\s]*>|\?[A-Za-z_]\w*|"(?:[^"\\\n]|\\.)*"'
_LINE_RE = re.compile(
    rf"\s*(?P<s>{_TERM})\s+(?P<p>{_TERM})\s+(?P<o>{_TERM})\s*\.\s*$"
)
_VAR_RE = re.compile(r"\?[A-Za-z_]\w*$")


def _unescape_literal(body: str, line: int | None) -> str:
    out = []
    i = 0
    while i < len(body):
        ch = body[i]
        if ch == "\\":
            if i + 1 >= len(body) or body[i + 1] not in ('"', "\\"):
                raise MalformedLine("bad escape in literal", line)
            out.append(body[i + 1])
            i += 2
        else:
            out.append(ch)
            i += 1
    return "".join(out)


def term_from_token(tok: str, line: int | None = None) -> Term:
    """Parse a single term token."""
    if tok.startswith("<") and tok.endswith(">") and "\n" not in tok:
        body = tok[1:-1]
        if "<" in body or ">" in body or any(c.isspace() for c in body):
            raise MalformedLine(f"bad IRI token {tok!r}", line)
        return iri(body)
    if tok.startswith('"') and tok.endswith('"') and len(tok) >= 2:
        return literal(_unescape_literal(tok[1:-1], line))
    if _VAR_RE.match(tok):
        return variable(tok[1:])
    raise MalformedLine(f"bad term token {tok!r}", line)


def _parse_line(text: str, line: int, *, as_query: bool):
    m = _LINE_RE.match(text)
    if not m:
        raise MalformedLine(f"does not match the triple grammar: {text.strip()!r}", line)
    s = term_from_token(m.group("s"), line)
    p = term_from_token(m.group("p"), line)
    o = term_from_token(m.group("o"), line)
    if s.is_literal:
        raise LiteralSubject("literal in subject position", line)
    if p.is_variable:
        raise VariablePredicate("variable in predicate position", line)
    if p.is_literal:
        raise MalformedLine("literal in predicate position", line)
    if as_query:
        return TriplePattern(s, p, o)
    if s.is_variable or o.is_variable:
        raise VariableInData("variable in a data triple", line)
    return DataTriple(s, p, o)


def _iter_triple_lines(text: str):
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield idx, raw


def parse_data(text: str) -> DataGraph:
    triples = [
        _parse_line(raw, idx, as_query=False) for idx, raw in _iter_triple_lines(text)
    ]
    return DataGraph(triples)


def parse_query(text: str) -> Query:
    patterns = [
        _parse_line(raw, idx, as_query=True) for idx, raw in _iter_triple_lines(text)
    ]
    return Query(patterns)


def _read_text(path: str | Path) -> str:
    """Read a UTF-8 input file; an unreadable one is a ParseError."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(
            f"{path}: not UTF-8 text ({exc.reason} at byte {exc.start})"
        ) from exc
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from exc


def _read_json(path: str | Path):
    try:
        return json.loads(_read_text(path))
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"{path}: not valid JSON ({exc.msg}, line {exc.lineno})"
        ) from exc


def load_data(path: str | Path) -> DataGraph:
    return parse_data(_read_text(path))


def load_query(path: str | Path) -> Query:
    return parse_query(_read_text(path))


def serialize_graph(g: DataGraph) -> str:
    return "".join(t.token() + "\n" for t in g.canonical)


def serialize_query(q: Query) -> str:
    return "".join(t.token() + "\n" for t in q.canonical)


# --------------------------------------------------------------- partitions


def _segment_stem(i: int, total: int) -> str:
    width = max(2, len(str(total - 1)))
    return f"segment-{i:0{width}d}"


def _created_stamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def write_segments(dec: DataDecomposition, outdir: str | Path) -> None:
    out = Path(outdir)
    out.mkdir(parents=True, exist_ok=True)
    m = len(dec.segments)
    for i, seg in enumerate(dec.segments):
        stem = _segment_stem(i, m)
        (out / f"{stem}.nt").write_text(serialize_graph(seg), encoding="utf-8")
        border = "".join(n.token() + "\n" for n in sorted(dec.borders[i]))
        (out / f"{stem}.border").write_text(border, encoding="utf-8")
        if dec.replicated is not None:
            repl = "".join(n.token() + "\n" for n in sorted(dec.replicated[i]))
            (out / f"{stem}.repl").write_text(repl, encoding="utf-8")
    manifest = {
        "method": dec.method,
        "seed": dec.seed,
        "segments": m,
        "created": _created_stamp(),
    }
    (out / "manifest.json").write_text(
        json.dumps(manifest, indent=2) + "\n", encoding="utf-8"
    )


def _read_node_file(path: Path) -> frozenset[Term]:
    terms = set()
    for idx, raw in enumerate(_read_text(path).splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        terms.add(term_from_token(stripped, idx))
    return frozenset(terms)


def read_segments(indir: str | Path) -> DataDecomposition:
    """Load a partition directory back into a DataDecomposition.

    Border files are recomputed from the segments and cross-checked against
    the stored ones; a mismatch means the directory was edited by hand.
    """
    src = Path(indir)
    manifest_path = src / "manifest.json"
    if not manifest_path.is_file():
        raise ParseError(f"no manifest.json in {src}")
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict) or type(manifest.get("segments")) is not int:
        raise ParseError(f"{manifest_path}: 'segments' must be an integer")
    m = manifest["segments"]
    segments = []
    stored_borders = []
    repl_sets: list[frozenset[Term]] | None = [] if any(
        src.glob("segment-*.repl")
    ) else None
    for i in range(m):
        stem = _segment_stem(i, m)
        nt = src / f"{stem}.nt"
        if not nt.is_file():
            raise ParseError(f"missing segment file {nt.name}")
        segments.append(load_data(nt))
        stored_borders.append(_read_node_file(src / f"{stem}.border"))
        if repl_sets is not None:
            repl_sets.append(_read_node_file(src / f"{stem}.repl"))
    union = set()
    for seg in segments:
        union |= seg.triples
    node_blocks = None
    if repl_sets is not None:
        node_blocks = tuple(
            frozenset(n for n in seg.nodes if not n.is_literal) - repl
            for seg, repl in zip(segments, repl_sets)
        )
    dec = DataDecomposition(
        graph=DataGraph(union),
        segments=tuple(segments),
        method=str(manifest.get("method", "unknown")),
        seed=manifest.get("seed"),
        node_blocks=node_blocks,
    )
    if list(dec.borders) != stored_borders:
        raise NotAPartition("stored .border files disagree with segment contents")
    return dec


# ------------------------------------------------------------------ answers


class AnswerSet:
    """Distinct, sorted solution rows over a query's output pattern.

    A query with no variables is boolean: the answer set has an empty header
    and either one empty row (satisfiable) or none.
    """

    __slots__ = ("variables", "rows")

    def __init__(self, variables: Iterable[Term], rows: Iterable[tuple[Term, ...]]):
        vs = tuple(variables)
        normalized = sorted(
            {tuple(r) for r in rows}, key=lambda r: tuple(t.key for t in r)
        )
        for r in normalized:
            if len(r) != len(vs):
                raise ValueError("row width does not match the output pattern")
        self.variables = vs
        self.rows = tuple(normalized)

    def to_tsv(self) -> str:
        lines = ["\t".join(v.token() for v in self.variables)]
        for row in self.rows:
            lines.append("\t".join(t.token() for t in row))
        return "\n".join(lines) + "\n"

    @classmethod
    def from_tsv(cls, text: str) -> "AnswerSet":
        lines = text.splitlines()
        if not lines:
            raise ParseError("empty answers file")
        header = lines[0]
        variables = tuple(
            term_from_token(tok, 1) for tok in header.split("\t") if tok
        )
        rows = []
        for idx, raw in enumerate(lines[1:], start=2):
            if not raw:
                if not variables:
                    rows.append(())
                continue
            rows.append(
                tuple(term_from_token(tok, idx) for tok in raw.split("\t"))
            )
        return cls(variables, rows)

    def as_bindings(self) -> frozenset[frozenset]:
        """Rows as sets of (variable, value) pairs, order-insensitive."""
        return frozenset(
            frozenset(zip(self.variables, row)) for row in self.rows
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, AnswerSet):
            return NotImplemented
        return (
            set(self.variables) == set(other.variables)
            and self.as_bindings() == other.as_bindings()
        )

    def __hash__(self) -> int:
        return hash((frozenset(self.variables), self.as_bindings()))

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return f"AnswerSet({len(self.rows)} rows over {len(self.variables)} vars)"


# -------------------------------------------------------------------- plans


def write_plan(dec, path: str | Path | None = None) -> dict:
    """Serialize a query decomposition (with its evaluation layout) to JSON."""
    from .embedding import preprocess

    layout = preprocess(dec)
    doc = {
        "method": dec.method,
        "query": [t.token() for t in dec.query.canonical],
        "subqueries": [
            {
                "center": c.token() if c is not None else None,
                "triples": [t.token() for t in sub.canonical],
            }
            for sub, c in zip(dec.subqueries, dec.centers)
        ],
        "borderNodes": [n.token() for n in layout.border_nodes],
        "nonborderNodes": [n.token() for n in layout.nonborder_nodes],
        "triples": [t.token() for t in layout.triples],
        "commonBorder": [n.token() for n in layout.common_border],
        "missingBorder": [[n.token(), j] for n, j in layout.missing_border],
        "prototypes": [
            {
                "border": "".join("+" if f else "-" for f in proto[0]),
                "nonborder": "".join("+" if f else "-" for f in proto[1]),
                "triples": "".join("+" if f else "-" for f in proto[2]),
            }
            for proto in layout.prototypes
        ],
    }
    if path is not None:
        Path(path).write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    return doc


def _query_from_tokens(tokens, what: str) -> Query:
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ParseError(f"plan {what} must be a list of triple pattern strings")
    return Query(
        _parse_line(tok, idx, as_query=True) for idx, tok in enumerate(tokens, 1)
    )


def read_plan(source: str | Path | dict, query: Query | None = None):
    """Load a plan written by write_plan.

    When ``query`` is given, the plan must decompose exactly that query.
    """
    from .model import QueryDecomposition

    doc = source if isinstance(source, dict) else _read_json(source)
    if not isinstance(doc, dict):
        raise ParseError("a plan must be a JSON object")
    plan_query = _query_from_tokens(doc.get("query"), "'query'")
    if query is not None and query != plan_query:
        raise NotADecomposition("plan was built for a different query")
    entries = doc.get("subqueries")
    if not isinstance(entries, list) or not all(isinstance(e, dict) for e in entries):
        raise ParseError("plan 'subqueries' must be a list of objects")
    subqueries = []
    centers = []
    for i, entry in enumerate(entries, 1):
        subqueries.append(_query_from_tokens(entry.get("triples"), f"subquery {i}"))
        c = entry.get("center")
        if c is not None and not isinstance(c, str):
            raise ParseError(f"plan subquery {i} center must be a term token")
        centers.append(term_from_token(c) if c is not None else None)
    return QueryDecomposition(
        query=plan_query,
        subqueries=tuple(subqueries),
        centers=tuple(centers),
        method=str(doc.get("method", "imported")),
    )
