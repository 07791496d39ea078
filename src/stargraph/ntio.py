"""Reading and writing the on-disk formats.

Data and query files use one triple per line, N-Triples style:

    <Article1> <hasAuthor> <Person1> .
    ?A <title> ?T .

IRIs are angle-bracketed, literals double-quoted (escapes: \\" and \\\\ only),
variables start with '?'. ``_TERM`` is the one grammar of a term token: a
triple line's three terms, a token of an answers file, a node file or a
node assignment, and a plan's centre all parse by it, and a token it does
not match whole is a MalformedLine. ``_content_lines`` is the one line loop
of data, query, node and assignment files: it skips blank lines and
full-line comments, which start with '#'. Serialization is canonical:
sorted, deduplicated, newline-terminated, so parse(serialize(x)) is the
identity on every graph and query.

A partition directory holds segment-NN.nt files, one .border file per segment
(border node tokens, one per line), a .repl file per segment when the split
was node-based (replicated node tokens; present but possibly empty), and a
manifest.json with {method, seed, segments, created}. ``write_segments``
removes the segment files of an earlier partition that it does not
overwrite. ``read_segments`` accepts exactly the manifest's segment files
and checks both kinds of node file against the segments: the .border files
against the recomputed borders, the .repl files by routing the union of the
segments from the blocks they imply and comparing the result with the
stored segments and ``replicated``.
"""

from __future__ import annotations

import json
import os
import re
import time
from pathlib import Path
from typing import Iterable

from .errors import (
    MalformedLine,
    NotADecomposition,
    NotAPartition,
    ParseError,
    UnwritableOutput,
)
from .model import (
    DataDecomposition,
    DataGraph,
    DataTriple,
    Query,
    QueryDecomposition,
    Term,
    TriplePattern,
    iri,
    literal,
    star_centers,
    variable,
)

__all__ = [
    "term_from_token",
    "parse_data",
    "parse_query",
    "load_data",
    "load_query",
    "serialize_graph",
    "write_text",
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
_TERM_RE = re.compile(_TERM)
_ESCAPE_RE = re.compile(r"\\(.)")


def _unescape_literal(body: str, line: int | None) -> str:
    """A literal's lexical form. The grammar pairs every backslash in
    ``body`` with the one character after it; only \\" and \\\\ are escapes."""

    def unescape(m: re.Match) -> str:
        if m[1] not in '"\\':
            raise MalformedLine("bad escape in literal", line)
        return m[1]

    return _ESCAPE_RE.sub(unescape, body)


def term_from_token(tok: str, line: int | None = None) -> Term:
    """Parse a single term token, by the grammar of a triple line's terms."""
    if not _TERM_RE.fullmatch(tok):
        raise MalformedLine(f"bad term token {tok!r}", line)
    return _matched_term(tok, line)


def _matched_term(tok: str, line: int | None) -> Term:
    """A token that _TERM matched whole. Its shape is checked already: an
    IRI body holds no angle bracket and nothing ``str.isspace`` accepts,
    because ``\\s`` matches exactly those code points."""
    first = tok[0]
    if first == "<":
        return iri(tok[1:-1])
    if first == "?":
        return variable(tok[1:])
    return literal(_unescape_literal(tok[1:-1], line))


def _parse_line(text: str, line: int, *, as_query: bool):
    """The triple on ``line``. The triple's constructor checks its terms'
    positions; its error comes back with the line number."""
    m = _LINE_RE.match(text)
    if not m:
        raise MalformedLine(f"does not match the triple grammar: {text.strip()!r}", line)
    s = _matched_term(m.group("s"), line)
    p = _matched_term(m.group("p"), line)
    o = _matched_term(m.group("o"), line)
    try:
        return TriplePattern(s, p, o) if as_query else DataTriple(s, p, o)
    except ParseError as exc:
        raise type(exc)(str(exc), line) from None


def _content_lines(text: str):
    """Each (line number, line) of ``text`` that is neither blank nor a
    ``#`` comment."""
    for idx, raw in enumerate(text.splitlines(), start=1):
        stripped = raw.strip()
        if not stripped or stripped.startswith("#"):
            continue
        yield idx, raw


def parse_data(text: str) -> DataGraph:
    triples = [
        _parse_line(raw, idx, as_query=False) for idx, raw in _content_lines(text)
    ]
    return DataGraph(triples)


def parse_query(text: str) -> Query:
    patterns = [
        _parse_line(raw, idx, as_query=True) for idx, raw in _content_lines(text)
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


def _unwritable(path: str | Path, exc: OSError) -> UnwritableOutput:
    return UnwritableOutput(f"cannot write {path}: {exc.strerror or exc}")


def write_text(path: str | Path, text: str) -> None:
    """Write a UTF-8 output file; an unwritable path is UnwritableOutput."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _unwritable(path, exc) from exc


def load_data(path: str | Path) -> DataGraph:
    return parse_data(_read_text(path))


def load_query(path: str | Path) -> Query:
    return parse_query(_read_text(path))


def serialize_graph(g: DataGraph) -> str:
    return "".join(t.token() + "\n" for t in g.canonical)


# --------------------------------------------------------------- partitions


def _segment_stem(i: int, total: int) -> str:
    width = max(2, len(str(total - 1)))
    return f"segment-{i:0{width}d}"


def _created_stamp() -> str:
    epoch = os.environ.get("SOURCE_DATE_EPOCH")
    t = int(epoch) if epoch else int(time.time())
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(t))


def write_segments(dec: DataDecomposition, outdir: str | Path) -> None:
    """Write ``dec`` as a partition directory. Segment files that an earlier
    partition left there and this one does not write are removed, so the
    directory reads back as ``dec`` alone."""
    out = Path(outdir)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise _unwritable(out, exc) from exc
    m = len(dec.segments)
    stems = [_segment_stem(i, m) for i in range(m)]
    kinds = [".nt", ".border"] + ([".repl"] if dec.replicated is not None else [])
    written = {stem + kind for stem in stems for kind in kinds}
    for old in out.glob("segment-*"):
        if old.suffix in (".nt", ".border", ".repl") and old.name not in written:
            try:
                old.unlink()
            except OSError as exc:
                raise _unwritable(old, exc) from exc
    for i, (stem, seg) in enumerate(zip(stems, dec.segments)):
        write_text(out / f"{stem}.nt", serialize_graph(seg))
        border = "".join(n.token() + "\n" for n in sorted(dec.borders[i]))
        write_text(out / f"{stem}.border", border)
        if dec.replicated is not None:
            repl = "".join(n.token() + "\n" for n in sorted(dec.replicated[i]))
            write_text(out / f"{stem}.repl", repl)
    manifest = {
        "method": dec.method,
        "seed": dec.seed,
        "segments": m,
        "created": _created_stamp(),
    }
    write_text(out / "manifest.json", json.dumps(manifest, indent=2) + "\n")


def _read_node_file(path: Path) -> frozenset[Term]:
    return frozenset(
        term_from_token(raw.strip(), idx)
        for idx, raw in _content_lines(_read_text(path))
    )


def read_segments(indir: str | Path) -> DataDecomposition:
    """Load a partition directory back into a DataDecomposition.

    The directory's ``segment-*.nt`` files must be exactly the manifest's
    segments, and their union is the graph. Without .repl files they are
    an edge partition's segments. With .repl files, segment i's block is
    its non-literal nodes outside its .repl file; the ``DataDecomposition``
    constructor checks that the blocks partition the graph's nodes and
    routes the graph's triples from them, and the routed segments must
    equal the stored ones and each .repl file its segment's ``replicated``
    nodes. Border files are recomputed from the segments and cross-checked
    against the stored ones. Any mismatch means the directory was edited
    by hand.
    """
    src = Path(indir)
    manifest_path = src / "manifest.json"
    if not manifest_path.is_file():
        raise ParseError(f"no manifest.json in {src}")
    manifest = _read_json(manifest_path)
    if not isinstance(manifest, dict) or type(manifest.get("segments")) is not int:
        raise ParseError(f"{manifest_path}: 'segments' must be an integer")
    m = manifest["segments"]
    if m < 1:
        raise ParseError(f"{manifest_path}: 'segments' must be a positive integer")
    stems = [_segment_stem(i, m) for i in range(m)]
    extra = sorted({p.stem for p in src.glob("segment-*.nt")} - set(stems))
    if extra:
        raise ParseError(f"extra segment file {extra[0]}.nt (manifest: {m} segments)")
    segments = []
    stored_borders = []
    repl_sets: list[frozenset[Term]] | None = [] if any(
        src.glob("segment-*.repl")
    ) else None
    for stem in stems:
        nt = src / f"{stem}.nt"
        if not nt.is_file():
            raise ParseError(f"missing segment file {nt.name}")
        segments.append(load_data(nt))
        stored_borders.append(_read_node_file(src / f"{stem}.border"))
        if repl_sets is not None:
            repl_sets.append(_read_node_file(src / f"{stem}.repl"))
    graph = DataGraph(set().union(*(seg.triples for seg in segments)))
    method, seed = str(manifest.get("method", "unknown")), manifest.get("seed")
    if repl_sets is None:
        dec = DataDecomposition(graph, tuple(segments), method=method, seed=seed)
    else:
        blocks = [
            frozenset(n for n in seg.nodes if not n.is_literal) - repl
            for seg, repl in zip(segments, repl_sets)
        ]
        try:
            dec = DataDecomposition(graph, method=method, seed=seed, node_blocks=blocks)
        except NotAPartition as exc:
            raise NotAPartition(f"stored .repl files: {exc}") from None
        if list(dec.segments) != segments:
            raise NotAPartition(
                "stored .repl files: node blocks do not induce the segments"
            )
        if list(dec.replicated) != repl_sets:
            raise NotAPartition("stored .repl files disagree with the replicated nodes")
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
    """Serialize a query decomposition to JSON: its method, query and
    subqueries. The evaluation layout is derived again on load."""
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
    }
    if path is not None:
        write_text(path, json.dumps(doc, indent=2) + "\n")
    return doc


def _query_from_tokens(tokens, what: str) -> Query:
    if not isinstance(tokens, list) or not all(isinstance(t, str) for t in tokens):
        raise ParseError(f"plan {what} must be a list of triple pattern strings")
    return Query(
        _parse_line(tok, idx, as_query=True) for idx, tok in enumerate(tokens, 1)
    )


def read_plan(source: str | Path | dict, query: Query | None = None):
    """Load a plan written by write_plan.

    When ``query`` is given, the plan must decompose exactly that query. A
    subquery's center, when given, must be a star centre of it: a node that
    every one of its triples holds.
    """
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
        center = term_from_token(c) if c is not None else None
        if center is not None and center not in star_centers(subqueries[-1]):
            raise NotADecomposition(
                f"plan subquery {i}: center {center.token()} is not a star centre"
            )
        centers.append(center)
    return QueryDecomposition(
        query=plan_query,
        subqueries=tuple(subqueries),
        centers=tuple(centers),
        method=str(doc.get("method", "imported")),
    )
