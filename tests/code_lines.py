"""Count the code lines of the ``stargraph`` package.

A line counts when it holds a token other than a comment, NL, NEWLINE,
INDENT or DEDENT, and that token is not a module, class or function
docstring. Blank lines, comment lines and docstring lines therefore do not
count; a line that a multi-line token (a long string, say) runs through
counts once, at the token's first line.

Run it from the repository root:

    python tests/code_lines.py [package directory]

It prints one line per module and the total, default ``src/stargraph``.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_SKIPPED = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
}
_DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def _docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring in ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, _DOCUMENTED) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                starts.add((first.lineno, first.col_offset))
    return starts


def count_code_lines(source: str) -> int:
    """The number of code lines in Python ``source``."""
    docstrings = _docstring_starts(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in _SKIPPED or (
            tok.type == tokenize.STRING and tok.start in docstrings
        ):
            continue
        lines.add(tok.start[0])
    return len(lines)


def count_package(root: Path) -> dict[str, int]:
    """Each module's code lines under ``root``, by path relative to it."""
    return {
        str(path.relative_to(root)): count_code_lines(path.read_text(encoding="utf-8"))
        for path in sorted(root.rglob("*.py"))
    }


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/stargraph")
    counts = count_package(root)
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:>5}")
    print(f"{'total':<{width}}  {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
