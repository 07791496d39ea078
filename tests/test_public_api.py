"""The public API resolves, and no module keeps an import it does not use.

No linter ships with the project, so the unused-import check is a small
stdlib ``ast`` scan: deleting code must also delete the imports that only
that code needed.
"""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import stargraph as sg

SOURCES = sorted(Path(sg.__file__).parent.glob("*.py"))
SUBMODULES = sorted(m.name for m in pkgutil.iter_modules(sg.__path__))


@pytest.mark.parametrize(
    "name", ["stargraph"] + [f"stargraph.{m}" for m in SUBMODULES]
)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), f"{name}.__all__ repeats a name"
    missing = [n for n in exported if not hasattr(module, n)]
    assert not missing, f"{name}.__all__ names what it does not define: {missing}"


def _exported(tree: ast.Module) -> set[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return set(ast.literal_eval(node.value))
    return set()


def _imported(tree: ast.Module) -> dict[str, int]:
    """Names bound by the module's top-level imports, with their line."""
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    keep = used | _exported(tree)
    return [
        f"line {line}: {name}"
        for name, line in _imported(tree).items()
        if name not in keep
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_scan_catches_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import re\n"
        "from concurrent.futures import ThreadPoolExecutor\n"
        "from .ntio import _TERM, term_from_token as tok\n"
        "from .model import Term\n"
        "__all__ = ['tok']\n"
        "def f(x: Term):\n"
        "    return _TERM\n"
    )
    assert unused_imports(source) == ["line 2: re", "line 3: ThreadPoolExecutor"]
