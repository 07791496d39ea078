"""The public API resolves, no module keeps an import it does not use, and
no module reads a setting from the environment.

No linter ships with the project, so both source checks are small stdlib
``ast`` scans: deleting code must also delete the imports that only that
code needed, and behaviour is set through parameters, not environment
variables. The one variable read is ``SOURCE_DATE_EPOCH``, the
reproducible-builds convention for manifest timestamps.
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


def environment_reads(source: str) -> list[str]:
    """The names of the environment variables a module reads through
    ``os.environ`` or ``os.getenv``; "?" where the name is not a literal."""
    tree = ast.parse(source)
    parent = {c: n for n in ast.walk(tree) for c in ast.iter_child_nodes(n)}
    names = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "os":
            names += ["?" for a in node.names if a.name in ("environ", "getenv")]
        if not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)
            and node.value.id == "os"
            and node.attr in ("environ", "getenv")
        ):
            continue
        use = parent[node]
        if isinstance(use, ast.Attribute):  # os.environ.get(...) and the like
            use = parent[use]
        if isinstance(use, ast.Subscript):
            name = use.slice
        elif isinstance(use, ast.Call) and use.args:
            name = use.args[0]
        else:
            name = None
        literal = isinstance(name, ast.Constant) and isinstance(name.value, str)
        names.append(name.value if literal else "?")
    return names


def test_no_module_reads_a_setting_from_the_environment():
    reads = {p.name: environment_reads(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert reads["ntio.py"] == ["SOURCE_DATE_EPOCH"]
    assert {
        name: found for name, found in reads.items()
        if set(found) - {"SOURCE_DATE_EPOCH"}
    } == {}
