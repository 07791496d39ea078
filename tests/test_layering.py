"""Every module of the package imports at module level only, and the
package's modules import each other without a cycle.

An import inside a function hides a dependency from the reader of the
module's head and is the usual way round an import cycle; with none, the
order in which the modules import each other (``model`` before ``ntio``
before ``partition``, say) is the order their heads state. The scans are
small stdlib ``ast`` walks, like the other source checks in
``test_public_api``.
"""

import ast
from pathlib import Path

import pytest

import stargraph as sg

SOURCES = sorted(Path(sg.__file__).parent.glob("*.py"))


def nested_imports(source: str) -> list[int]:
    """The lines of the imports that are not statements of the module body."""
    tree = ast.parse(source)
    top = {id(node) for node in tree.body}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and id(node) not in top
    ]


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_imports_are_at_module_level(path):
    assert nested_imports(path.read_text(encoding="utf-8")) == []


def test_scan_catches_a_nested_import():
    source = (
        "import re\n"
        "def f():\n"
        "    from .partition import s_decompose\n"
        "    return s_decompose\n"
        "class C:\n"
        "    import os\n"
        "if True:\n"
        "    import sys\n"
    )
    assert nested_imports(source) == [3, 6, 8]


def package_imports(path: Path) -> set[str]:
    """The package modules that ``path``'s relative imports name."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return {
        node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
    }


def test_package_modules_import_each_other_without_a_cycle():
    pending = {p.stem: package_imports(p) for p in SOURCES}
    order = []
    while pending:
        ready = sorted(m for m, deps in pending.items() if not deps - set(order))
        assert ready, f"import cycle among {sorted(pending)}"
        order += ready
        for m in ready:
            del pending[m]
    assert order.index("model") < order.index("ntio") < order.index("partition")
