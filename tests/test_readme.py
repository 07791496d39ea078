"""The README's "Library use" example runs as written, so the calls it
documents cannot drift from the code."""

import re
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def library_use_block() -> str:
    """The one Python block of the README's "Library use" section."""
    section = README.read_text(encoding="utf-8").split("\n## Library use\n")[1]
    section = section.split("\n## ")[0]
    (block,) = re.findall(r"```python\n(.*?)```", section, re.S)
    return block


def test_library_use_block_runs(capsys):
    exec(compile(library_use_block(), str(README), "exec"), {})
    assert capsys.readouterr().out.startswith("?a\t?b\t?c\n")
