"""The code-line counter that measures the size of ``src/stargraph``."""

from pathlib import Path

from code_lines import count_code_lines, count_package, main

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment counts as its line's code

# a comment line


class A:
    """Class docstring."""

    def f(self):
        """Function docstring."""
        text = """not a docstring,
        over two lines"""
        return text


def g():
    x = 1
    "a string statement after the first is code"
    return (
        x
    )
'''


def test_sample_counts_code_lines_only():
    # import, class, def f, text = ..., return text, def g, x = 1, the
    # string statement, return (, x, )
    assert count_code_lines(SAMPLE) == 11


def test_blank_comment_and_docstring_only_source_counts_nothing():
    assert count_code_lines('"""Only a docstring."""\n\n# and a comment\n') == 0


def test_package_counts_each_module_and_prints_a_total(tmp_path, capsys):
    (tmp_path / "one.py").write_text(SAMPLE, encoding="utf-8")
    (tmp_path / "two.py").write_text("x = 1\n", encoding="utf-8")
    assert count_package(Path(tmp_path)) == {"one.py": 11, "two.py": 1}
    assert main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["one.py", "11"],
        ["two.py", "1"],
        ["total", "12"],
    ]
