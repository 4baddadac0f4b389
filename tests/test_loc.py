"""The line-count tool: code lines exclude blank, comment and docstring lines."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "loc.py"
_SPEC = importlib.util.spec_from_file_location("loc", _PATH)
loc = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(loc)

SNIPPET = '''"""Module docstring
over two lines."""

import os  # a trailing comment keeps the line


# a comment line
def f(x):
    """One-line docstring."""
    y = """a string that is
assigned is code"""
    "a bare string statement counts as a docstring"
    return (x,
            y)
'''


def test_count_skips_blank_comment_and_docstring_lines():
    # code: import, def, the two lines of the assigned string, return (2 lines)
    assert loc.count(SNIPPET) == (6, 14)


def test_main_prints_a_row_per_module_and_the_totals(tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    assert loc.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["module", "code", "physical"], ["b.py", "1", "2"],
                    ["pkg/a.py", "6", "14"], ["total", "7", "16"]]
