"""``tools/code_lines.py`` counts the code lines that the project's line
figures quote: blank lines, comments and docstrings are left out."""

import types
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"

MODULE = '''"""A module docstring
over two lines."""

# a comment on its own line
import math  # a trailing comment


def area(r):
    """One-line docstring."""
    return math.pi * r ** 2


TEXT = """a string that is
not a docstring"""
total = area(
    2,  # a comment inside a call
)
'''


def load_tool():
    module = types.ModuleType("code_lines")
    module.__file__ = str(TOOL)
    exec(compile(TOOL.read_text(encoding="utf-8"), str(TOOL), "exec"), module.__dict__)
    return module


def test_counts_code_lines_and_file_lines(tmp_path):
    path = tmp_path / "m.py"
    path.write_text(MODULE, encoding="utf-8")
    # import, def, return, the two lines of TEXT and the three of the call
    assert load_tool().count_lines(path) == (8, 17)


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE, encoding="utf-8")
    (tmp_path / "b.py").write_text("x = 1\n\n", encoding="utf-8")
    assert load_tool().main([str(tmp_path)]) == 0
    out = capsys.readouterr().out.splitlines()
    assert [line.split() for line in out] == [
        ["8", "17", "a.py"], ["1", "2", "b.py"],
        ["9", "19", "total", "(code", "lines,", "file", "lines)"]]
