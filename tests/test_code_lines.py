"""tools/code_lines.py counts the lines that hold code: not blank lines,
comments or docstrings, but every line of a string that spans lines."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SAMPLE = '''"""Module docstring
over two lines."""

# a comment line

import os


def f(x):
    """Function docstring."""
    # another comment line
    s = """a string
over two lines"""
    return x + len(s) + len(os.sep)  # a trailing comment
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_code_lines_counts_only_code(tmp_path, capsys):
    tool = _tool()
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE, encoding="utf-8")
    # import, def, both lines of the string, return
    assert tool.code_lines(path) == 5
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == ["     5  sample.py", "     5  total"]
