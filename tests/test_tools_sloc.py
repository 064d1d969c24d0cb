"""``tools/sloc.py`` counts code, not comments, blanks or docstrings."""

import importlib.util
from pathlib import Path

SOURCE = '''"""Module docstring
over two lines."""

import os  # a trailing comment does not hide the code before it

# a comment line


def answer(x):
    """Docstring."""
    text = """a string that is
    data, not documentation"""
    return (x,
            text)
'''


def _sloc():
    path = Path(__file__).resolve().parents[1] / "tools" / "sloc.py"
    spec = importlib.util.spec_from_file_location("sloc", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_only_code_lines_count():
    # import, def, the two-line assignment, the two-line return
    assert _sloc().code_lines(SOURCE) == 6


def test_deleting_comments_and_docstrings_is_not_a_reduction():
    stripped = "\n".join(
        line for line in SOURCE.splitlines()
        if not line.lstrip().startswith("#")).replace(
            '    """Docstring."""\n', "")
    assert stripped != SOURCE
    assert _sloc().code_lines(stripped) == _sloc().code_lines(SOURCE)
