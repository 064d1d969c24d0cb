"""``tools/sloc.py`` counts code, not comments, blanks or docstrings."""

import importlib.util
import subprocess
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


def test_base_prints_the_delta_against_a_revision(tmp_path, monkeypatch,
                                                  capsys):
    def git(*args):
        subprocess.run(("git", "-c", "user.name=t", "-c", "user.email=t@t")
                       + args, cwd=tmp_path, check=True, capture_output=True)

    package = tmp_path / "pkg" / "sub"
    package.mkdir(parents=True)
    (package / "kept.py").write_text("a = 1\n")
    (package / "edited.py").write_text("a = 1\nb = 2\n")
    (package / "deleted.py").write_text("a = 1\n")
    git("init", "-q")
    git("add", "-A")
    git("commit", "-q", "-m", "base")
    (package / "edited.py").write_text("a = 1  # b is gone\n")
    (package / "deleted.py").unlink()
    (tmp_path / "pkg" / "added.py").write_text("a = 1\nb = 2\nc = 3\n")

    monkeypatch.chdir(tmp_path)
    assert _sloc().main(["--base", "HEAD", "pkg"]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    # before, after, delta; unchanged files are not listed
    assert rows == [["0", "3", "+3", "pkg/added.py"],
                    ["1", "0", "-1", "pkg/sub/deleted.py"],
                    ["2", "1", "-1", "pkg/sub/edited.py"],
                    ["4", "5", "+1", "pkg/"],
                    ["4", "2", "-2", "pkg/sub/"]]
