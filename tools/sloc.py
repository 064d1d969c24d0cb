#!/usr/bin/env python
"""Code lines per file and per package: no blanks, comments or docstrings.

A line counts when a token other than a comment, a newline or a docstring
touches it, so deleting comments or re-wrapping a docstring moves nothing;
the counts ROADMAP and CHANGES quote come from this script::

    python tools/sloc.py src/repro

``--base REV`` prints, instead, every file and package whose count differs
from the git revision ``REV`` (before, after, delta; a file missing on one
side counts 0) — the parent → change table of a CHANGES entry::

    python tools/sloc.py --base HEAD~1 src/repro
"""

from __future__ import annotations

import argparse
import ast
import io
import pathlib
import subprocess
import sys
import tokenize
from collections import Counter

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, SCOPES) and ast.get_docstring(node, clean=False) \
                is not None:
            first = node.body[0]
            docstrings.update(range(first.lineno, first.end_lineno + 1))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in SKIPPED:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstrings)


def _git(*args: str) -> str:
    return subprocess.run(("git",) + args, check=True, capture_output=True,
                          text=True).stdout


def file_counts(root: pathlib.Path, base: str = None) -> Counter:
    """Code lines per file under ``root``: on disk, or at revision ``base``."""
    if base is None:
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        return Counter({path: code_lines(path.read_text())
                        for path in files})
    names = _git("ls-tree", "-r", "-z", "--name-only", base, "--",
                 str(root)).split("\0")
    return Counter({pathlib.Path(name): code_lines(
        _git("show", f"{base}:./{name}"))
        for name in names if name.endswith(".py")})


def with_packages(root: pathlib.Path, files: Counter):
    """``(files, packages)``: a package counts every file beneath it."""
    packages = Counter()
    for path, count in files.items():
        for parent in path.parents:
            if root == parent or root in parent.parents:
                packages[parent] += count
    return files, packages


def main(argv) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("roots", nargs="*", default=["src/repro"])
    parser.add_argument("--base", metavar="REV",
                        help="print the delta against this git revision")
    options = parser.parse_args(argv)
    for root in map(pathlib.Path, options.roots):
        now = with_packages(root, file_counts(root))
        if options.base is None:
            for counts, suffix in zip(now, ("", "/")):
                for path, count in sorted(counts.items()):
                    print(f"{count:7d}  {path}{suffix}")
            continue
        then = with_packages(root, file_counts(root, options.base))
        for old, new, suffix in zip(then, now, ("", "/")):
            for path in sorted(set(old) | set(new)):
                if old[path] != new[path]:
                    print(f"{old[path]:7d} {new[path]:7d} "
                          f"{new[path] - old[path]:+6d}  {path}{suffix}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
