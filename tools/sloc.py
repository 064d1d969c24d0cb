#!/usr/bin/env python
"""Code lines per file and per package: no blanks, comments or docstrings.

A line counts when a token other than a comment, a newline or a docstring
touches it, so deleting comments or re-wrapping a docstring moves nothing;
the counts ROADMAP and CHANGES quote come from this script::

    python tools/sloc.py src/repro
"""

from __future__ import annotations

import ast
import io
import pathlib
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


def main(roots) -> int:
    for root in map(pathlib.Path, roots or ["src/repro"]):
        files = [root] if root.is_file() else sorted(root.rglob("*.py"))
        counts = {path: code_lines(path.read_text()) for path in files}
        packages = Counter()
        for path, count in counts.items():
            print(f"{count:7d}  {path}")
            for parent in path.parents:
                if root == parent or root in parent.parents:
                    packages[parent] += count
        for package, count in sorted(packages.items()):
            print(f"{count:7d}  {package}/")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
