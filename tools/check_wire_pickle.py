#!/usr/bin/env python
"""Wire guard: where ``engine/transport.py`` may unpickle what it received.

A socket delivers bytes somebody else chose, and ``pickle.loads`` runs what
it is given.  The transport therefore unpickles in exactly one place — the
control-frame decoder ``_decode_control`` — which only a channel's ``recv``
calls, and a channel only ever receives from a socket whose HELLO token
matched.  This guard reads the module's syntax tree and fails when

* an unpickling call (``pickle.loads`` / ``load`` / ``Unpickler``) appears
  anywhere but inside ``_decode_control``;
* ``_decode_control`` is referred to anywhere but inside ``_TcpChannel.recv``;
* the accept path (``TcpTransport._accept_loop``) mentions ``pickle``,
  ``_decode_control`` or a ``recv`` at all, or hands the socket to a channel
  (``attach``) before the line that compares the token
  (``hmac.compare_digest``).

Exit status: 0 when all hold, 1 with a findings listing otherwise.  Needs no
install; CI runs it beside ``check_knob_docs.py``::

    python tools/check_wire_pickle.py
"""

from __future__ import annotations

import ast
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
TRANSPORT = ROOT / "src" / "repro" / "federated" / "engine" / "transport.py"
DECODER = "_decode_control"
UNPICKLERS = ("loads", "load", "Unpickler")


def _scopes(tree: ast.AST):
    """``(qualified function name, node)`` for every node in the module."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            yield inner, child
            yield from walk(child, inner)
    return walk(tree, "")


def _mentions(node: ast.AST, name: str) -> bool:
    return (isinstance(node, ast.Name) and node.id == name) \
        or (isinstance(node, ast.Attribute) and node.attr == name)


def check(source: str) -> list:
    """Findings (strings) for one module text; empty when the rules hold."""
    findings, token_line, attach_lines = [], None, []
    for scope, node in _scopes(ast.parse(source)):
        line = getattr(node, "lineno", 0)
        if (isinstance(node, ast.Attribute) and node.attr in UNPICKLERS
                and _mentions(node.value, "pickle")
                and scope != DECODER):
            findings.append(f"line {line}: pickle.{node.attr} outside "
                            f"{DECODER} (in {scope or 'module scope'})")
        if _mentions(node, DECODER) and not isinstance(node, ast.FunctionDef) \
                and scope != "_TcpChannel.recv":
            findings.append(f"line {line}: {DECODER} referred to outside "
                            f"_TcpChannel.recv (in {scope or 'module scope'})")
        if scope != "TcpTransport._accept_loop":
            continue
        for name in ("pickle", DECODER, "recv"):
            if _mentions(node, name):
                findings.append(f"line {line}: the accept path mentions "
                                f"{name}")
        if _mentions(node, "compare_digest") and token_line is None:
            token_line = line
        if _mentions(node, "attach"):
            attach_lines.append(line)
    if token_line is None:
        findings.append("the accept path never compares the token "
                        "(hmac.compare_digest)")
    elif not attach_lines:
        findings.append("the accept path never attaches a socket")
    for line in attach_lines:
        if token_line is not None and line < token_line:
            findings.append(f"line {line}: socket attached before the token "
                            f"check on line {token_line}")
    if DECODER not in source:
        findings.append(f"{DECODER} is gone: where are control frames "
                        "decoded now?")
    return findings


def main() -> int:
    findings = check(TRANSPORT.read_text())
    for finding in findings:
        print(f"{TRANSPORT.relative_to(ROOT)}: {finding}")
    if not findings:
        print(f"{TRANSPORT.relative_to(ROOT)}: unpickles only in {DECODER}, "
              "only behind a token-checked channel")
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
