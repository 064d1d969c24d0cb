#!/usr/bin/env python
"""Lint guard: the autograd hot-path primitives must stay behind the table.

``repro/autograd/functional.py``'s sparse/fused hot-path functions (``spmm``,
``spmm_batched``, ``sddmm``, ``spmm_pattern``, ``signed_spmm_pattern``,
``dropout``) are required to route every array operation through the
kernel table ``backend`` (:class:`~repro.autograd.backend.ArrayBackend`):
``backend.spmm(...)`` and its siblings.  The table is where the end-to-end
tracer wraps its ``kernel.*`` spans and where a test swaps a kernel for its
oracle, so a bare ``np.`` call inside a hot path is math neither of them
sees.  This guard
walks the AST and rejects any ``np.<attr>`` usage (and any ``scipy.sparse``
*math* beyond ``sp.issparse`` type checks) inside the hot-path function
bodies.  A call that passes a result buffer (``out=``) must be a call on
``backend`` — a kernel of the table fills it; ``np.add(..., out=...)`` or a
buffer method there would write a workspace's array from outside the
table.

Exit status: 0 when clean, 1 with a findings listing otherwise.  Run from
the repository root (the CI ``tests`` job runs it)::

    python tools/check_backend_dispatch.py
"""

from __future__ import annotations

import ast
import pathlib
import sys

#: functions in functional.py whose bodies must contain no bare numpy math
HOT_PATH_FUNCTIONS = ("spmm", "spmm_batched", "sddmm", "spmm_pattern",
                      "signed_spmm_pattern", "dropout")

#: ``sp.`` attributes that are type plumbing, not array math
ALLOWED_SPARSE_ATTRS = {"issparse", "spmatrix", "csr_matrix"}

TARGET = pathlib.Path("src/repro/autograd/functional.py")


def _annotation_nodes(func: ast.FunctionDef) -> set:
    """Ids of every AST node inside a type annotation (not executable math)."""
    roots = [arg.annotation for arg in
             (func.args.args + func.args.posonlyargs + func.args.kwonlyargs)
             if arg.annotation is not None]
    if func.returns is not None:
        roots.append(func.returns)
    for node in ast.walk(func):
        if isinstance(node, ast.AnnAssign):
            roots.append(node.annotation)
    return {id(n) for root in roots for n in ast.walk(root)}


def _violations_in(func: ast.FunctionDef) -> list:
    skip = _annotation_nodes(func)
    found = []
    for node in ast.walk(func):
        if not isinstance(node, ast.Attribute) or id(node) in skip:
            continue
        root = node.value
        if not isinstance(root, ast.Name):
            continue
        if root.id == "np":
            found.append((node.lineno, f"np.{node.attr}"))
        elif root.id == "sp" and node.attr not in ALLOWED_SPARSE_ATTRS:
            found.append((node.lineno, f"sp.{node.attr}"))
    for node in ast.walk(func):
        if isinstance(node, ast.Call) \
                and any(keyword.arg == "out" for keyword in node.keywords):
            callee = node.func
            if not (isinstance(callee, ast.Attribute)
                    and isinstance(callee.value, ast.Name)
                    and callee.value.id == "backend"):
                found.append((node.lineno, f"{ast.unparse(callee)}(out=)"))
    return found


def check(path: pathlib.Path = TARGET) -> list:
    """Return ``(function, line, expression)`` tuples for every violation."""
    tree = ast.parse(path.read_text(), filename=str(path))
    hot = {node.name: node for node in tree.body
           if isinstance(node, ast.FunctionDef)
           and node.name in HOT_PATH_FUNCTIONS}
    missing = set(HOT_PATH_FUNCTIONS) - set(hot)
    if missing:
        raise SystemExit(
            f"{path}: hot-path functions not found: {sorted(missing)} "
            f"(was a primitive renamed without updating the guard?)")
    violations = []
    for name, node in sorted(hot.items()):
        for lineno, expr in _violations_in(node):
            violations.append((name, lineno, expr))
    return violations


def main() -> int:
    violations = check()
    if not violations:
        print(f"backend dispatch guard: {TARGET} clean "
              f"({', '.join(HOT_PATH_FUNCTIONS)})")
        return 0
    print(f"backend dispatch guard: bare array math in {TARGET} hot paths —")
    for name, lineno, expr in violations:
        print(f"  {TARGET}:{lineno}: {expr} inside {name}() "
              f"(route through the kernel table instead)")
    return 1


if __name__ == "__main__":
    sys.exit(main())
