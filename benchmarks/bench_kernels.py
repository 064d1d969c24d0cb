"""Per-kernel microbenchmarks for the autograd kernel table.

Times every hot-path kernel of the table (``spmm`` forward/backward,
``spmm_batched``, ``sddmm`` forward/backward, ``spmm_pattern`` forward +
both backwards, dropout mask/apply) — the numpy reference kernels — at
shapes sampled from the real execution plans:

* client-subgraph propagation (serial Step-1 / Step-2 knowledge smoothing):
  a ~10-average-degree CSR against 16/32-wide features;
* the batched engine's block-diagonal operator (50 stacked 40-node
  clients at hidden width 32);
* Step-2 sparse message passing (``sddmm`` / ``spmm_pattern`` on a top-k
  support at class-logit width).

This file is where a second, compiled kernel set would prove itself,
timed beside the numpy row.  The ``numba`` version (or ``absent``) stays in
the artifact's host stamp — a host fact, and the first thing such a number
will be read against.

The reference ``sddmm_backward`` is the **scatter-free** formulation (two
sparse products on the CSR-ordered support, run on its arrays without
assembling a matrix).  What it
replaced — the ``np.add.at`` scatter — is frozen in this file as
``scatter_sddmm_backward`` and timed beside it (``scatter_us`` /
``speedup_vs_scatter``), so the row keeps measuring the formulation.

The ``gates`` section evaluates the ≥2× acceptance target:
``sddmm_backward`` (reference vs the frozen scatter) holds in every regime.

Run from the repository root::

    PYTHONPATH=src:. python benchmarks/bench_kernels.py           # full
    PYTHONPATH=src:. python benchmarks/bench_kernels.py --smoke   # CI smoke

The full run writes ``benchmarks/results/BENCH_kernels.json`` (host stamp:
platform, nproc, python / numpy / scipy / numba versions, git sha); the
smoke run shrinks every shape, skips the artifact write and asserts the
sddmm-backward gate so CI fails loudly if the scatter-free path regresses.
"""

from __future__ import annotations

import argparse
import time
from typing import Callable, Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.autograd.backend import resolve_backend

try:  # imported as benchmarks.bench_kernels (pytest) or run as a script
    from benchmarks.bench_utils import host_stamp, record_json
except ImportError:  # pragma: no cover
    from bench_utils import host_stamp, record_json


NUMPY = resolve_backend(None)


def scatter_sddmm_backward(rows, cols, a, b, grad, need_a, need_b):
    """The ``np.add.at`` sddmm backward the reference replaced (frozen)."""
    column = grad[:, None]
    grad_a = grad_b = None
    if need_a:
        grad_a = np.zeros_like(a)
        np.add.at(grad_a, rows, column * b[cols])
    if need_b:
        grad_b = np.zeros_like(b)
        np.add.at(grad_b, cols, column * a[rows])
    return grad_a, grad_b


def _best_seconds(fn: Callable[[], object], repeats: int) -> float:
    fn()  # warm-up (caches, and any lazy compilation of a candidate)
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return best


def _graph_csr(nodes: int, degree: float, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    matrix = sp.random(nodes, nodes, density=min(degree / nodes, 0.5),
                       format="csr", random_state=rng, dtype=np.float64)
    matrix.sort_indices()
    return matrix


def _support(pattern: sp.csr_matrix):
    rows = np.repeat(np.arange(pattern.shape[0]), np.diff(pattern.indptr))
    return rows, pattern.indices


def _compare(name: str, shape_label: str,
             call: Callable[[object], object], repeats: int,
             scatter: Optional[Callable[[], object]] = None) -> Dict:
    """One row: ``call(table)``, then the frozen ``scatter`` if the row has
    one."""
    ref_sec = _best_seconds(lambda: call(NUMPY), repeats)
    entry = {
        "kernel": name,
        "shape": shape_label,
        "numpy_us": round(ref_sec * 1e6, 1),
    }
    line = f"{name:28s} {shape_label:34s} numpy {entry['numpy_us']:10.1f}us"
    if scatter is not None:
        scatter_sec = _best_seconds(scatter, repeats)
        entry["scatter_us"] = round(scatter_sec * 1e6, 1)
        entry["speedup_vs_scatter"] = round(scatter_sec / ref_sec, 2)
        line += (f"  scatter {entry['scatter_us']:10.1f}us  "
                 f"{entry['speedup_vs_scatter']:6.2f}x")
    print(line)
    return entry


def run_kernel_suite(scale: float = 1.0, repeats: int = 20) -> List[Dict]:
    """Time every kernel; returns one entry per (kernel, shape)."""
    rng = np.random.default_rng(0)
    rows_entries: List[Dict] = []

    def shapes(*dims):
        return [tuple(max(1, int(d * scale)) for d in shape) for shape in dims]

    # -- spmm forward/backward: client-subgraph propagation shapes --------
    for nodes, degree, width in shapes((3000, 10, 16), (8000, 12, 32)):
        adjacency = _graph_csr(nodes, degree, seed=nodes)
        dense = rng.standard_normal((nodes, width))
        grad = rng.standard_normal((nodes, width))
        label = f"n={nodes} deg~{degree} f={width}"
        rows_entries.append(_compare(
            "spmm", label,
            lambda backend: backend.spmm(adjacency, dense), repeats))
        rows_entries.append(_compare(
            "spmm_backward", label,
            lambda backend: backend.spmm_backward(adjacency, None, grad),
            repeats))

    # -- spmm_batched: the batched engine's block-diagonal operator -------
    (batch, nodes, width), = shapes((50, 40, 32))
    block = sp.block_diag(
        [_graph_csr(nodes, 6, seed=100 + b) for b in range(batch)],
        format="csr")
    stacked = rng.standard_normal((batch, nodes, width))
    rows_entries.append(_compare(
        "spmm_batched", f"B={batch} n={nodes} f={width}",
        lambda backend: backend.spmm_batched(block, stacked), repeats))

    # -- sddmm + spmm_pattern: Step-2 sparse message passing --------------
    for nodes, degree, width in shapes((3000, 10, 16), (2000, 20, 8)):
        pattern = _graph_csr(nodes, degree, seed=nodes + 1)
        support_rows, support_cols = _support(pattern)
        a = rng.standard_normal((nodes, width))
        b = rng.standard_normal((nodes, width))
        edge_grad = rng.standard_normal(pattern.nnz)
        values = rng.standard_normal(pattern.nnz)
        dense_grad = rng.standard_normal((nodes, width))
        label = f"n={nodes} nnz={pattern.nnz} f={width}"
        rows_entries.append(_compare(
            "sddmm", label,
            lambda backend: backend.sddmm(support_rows, support_cols, a, b),
            repeats))
        rows_entries.append(_compare(
            "sddmm_backward", label,
            lambda backend: backend.sddmm_backward(
                support_rows, support_cols, a, b, edge_grad, True, True),
            repeats,
            scatter=lambda: scatter_sddmm_backward(
                support_rows, support_cols, a, b, edge_grad, True, True)))
        # What ``spmm_pattern`` returns beside the product is opaque: the
        # dense backward gets it back as is.
        _, handle = NUMPY.spmm_pattern(pattern, values, b)
        rows_entries.append(_compare(
            "spmm_pattern", label,
            lambda backend: backend.spmm_pattern(pattern, values, b),
            repeats))
        rows_entries.append(_compare(
            "spmm_pattern_backward_values", label,
            lambda backend: backend.spmm_pattern_backward_values(
                pattern, dense_grad, b), repeats))
        rows_entries.append(_compare(
            "spmm_pattern_backward_dense", label,
            lambda backend: backend.spmm_pattern_backward_dense(
                handle, dense_grad), repeats))

    # -- dropout mask/apply (memory-bound; parity sanity, not a speedup) --
    (nodes, width), = shapes((4000, 32))
    x = rng.standard_normal((nodes, width))
    mask = NUMPY.dropout_mask(np.random.default_rng(0), x.shape, 0.5)
    rows_entries.append(_compare(
        "dropout_mask", f"shape=({nodes},{width}) p=0.5",
        lambda backend: backend.dropout_mask(np.random.default_rng(0),
                                             x.shape, 0.5), repeats))
    rows_entries.append(_compare(
        "apply_mask", f"shape=({nodes},{width})",
        lambda backend: backend.apply_mask(x, mask), repeats))
    return rows_entries


def evaluate_gates(entries: Sequence[Dict]) -> Dict:
    """The ≥2× acceptance target: scatter-free sddmm backward vs scatter."""
    speedup = max((e["speedup_vs_scatter"] for e in entries
                   if e["kernel"] == "sddmm_backward"), default=0.0)
    return {"sddmm_backward": {
        "target": 2.0, "best_speedup": speedup,
        "column": "speedup_vs_scatter", "met": bool(speedup >= 2.0)}}


def main(argv: Optional[List[str]] = None) -> Dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, no artifact write (CI)")
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    # Smoke keeps ~1/3-size shapes: small enough for CI seconds, large
    # enough that the sddmm-backward gate is still measured in the
    # scatter-dominated regime it exists for (at toy nnz the per-call
    # constant term wins and the comparison is meaningless).
    scale = 0.3 if args.smoke else 1.0
    repeats = args.repeats or (3 if args.smoke else 20)
    host = host_stamp()
    print(f"kernel table bench  numba={host['numba']}")
    entries = run_kernel_suite(scale=scale, repeats=repeats)
    gates = evaluate_gates(entries)
    report = {
        "host": host,
        "kernels": entries,
        "gates": gates,
    }
    if args.smoke:
        # The scatter-free sddmm backward must beat the scatter everywhere.
        assert gates["sddmm_backward"]["met"], gates
        print("smoke OK:", {k: v["met"] for k, v in gates.items()})
        return report
    record_json("BENCH_kernels", report)
    return report


if __name__ == "__main__":
    main()
