"""Per-kernel microbenchmarks for the array-backend dispatch layer.

Times every registered hot-path kernel (``spmm`` forward/backward,
``spmm_batched``, ``sddmm`` forward/backward, ``spmm_pattern`` forward +
both backwards, dropout mask/apply) under the **numpy** reference backend
vs the **jit** backend, at shapes sampled from the real execution plans:

* client-subgraph propagation (serial Step-1 / Step-2 knowledge smoothing):
  a ~10-average-degree CSR against 16/32-wide features;
* the batched engine's block-diagonal operator (50 stacked 40-node
  clients at hidden width 32);
* Step-2 sparse message passing (``sddmm`` / ``spmm_pattern`` on a top-k
  support at class-logit width).

The jit backend compiles numba CSR kernels when numba is importable and
otherwise registers the reference kernels themselves, so on a numba-less
host every numpy-vs-jit row reads ~1.0x.  The ``numba`` version (or
``absent``) is recorded in the artifact's host stamp so a number can never
masquerade as coming from the compiled kernels when it did not.

The reference ``sddmm_backward`` is the **scatter-free** formulation (one
CSR assembly + two sparse products on the CSR-ordered support).  What it
replaced — the ``np.add.at`` scatter — is frozen in this file as
``scatter_sddmm_backward`` and timed beside it (``scatter_us`` /
``speedup_vs_scatter``), so the row keeps measuring the formulation and
not which backend happens to carry it.

The ``gates`` section evaluates the ≥2× acceptance targets: ``spmm``
(jit vs numpy) needs the compiled prange kernels on a multicore host — the
CI backend-matrix job (numba installed) is where it is expected to hold; on
a numba-less host the entry records ``met: false`` with the reason rather
than a fabricated number.  ``sddmm_backward`` (reference vs the frozen
scatter) holds in every regime.

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

from repro.autograd.backend import get_backend, numba_available

try:  # imported as benchmarks.bench_kernels (pytest) or run as a script
    from benchmarks.bench_utils import host_stamp, record_json
except ImportError:  # pragma: no cover
    from bench_utils import host_stamp, record_json


NUMPY = get_backend("numpy")
JIT = get_backend("jit")


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
    fn()  # warm-up (also triggers numba compilation on the jit arm)
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


def _compare(name: str, shape_label: str, reference: Callable[[], object],
             candidate: Callable[[], object], repeats: int,
             scatter: Optional[Callable[[], object]] = None) -> Dict:
    ref_sec = _best_seconds(reference, repeats)
    jit_sec = _best_seconds(candidate, repeats)
    entry = {
        "kernel": name,
        "shape": shape_label,
        "numpy_us": round(ref_sec * 1e6, 1),
        "jit_us": round(jit_sec * 1e6, 1),
        "speedup": round(ref_sec / jit_sec, 2),
    }
    line = (f"{name:28s} {shape_label:34s} numpy {entry['numpy_us']:10.1f}us"
            f"  jit {entry['jit_us']:10.1f}us  {entry['speedup']:6.2f}x")
    if scatter is not None:
        scatter_sec = _best_seconds(scatter, repeats)
        entry["scatter_us"] = round(scatter_sec * 1e6, 1)
        entry["speedup_vs_scatter"] = round(scatter_sec / ref_sec, 2)
        line += (f"  scatter {entry['scatter_us']:10.1f}us  "
                 f"{entry['speedup_vs_scatter']:6.2f}x")
    print(line)
    return entry


def run_kernel_suite(scale: float = 1.0, repeats: int = 20) -> List[Dict]:
    """Time every kernel numpy-vs-jit; returns one entry per (kernel, shape)."""
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
            lambda: NUMPY.spmm(adjacency, dense),
            lambda: JIT.spmm(adjacency, dense), repeats))
        rows_entries.append(_compare(
            "spmm_backward", label,
            lambda: NUMPY.spmm_backward(adjacency, None, grad),
            lambda: JIT.spmm_backward(adjacency, None, grad), repeats))

    # -- spmm_batched: the batched engine's block-diagonal operator -------
    (batch, nodes, width), = shapes((50, 40, 32))
    block = sp.block_diag(
        [_graph_csr(nodes, 6, seed=100 + b) for b in range(batch)],
        format="csr")
    stacked = rng.standard_normal((batch, nodes, width))
    rows_entries.append(_compare(
        "spmm_batched", f"B={batch} n={nodes} f={width}",
        lambda: NUMPY.spmm_batched(block, stacked),
        lambda: JIT.spmm_batched(block, stacked), repeats))

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
            lambda: NUMPY.sddmm(support_rows, support_cols, a, b),
            lambda: JIT.sddmm(support_rows, support_cols, a, b), repeats))
        rows_entries.append(_compare(
            "sddmm_backward", label,
            lambda: NUMPY.sddmm_backward(support_rows, support_cols, a, b,
                                         edge_grad, True, True),
            lambda: JIT.sddmm_backward(support_rows, support_cols, a, b,
                                       edge_grad, True, True), repeats,
            scatter=lambda: scatter_sddmm_backward(
                support_rows, support_cols, a, b, edge_grad, True, True)))
        _, matrix = NUMPY.spmm_pattern(pattern, values, b)
        rows_entries.append(_compare(
            "spmm_pattern", label,
            lambda: NUMPY.spmm_pattern(pattern, values, b),
            lambda: JIT.spmm_pattern(pattern, values, b), repeats))
        rows_entries.append(_compare(
            "spmm_pattern_backward_values", label,
            lambda: NUMPY.spmm_pattern_backward_values(pattern, dense_grad, b),
            lambda: JIT.spmm_pattern_backward_values(pattern, dense_grad, b),
            repeats))
        rows_entries.append(_compare(
            "spmm_pattern_backward_dense", label,
            lambda: NUMPY.spmm_pattern_backward_dense(matrix, dense_grad),
            lambda: JIT.spmm_pattern_backward_dense(matrix, dense_grad),
            repeats))

    # -- dropout mask/apply (memory-bound; parity sanity, not a speedup) --
    (nodes, width), = shapes((4000, 32))
    x = rng.standard_normal((nodes, width))
    mask = NUMPY.dropout_mask(np.random.default_rng(0), x.shape, 0.5)
    rows_entries.append(_compare(
        "dropout_mask", f"shape=({nodes},{width}) p=0.5",
        lambda: NUMPY.dropout_mask(np.random.default_rng(0), x.shape, 0.5),
        lambda: JIT.dropout_mask(np.random.default_rng(0), x.shape, 0.5),
        repeats))
    rows_entries.append(_compare(
        "apply_mask", f"shape=({nodes},{width})",
        lambda: NUMPY.apply_mask(x, mask),
        lambda: JIT.apply_mask(x, mask), repeats))
    return rows_entries


def evaluate_gates(entries: Sequence[Dict]) -> Dict:
    """The ≥2× acceptance targets: jit spmm, scatter-free sddmm backward."""
    def best(kernel: str, column: str) -> float:
        return max((e[column] for e in entries if e["kernel"] == kernel),
                   default=0.0)

    gates: Dict = {}
    for kernel, column in (("spmm", "speedup"),
                           ("sddmm_backward", "speedup_vs_scatter")):
        speedup = best(kernel, column)
        gate = {"target": 2.0, "best_speedup": speedup, "column": column,
                "met": bool(speedup >= 2.0)}
        if kernel == "spmm" and not gate["met"] and not numba_available():
            gate["note"] = ("numba unavailable on this host: the jit spmm "
                            "is the reference kernel (~1x); the compiled "
                            "prange kernel is exercised by the CI "
                            "backend-matrix job")
        gates[kernel] = gate
    return gates


def run_e2e_section(seed: int = 0) -> Dict:
    """End-to-end numpy-vs-jit on the Step-2 sparse path.

    Epochs/sec shows the user-visible effect of ``--array-backend jit``
    (~1x without numba, where jit registers the reference kernels), and
    ``loss_bitwise_equal`` holds the two to the same loss history.
    """
    from benchmarks.bench_perf import make_graph
    from repro.core import AdaFGL, AdaFGLConfig

    graphs = [make_graph(220, seed=seed + i, num_features=24)
              for i in range(3)]
    section: Dict = {}
    losses = {}
    for name in ("numpy", "jit"):
        config = AdaFGLConfig(rounds=2, local_epochs=2,
                              personalized_epochs=8, hidden=16, seed=seed,
                              sparse_propagation=True, array_backend=name)
        trainer = AdaFGL([g for g in graphs], config)
        start = time.perf_counter()
        history = trainer.run()
        elapsed = time.perf_counter() - start
        epochs_per_sec = config.personalized_epochs / elapsed
        losses[name] = history.loss
        section[name] = {
            "step2_epochs_per_sec": round(epochs_per_sec, 3),
            "test_accuracy": round(trainer.evaluate("test"), 4),
        }
        print(f"e2e step2 {name:6s} {epochs_per_sec:7.2f} epochs/s  "
              f"acc {section[name]['test_accuracy']:.3f}")
    section["speedup_jit_vs_numpy"] = round(
        section["jit"]["step2_epochs_per_sec"]
        / section["numpy"]["step2_epochs_per_sec"], 2)
    section["loss_bitwise_equal"] = bool(losses["numpy"] == losses["jit"])
    return section


def main(argv: Optional[List[str]] = None) -> Dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes, no artifact write (CI)")
    parser.add_argument("--repeats", type=int, default=None)
    args = parser.parse_args(argv)

    # Smoke keeps ~1/3-size shapes: small enough for CI seconds, large
    # enough that the sddmm-backward gate is still measured in the
    # scatter-dominated regime it exists for (at toy nnz the CSR-assembly
    # constant term wins and the comparison is meaningless).
    scale = 0.3 if args.smoke else 1.0
    repeats = args.repeats or (3 if args.smoke else 20)
    print(f"array-backend kernels bench  numba_available={numba_available()}")
    entries = run_kernel_suite(scale=scale, repeats=repeats)
    gates = evaluate_gates(entries)
    report = {
        "host": host_stamp(),
        "numba_available": numba_available(),
        "kernels": entries,
        "gates": gates,
    }
    if args.smoke:
        # The scatter-free sddmm backward must beat the scatter everywhere.
        assert gates["sddmm_backward"]["met"], gates
        print("smoke OK:", {k: v["met"] for k, v in gates.items()})
        return report
    report["e2e"] = run_e2e_section()
    record_json("BENCH_kernels", report)
    return report


if __name__ == "__main__":
    main()
