"""Pytest entry point for the kernel-table bench (marker: bench).

Skipped by tier-1 runs; enable with ``pytest --run-bench`` or
``REPRO_RUN_BENCH=1``.  The CI tests job additionally runs
``bench_kernels.py --smoke`` directly; this wrapper keeps the harness
importable and the scatter-free sddmm-backward gate honest at pytest
scale in every environment.
"""

import pytest

from benchmarks.bench_kernels import evaluate_gates, run_kernel_suite


@pytest.mark.bench
def test_kernel_suite_smoke():
    entries = run_kernel_suite(scale=0.3, repeats=3)
    kernels = {entry["kernel"] for entry in entries}
    assert {"spmm", "spmm_backward", "spmm_batched", "sddmm",
            "sddmm_backward", "spmm_pattern", "spmm_pattern_backward_values",
            "spmm_pattern_backward_dense", "dropout_mask",
            "apply_mask"} <= kernels
    for entry in entries:
        assert entry["numpy_us"] > 0
    gates = evaluate_gates(entries)
    # The reference (scatter-free) sddmm backward beats the frozen scatter.
    assert gates["sddmm_backward"]["met"], gates

