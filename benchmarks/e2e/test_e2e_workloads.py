"""Unit tests for what the workloads declare (nothing is run here)."""

import json
from pathlib import Path

import pytest

from benchmarks.e2e import workloads
from benchmarks.e2e.workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def test_benchmark_json_lists_the_workloads_and_the_layers_they_own():
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [(entry["name"], entry["why"])
            for entry in benchmark["workloads"]] == [
        (workload.name, workload.why) for workload in WORKLOADS.values()]
    listed = [metric["name"] for metric in benchmark["per_layer"]]
    owned = set().union(*(workload.layers
                          for workload in WORKLOADS.values()))
    assert owned == set(listed) and len(listed) == len(owned)
    # what only one kind of workload reaches is owned by that kind alone
    assert "pool.wait_ms" not in WORKLOADS["step1_batched_50c"].layers
    assert "pool.wait_ms" in WORKLOADS["step1_pool_tcp_60c"].layers
    assert "kernel.sddmm_ms" in WORKLOADS["step2_sparse_4c"].layers
    assert "kernel.sddmm_ms" not in WORKLOADS["serve_mix_8c"].layers


def test_an_owned_span_that_never_fired_is_an_error_not_a_zero():
    totals = {"pool.wait": [4, 0.2, 0.1]}
    assert workloads.per_op_ms(totals, "pool.wait", 4) == pytest.approx(50.0)
    with pytest.raises(KeyError, match="never fired"):
        workloads.per_op_ms(totals, "pool.collect", 4)


def test_alternate_keeps_untraced_and_traced_segments_apart():
    def plain(count):
        return ["u"] * count, float(count)

    def traced(count):
        return ["t"] * count, 2.0 * count

    assert workloads.alternate(10, None, plain, traced) == (
        (["u"] * 10, 10.0), ([], 0.0))
    untraced, spanned = workloads.alternate(10, object(), plain, traced)
    assert untraced == (["u"] * 5, 5.0)         # segments of 3 and 2
    assert spanned == (["t"] * 5, 10.0)         # segments of 3 and 2
