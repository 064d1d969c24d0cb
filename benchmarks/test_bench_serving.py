"""Pytest entry point for the serving harness (marker: bench).

Skipped by tier-1 runs; enable with ``pytest --run-bench`` or
``REPRO_RUN_BENCH=1``.  Runs the suite at smoke scale — the checked-in
``BENCH_serving.json`` artifact is produced by running ``bench_serving.py``
directly at the full grid.
"""

import pytest

from benchmarks.bench_serving import run_serving_suite


@pytest.mark.bench
def test_serving_harness_smoke():
    report = run_serving_suite(smoke=True, output_name="BENCH_serving_smoke")
    # The hard bars: served answers are bitwise-exact, both query regimes.
    assert report["parity"]["transductive_bitwise_equal"]
    assert report["parity"]["inductive_fused_equals_serial"]
    assert report["parity"]["inductive_fused_path_answers"] > 0
    assert report["headline"]["achieved_qps"] > 0
    for point in report["transductive"] + report["inductive"]:
        assert point["queries"] > 0
        assert point["p50_ms"] <= point["p99_ms"]
    # Table lookups are answered at admission: no batching axis, one
    # "inline" record per answer.
    for point in report["transductive"]:
        assert "max_batch" not in point
        assert point["triggers"] == {"inline": point["queries"]}
    # The crossover section times both inductive paths at every size.
    assert [row["per_flush"] for row in report["crossover"]["rows"]] \
        == [2, 4, 8, 32]
    assert all(row["serial_us"] > 0 and row["fused_us"] > 0
               for row in report["crossover"]["rows"])
    # The miss-path section times every layer of an LRU miss, host-stamped.
    miss_path = report["miss_path"]
    assert miss_path["host"]["nproc"] >= 1
    assert all(miss_path[name] > 0 for name in (
        "extract_us", "normalise_us", "forward_us", "miss_us", "hit_us"))
    assert report["host"]["nproc"] >= 1
    # Inductive cells actually exercised the subgraph LRU.
    assert any(point["cache"]["hits"] + point["cache"]["misses"] > 0
               for point in report["inductive"])
