"""Unit tests for the benchmark's statistics and two-set comparison."""

import statistics

import numpy as np
import pytest

from benchmarks.e2e import stats


def test_summary_is_median_quartiles_and_count():
    values = [5.0, 1.0, 9.0, 3.0, 7.0, 11.0]
    summary = stats.summary(values)
    q1, median, q3 = statistics.quantiles(values, n=4)
    assert summary == {"median": median, "q1": q1, "q3": q3, "n": 6}
    assert stats.summary([4.0]) == {"median": 4.0, "q1": 4.0, "q3": 4.0,
                                    "n": 1}
    assert stats.spread(values) == pytest.approx((q3 - q1) / median)


def test_percentile_matches_numpy_interpolation():
    rng = np.random.default_rng(0)
    values = rng.random(37).tolist()
    for q in (0, 10, 50, 90, 99, 100):
        assert stats.percentile(values, q) == pytest.approx(
            np.percentile(values, q))


def test_highest_percentile_needs_ten_samples_beyond_it():
    assert stats.highest_percentile(20) == 50.0
    assert stats.highest_percentile(99) == 50.0     # 9.9 beyond p90
    assert stats.highest_percentile(100) == 90.0
    assert stats.highest_percentile(999) == 90.0
    assert stats.highest_percentile(1000) == 99.0
    with pytest.raises(ValueError):
        stats.highest_percentile(19)


def test_self_time_subtracts_direct_children_only():
    spans = [
        ["op", 0.0, 10.0, -1],
        ["train", 1.0, 7.0, 0],
        ["kernel", 2.0, 4.0, 1],
        ["kernel", 4.5, 5.5, 1],
        ["eval", 7.0, 9.5, 0],
    ]
    assert stats.self_times(spans) == pytest.approx(
        [10.0 - 6.0 - 2.5, 6.0 - 2.0 - 1.0, 2.0, 1.0, 2.5])


def test_verdict_against_the_bound():
    steady = [100.0, 101.0, 99.0, 100.5, 99.5]
    assert stats.verdict(steady, [v * 1.02 for v in steady],
                         "lower", 0.1) == "unchanged"
    assert stats.verdict(steady, [v * 1.2 for v in steady],
                         "lower", 0.1) == "regressed"
    assert stats.verdict(steady, [v * 0.8 for v in steady],
                         "higher", 0.1) == "regressed"
    assert stats.verdict(steady, [v * 0.5 for v in steady],
                         "lower", 0.1) == "better"
    # A spread wider than the bound cannot show "no change".
    noisy = [80.0, 120.0, 100.0, 70.0, 130.0]
    assert stats.verdict(noisy, steady, "lower", 0.1) == "unresolved"
    assert stats.verdict(steady, noisy, "lower", 0.1) == "unresolved"


def _result_set(p50, frames):
    return {"runs": [
        {"workload": "w", "trace": trace, "metrics": metrics}
        for value, count in zip(p50, frames)
        for trace, metrics in (
            (0, {"op_ms_p50": {"value": value, "unit": "ms"}}),
            (1, {"transport.retransmits": {"value": count, "unit": "count"},
                 "pool.wait_ms": {"value": value / 2, "unit": "ms"}}))]}


def test_compare_rows_carry_medians_ratio_and_verdict():
    benchmark = {
        "end_to_end": [{"name": "op_ms_p50", "unit": "ms",
                        "better": "lower", "bound": 0.1}],
        "per_layer": [{"name": "transport.retransmits", "unit": "count",
                       "better": "lower"},
                      {"name": "pool.wait_ms", "unit": "ms",
                       "better": "lower"}]}
    base = _result_set([10.0, 10.2, 9.8], [3, 3, 3])
    other = _result_set([12.0, 12.1, 11.9], [3, 3, 4])
    rows = {row["metric"]: row
            for row in stats.compare(base, other, benchmark)}
    assert rows["op_ms_p50"]["verdict"] == "regressed"
    assert rows["op_ms_p50"]["ratio"] == pytest.approx(1.2)
    assert rows["op_ms_p50"]["base"]["n"] == 3
    assert rows["transport.retransmits"]["verdict"] == "differs"
    assert rows["pool.wait_ms"]["verdict"] == "reported"
    same = {row["metric"]: row
            for row in stats.compare(base, base, benchmark)}
    assert same["op_ms_p50"]["verdict"] == "unchanged"
    assert same["transport.retransmits"]["verdict"] == "identical"
    assert "op_ms_p50" in stats.format_rows(rows.values())
