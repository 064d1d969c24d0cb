"""Pytest entry point for the perf-engine timing harness (marker: bench).

Skipped by tier-1 runs; enable with ``pytest --run-bench`` or
``REPRO_RUN_BENCH=1``.  Uses small graphs so CI-scale machines finish in
seconds — the CI ``bench-smoke`` job runs exactly this subset, so backend
perf regressions (a broken pool, a non-batching plan, lost parity) fail
loudly instead of rotting in the checked-in JSON artifacts, which are
produced by running ``bench_perf.py`` directly at full size.
"""

import pytest

from benchmarks.bench_perf import run_benchmark


@pytest.mark.bench
def test_perf_harness_smoke():
    report = run_benchmark([200, 400], epochs=4, step1_rounds=2, top_k=16,
                           output_name="BENCH_step2_smoke",
                           pool_kwargs=dict(num_clients=4,
                                            nodes_per_client=80, epochs=4,
                                            step1_rounds=2))
    assert len(report["sizes"]) == 2
    # The numbers name the host, versions and commit they were taken on.
    assert {"nproc", "numpy", "numba", "git_sha"} <= set(report["host"])
    for entry in report["sizes"]:
        assert entry["epoch_speedup"] > 0
        assert entry["dense"]["matrix_mb"] >= entry["sparse"]["matrix_mb"]
        assert 0.0 <= entry["sparse"]["test_accuracy"] <= 1.0
    # The persistent-pool Step 2 reproduces serial client reports exactly.
    assert report["step2_pool"]["report_gap"] == 0.0


@pytest.mark.bench
@pytest.mark.parametrize("model", ["gcn", "sgc"])
def test_step1_backend_harness_smoke(model):
    from benchmarks.bench_perf import run_step1_backends

    report = run_step1_backends(num_clients=6, nodes_per_client=40,
                                rounds=2, local_epochs=2, num_workers=2,
                                model=model,
                                output_name=f"BENCH_step1_smoke_{model}")
    assert set(report["backends"]) == {"serial", "process_pool", "batched"}
    # The numbers name the host, versions and commit they were taken on.
    assert {"nproc", "numpy", "numba", "git_sha"} <= set(report["host"])
    for entry in report["backends"].values():
        assert entry["rounds_per_sec"] > 0
        # Every backend reproduces the serial training history.
        assert entry["loss_gap"] < 1e-9
    # Pipelined sync rounds under straggler skew stay exact.
    assert report["straggler"]["process_pool"]["loss_gap"] == 0.0
    assert report["straggler"]["process_pool"]["worker_utilization"] > 0
    # The async section recorded a full lag/utilization profile.
    assert report["step1_async"]["reports_merged"] > 0
    assert report["step1_async"]["per_client_lag"]
    # The codec section measured the lossless point, ≥1 lossy top-k point
    # and ≥1 quantised (qtopk) point on the bits axis.
    codecs = {entry["codec"]: entry
              for entry in report["delta_codec"]["codecs"]}
    assert "bitdelta" in codecs and len(codecs) >= 2
    quantised = [entry for entry in codecs.values()
                 if entry["codec"].startswith("qtopk")]
    assert quantised and all("delta_bits" in entry for entry in quantised)
    # The decoupled-hop plans hold the hard parity bar at toy scale too.
    for family, entry in report["models"].items():
        assert entry["batched"]["loss_gap"] == 0.0, family
        assert entry["batched"]["rounds_per_sec"] > 0


@pytest.mark.bench
def test_step1_decoupled_models_smoke():
    """Toy-scale batched GAMLP / GPR-GNN suite (CI bench-smoke coverage)."""
    from benchmarks.bench_perf import make_graph, run_step1_models

    graphs = [make_graph(40, seed=index, num_features=32)
              for index in range(6)]
    section = run_step1_models(graphs, rounds=2, local_epochs=2, repeats=1)
    assert set(section) == {"gamlp", "gprgnn"}
    for family, entry in section.items():
        assert entry["batched"]["loss_gap"] == 0.0, family
        assert entry["serial"]["rounds_per_sec"] > 0
        assert entry["batched"]["rounds_per_sec"] > 0


@pytest.mark.bench
def test_step1_async_harness_smoke():
    """Toy-scale bounded-staleness async suite (CI bench-smoke coverage)."""
    from benchmarks.bench_perf import make_graph, run_step1_async

    graphs = [make_graph(40, seed=index, num_features=32)
              for index in range(6)]
    section = run_step1_async(graphs, rounds=3, local_epochs=2,
                              num_workers=2, seed=0, async_buffer=1,
                              staleness_cap=2, worker_speeds=(1.0, 0.5))
    assert section["rounds_per_sec"] > 0
    assert section["reports_merged"] >= 3
    assert 0.0 <= section["worker_utilization"] <= 1.0
    assert section["max_report_lag"] >= 0
    assert section["per_client_lag"]
    assert 0.0 <= section["test_accuracy"] <= 1.0


@pytest.mark.bench
def test_faults_harness_smoke():
    """Toy-scale fault-tolerance cost model (CI bench-smoke coverage)."""
    from benchmarks.bench_perf import run_faults_suite

    report = run_faults_suite(num_clients=4, nodes_per_client=40,
                              rounds=3, local_epochs=2, num_workers=2,
                              crash_rates=(0.3,), stall_duration=1.0,
                              round_timeout=0.3,
                              output_name="BENCH_faults_smoke")
    # Targeted crash recovery is wall-clock-only: histories stay bitwise.
    for policy in ("restart", "redistribute"):
        entry = report["recovery"][policy]
        assert entry["loss_gap"] == 0.0, policy
        assert entry["fault_stats"]["crashes"] == 1
    # The seeded chaos sweep survived and accounted for every fired event.
    for entry in report["chaos"]:
        assert entry["fault_stats"]["crashes"] == \
            entry["fired"].get("crash", 0)
        assert 0.0 <= entry["test_accuracy"] <= 1.0
    # The stalled shard was dropped, not waited for.
    assert report["timeout"]["fault_stats"]["timeouts"] >= 1
    assert report["timeout"]["dropped_reports"] >= 1


@pytest.mark.bench
def test_topk_curve_harness_smoke():
    from benchmarks.bench_perf import run_topk_curve

    report = run_topk_curve(num_nodes=200, ks=(4, 16), epochs=3,
                            step1_rounds=2, output_name="BENCH_topk_smoke")
    assert len(report["curve"]) == 2
    for entry in report["curve"]:
        assert 0.0 <= entry["test_accuracy"] <= 1.0
        assert entry["matrix_mb"] <= report["dense"]["matrix_mb"]
