"""Timing benchmark harness for the federated perf engine.

Three suites (``--suite``), each writing a JSON artifact under
``benchmarks/results/`` so the perf trajectory is tracked in-repo:

* ``step2`` (``BENCH_step2.json``) — dense vs sparse personalized training:
  Step-2 epochs/sec, peak P̃ memory and accuracy parity on growing cSBM
  graphs (PR 1);
* ``step1`` (``BENCH_step1.json``) — Step-1 federated collaborative-training
  rounds/sec for every execution backend (``serial`` / ``process_pool`` /
  ``batched``) on a many-small-clients split, including speedups over serial
  and a loss-parity check (PR 2; the process pool is the persistent-worker
  engine since PR 3 — resident clients, delta-only IPC, intra-worker shard
  fusion — and ``--model sgc|gamlp|gprgnn`` exercises the batched
  propagation/decoupled-hop families).  Since PR 4 the same artifact also
  carries a ``straggler`` section (pipelined sync rounds under simulated
  heterogeneous worker speeds, with a worker-utilization/straggler-wait
  metric), a ``step1_async`` section (bounded-staleness async rounds:
  throughput, utilization, per-client round lag, accuracy vs sync) and a
  ``delta_codec`` section (lossless bit-delta vs lossy top-k and quantised
  top-k upload transport: accuracy vs bytes); since PR 5 a ``models``
  section times serial vs batched GAMLP / GPR-GNN on the same split
  (decoupled-hop plans, ``loss_gap`` must be 0.0);
* ``topk`` (``BENCH_topk.json``) — accuracy-vs-k curve for
  ``propagation_top_k``, against the dense reference, to pick per-dataset
  defaults;
* ``faults`` (``BENCH_faults.json``) — fault-tolerance cost model (PR 6):
  recovery overhead and history parity for a targeted worker crash under
  the ``restart`` / ``redistribute`` policies, a seeded chaos sweep over
  crash rates, and round-timeout degradation under a stalled worker.

Run from the repository root::

    PYTHONPATH=src python benchmarks/bench_perf.py --suite all

A small smoke version runs under pytest via ``test_bench_perf.py`` when the
``bench`` marker is enabled (``pytest --run-bench`` or ``REPRO_RUN_BENCH=1``);
plain tier-1 runs skip it.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import time
import tracemalloc
from typing import Dict, List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.core import AdaFGL, AdaFGLConfig, FederatedKnowledgeExtractor
from repro.core.adafgl import PersonalizedClient
from repro.datasets import CSBMConfig, generate_csbm, make_split_masks
from repro.federated import FederatedConfig
from repro.federated.engine import FaultEvent, FaultPlan, ProcessPoolBackend
from repro.fgl.fedgnn import FederatedGNN

try:  # imported as benchmarks.bench_perf (pytest) or run as a script
    from benchmarks.bench_utils import record_json
except ImportError:  # pragma: no cover - script mode
    from bench_utils import record_json

NUM_FEATURES = 128
NUM_CLASSES = 5


def make_graph(num_nodes: int, seed: int = 0,
               num_features: int = NUM_FEATURES):
    config = CSBMConfig(
        num_nodes=num_nodes, num_classes=NUM_CLASSES,
        num_features=num_features, avg_degree=10.0, edge_homophily=0.6,
        feature_signal=1.0, blocks_per_class=2, seed=seed,
        name=f"bench-{num_nodes}")
    graph = generate_csbm(config)
    make_split_masks(graph, 0.5, 0.25, 0.25, seed=seed)
    graph.metadata["num_classes"] = NUM_CLASSES
    return graph


def matrix_megabytes(matrix) -> float:
    if sp.issparse(matrix):
        csr = matrix.tocsr()
        nbytes = csr.data.nbytes + csr.indices.nbytes + csr.indptr.nbytes
    else:
        nbytes = np.asarray(matrix).nbytes
    return nbytes / 2 ** 20


def bench_step1(graph, rounds: int, seed: int = 0):
    """Time the federated knowledge extractor; returns (rounds/sec, P̂)."""
    extractor = FederatedKnowledgeExtractor(
        [graph], hidden=64,
        config=FederatedConfig(rounds=rounds, local_epochs=2, seed=seed))
    start = time.perf_counter()
    extractor.run()
    elapsed = time.perf_counter() - start
    probs = extractor.client_probabilities()[0]
    return rounds / elapsed, probs


def bench_client(graph, probs, config: AdaFGLConfig, epochs: int) -> Dict:
    """Build one Step-2 client and time setup + training epochs."""
    tracemalloc.start()
    start = time.perf_counter()
    client = PersonalizedClient(0, graph, probs, config)
    if client.prop_cache is not None:
        # Fold the one-off block precompute into setup, where it belongs.
        client.prop_cache.concatenated(config.k_prop)
    setup_sec = time.perf_counter() - start
    _, peak_bytes = tracemalloc.get_traced_memory()
    tracemalloc.stop()

    start = time.perf_counter()
    for _ in range(epochs):
        client.train_epoch()
    train_sec = time.perf_counter() - start

    return {
        "setup_sec": round(setup_sec, 4),
        "setup_peak_mb": round(peak_bytes / 2 ** 20, 3),
        "matrix_mb": round(matrix_megabytes(client.propagation), 3),
        "sec_per_epoch": round(train_sec / epochs, 4),
        "epochs_per_sec": round(epochs / train_sec, 3),
        "test_accuracy": round(client.evaluate("test"), 4),
    }


def run_benchmark(sizes: List[int], epochs: int = 10, step1_rounds: int = 5,
                  top_k: int = 32, seed: int = 0,
                  output_name: str = "BENCH_step2",
                  pool_kwargs: Optional[Dict] = None) -> Dict:
    base = AdaFGLConfig(hidden=64, seed=seed)
    dense_config = dataclasses.replace(
        base, sparse_propagation=False, use_propagation_cache=False)
    sparse_config = dataclasses.replace(
        base, sparse_propagation=True, propagation_top_k=top_k,
        use_propagation_cache=True)

    report: Dict = {
        "config": {
            "epochs": epochs, "step1_rounds": step1_rounds, "top_k": top_k,
            "num_features": NUM_FEATURES, "num_classes": NUM_CLASSES,
            "k_prop": base.k_prop, "seed": seed,
        },
        "sizes": [],
    }
    for num_nodes in sizes:
        graph = make_graph(num_nodes, seed=seed)
        rounds_per_sec, probs = bench_step1(graph, step1_rounds, seed=seed)
        dense = bench_client(graph, probs, dense_config, epochs)
        sparse = bench_client(graph, probs, sparse_config, epochs)
        entry = {
            "num_nodes": num_nodes,
            "step1_rounds_per_sec": round(rounds_per_sec, 3),
            "dense": dense,
            "sparse": sparse,
            "epoch_speedup": round(
                dense["sec_per_epoch"] / sparse["sec_per_epoch"], 2),
            "matrix_memory_ratio": round(
                dense["matrix_mb"] / max(sparse["matrix_mb"], 1e-9), 2),
            "accuracy_gap": round(
                dense["test_accuracy"] - sparse["test_accuracy"], 4),
        }
        report["sizes"].append(entry)
        print(f"n={num_nodes:>6}  step1 {rounds_per_sec:6.2f} r/s  "
              f"dense {dense['sec_per_epoch']:.3f}s/ep  "
              f"sparse {sparse['sec_per_epoch']:.3f}s/ep  "
              f"speedup {entry['epoch_speedup']:.2f}x  "
              f"mem {dense['matrix_mb']:.1f}->{sparse['matrix_mb']:.1f} MB  "
              f"acc {dense['test_accuracy']:.3f}/{sparse['test_accuracy']:.3f}")

    # Step-2 persistent-pool timing + exact parity (PR 3).
    report["step2_pool"] = run_step2_pool(seed=seed, **(pool_kwargs or {}))

    record_json(output_name, report)
    return report


def _timed_step1_run(graphs, model: str, hidden: int,
                     config: FederatedConfig):
    """Train one Step-1 federation; return (trainer, history, rounds/sec)."""
    trainer = FederatedGNN(graphs, model, hidden=hidden, config=config)
    start = time.perf_counter()
    history = trainer.run()
    elapsed = time.perf_counter() - start
    return trainer, history, config.rounds / elapsed


def run_step1_backends(num_clients: int = 50, nodes_per_client: int = 40,
                       rounds: int = 10, local_epochs: int = 5,
                       hidden: int = 32, num_features: int = 32,
                       num_workers: int = 2, model: str = "gcn",
                       seed: int = 0,
                       worker_speeds: Sequence[float] = (1.0, 0.7),
                       output_name: str = "BENCH_step1") -> Dict:
    """Step-1 rounds/sec for every execution backend on one client split.

    Uses a many-small-clients split (the regime real cross-silo federations
    live in, and where per-client Python overhead dominates) with the same
    federated GCN the AdaFGL knowledge extractor trains (``model="sgc"``
    benchmarks the batched SGC/propagation family instead).  Every backend
    must reproduce the serial training history; ``loss_gap`` records the
    largest per-round deviation as a parity check.

    The written artifact additionally carries the ``straggler`` (pipelined
    sync under skewed worker speeds), ``step1_async`` (bounded-staleness
    rounds) and ``delta_codec`` (lossy top-k transport) sections — all on
    the same client split so the numbers are comparable.
    """
    graphs = [make_graph(nodes_per_client, seed=seed + index,
                         num_features=num_features)
              for index in range(num_clients)]
    backends = [("serial", 0), ("process_pool", num_workers), ("batched", 0)]

    report: Dict = {
        "config": {
            "num_clients": num_clients, "nodes_per_client": nodes_per_client,
            "rounds": rounds, "local_epochs": local_epochs, "hidden": hidden,
            "num_features": num_features, "num_workers": num_workers,
            "model": model, "seed": seed,
        },
        "backends": {},
    }
    # Backends are interleaved over ``repeats`` passes and each reports its
    # best throughput: single-shot pairings on a shared timing host load-bias
    # whichever arm hits a noisy window, while per-arm best over interleaved
    # repeats is a stable estimator.  Parity checks run on every pass.
    repeats = 3
    reference_loss: Optional[List[float]] = None
    best: Dict[str, float] = {}
    accuracy: Dict[str, float] = {}
    loss_gaps: Dict[str, float] = {}
    for _ in range(repeats):
        for backend, workers in backends:
            config = FederatedConfig(
                rounds=rounds, local_epochs=local_epochs, seed=seed,
                backend=backend, num_workers=workers, eval_every=rounds)
            trainer, history, rounds_per_sec = _timed_step1_run(
                graphs, model, hidden, config)
            if reference_loss is None:
                reference_loss = history.loss
            best[backend] = max(best.get(backend, 0.0), rounds_per_sec)
            accuracy[backend] = round(trainer.evaluate("test"), 4)
            loss_gaps[backend] = max(
                loss_gaps.get(backend, 0.0),
                float(np.max(np.abs(np.asarray(history.loss)
                                    - np.asarray(reference_loss)))))
    serial_rps = best["serial"]
    for backend, _ in backends:
        rounds_per_sec = best[backend]
        entry = {
            "rounds_per_sec": round(rounds_per_sec, 3),
            "sec_per_round": round(elapsed_per_round(rounds_per_sec), 4),
            "speedup_vs_serial": round(rounds_per_sec / serial_rps, 2),
            "test_accuracy": accuracy[backend],
            "loss_gap": loss_gaps[backend],
        }
        report["backends"][backend] = entry
        print(f"step1 {backend:12s} {rounds_per_sec:7.2f} rounds/s  "
              f"({entry['speedup_vs_serial']:.2f}x serial)  "
              f"acc {entry['test_accuracy']:.3f}  "
              f"loss_gap {entry['loss_gap']:.2e}")

    # Twice the backend-suite rounds: the straggler suite measures the
    # steady-state pipelined round loop, so the one-time pool spawn +
    # resident bootstrap should amortize out of the per-round figure.
    report["straggler"] = run_step1_straggler(
        graphs, rounds=2 * rounds, local_epochs=local_epochs, hidden=hidden,
        num_workers=num_workers, model=model, seed=seed,
        worker_speeds=worker_speeds)
    # Same 2×rounds as the straggler suite: one async seal corresponds to
    # one sync round here (B=1 merges every shard report), so the
    # accuracy_gap_vs_sync comparison is round-for-round.
    report["step1_async"] = run_step1_async(
        graphs, rounds=2 * rounds, local_epochs=local_epochs, hidden=hidden,
        num_workers=num_workers, model=model, seed=seed,
        worker_speeds=worker_speeds,
        sync_accuracy=report["straggler"]["process_pool"]["test_accuracy"])
    report["delta_codec"] = run_delta_codec(
        graphs, rounds=rounds, local_epochs=local_epochs, hidden=hidden,
        num_workers=num_workers, model=model, seed=seed)
    # Decoupled-hop plan families (PR 5): serial vs batched GAMLP/GPR-GNN
    # on the same client split, with the hard loss_gap=0.0 parity bar.
    report["models"] = run_step1_models(
        graphs, rounds=rounds, local_epochs=local_epochs, hidden=hidden,
        seed=seed)

    record_json(output_name, report)
    return report


def run_step1_models(graphs, models: Sequence[str] = ("gamlp", "gprgnn"),
                     rounds: int = 10, local_epochs: int = 5,
                     hidden: int = 32, seed: int = 0,
                     repeats: int = 3) -> Dict:
    """Serial vs batched rounds/sec for the decoupled-hop model families.

    GAMLP precomputes the constant hop stack once per plan (zero sparse work
    in the epoch loop); GPR-GNN fuses its k differentiable hops into one
    block-diagonal spmm each.  As everywhere in this artifact, arms are
    interleaved over ``repeats`` passes, each reports its best throughput,
    and ``loss_gap`` (checked on every pass) must be exactly 0.0 — the
    batched plans change scheduling, never results.
    """
    section: Dict = {}
    for model in models:
        best = {"serial": 0.0, "batched": 0.0}
        accuracy: Dict[str, float] = {}
        loss_gap = 0.0
        for _ in range(max(1, repeats)):
            reference: Optional[List[float]] = None
            for backend in ("serial", "batched"):
                config = FederatedConfig(
                    rounds=rounds, local_epochs=local_epochs, seed=seed,
                    backend=backend, eval_every=rounds)
                trainer, history, rounds_per_sec = _timed_step1_run(
                    graphs, model, hidden, config)
                if backend == "batched" and \
                        trainer.backend.last_fallback is not None:
                    # Fail loudly: a silent serial fallback would be
                    # recorded as a ~1x "batched" speedup.
                    raise RuntimeError(
                        f"batched {model} fell back to serial: "
                        f"{trainer.backend.last_fallback}")
                if reference is None:
                    reference = history.loss
                loss_gap = max(loss_gap, float(np.max(np.abs(
                    np.asarray(history.loss) - np.asarray(reference)))))
                best[backend] = max(best[backend], rounds_per_sec)
                accuracy[backend] = round(trainer.evaluate("test"), 4)
        section[model] = {
            "serial": {"rounds_per_sec": round(best["serial"], 3),
                       "test_accuracy": accuracy["serial"]},
            "batched": {
                "rounds_per_sec": round(best["batched"], 3),
                "speedup_vs_serial": round(
                    best["batched"] / best["serial"], 2),
                "test_accuracy": accuracy["batched"],
                "loss_gap": loss_gap,
            },
        }
        entry = section[model]["batched"]
        print(f"step1 {model:8s} batched {entry['rounds_per_sec']:7.2f} "
              f"rounds/s  ({entry['speedup_vs_serial']:.2f}x serial)  "
              f"loss_gap {entry['loss_gap']:.2e}")
    return section


def elapsed_per_round(rounds_per_sec: float) -> float:
    return 1.0 / rounds_per_sec if rounds_per_sec else float("inf")


def run_step1_straggler(graphs, rounds: int = 10, local_epochs: int = 5,
                        hidden: int = 32, num_workers: int = 2,
                        model: str = "gcn", seed: int = 0,
                        worker_speeds: Sequence[float] = (1.0, 0.7),
                        repeats: int = 3) -> Dict:
    """Pipelined sync rounds under simulated straggler skew, vs serial.

    Per-round evaluation (``eval_every=1``, the library default) makes the
    coordinator-side work visible: the pipelined loop hides it behind worker
    training, the serial loop pays it in line.  One worker runs at a
    fraction of full speed, so the streaming fold's straggler overlap is
    measured rather than asserted.  ``loss_gap`` must stay 0.0 — pipelining
    and simulated slowness change timing, never results.

    Serial and pipelined runs are interleaved ``repeats`` times and each
    arm reports its best throughput: the timing host is shared, so a single
    pairing can land on a load spike for either arm; per-arm best over
    interleaved repeats is the standard noise-robust estimator, and the
    parity check still runs on every repeat.
    """
    serial_config = FederatedConfig(
        rounds=rounds, local_epochs=local_epochs, seed=seed,
        backend="serial", eval_every=1)
    pool_config = FederatedConfig(
        rounds=rounds, local_epochs=local_epochs, seed=seed,
        backend="process_pool", num_workers=num_workers, eval_every=1,
        worker_speeds=list(worker_speeds))

    serial_rps = rounds_per_sec = 0.0
    loss_gap = 0.0
    trainer = stats = None
    for _ in range(max(1, repeats)):
        _, serial_history, serial_trial = _timed_step1_run(
            graphs, model, hidden, serial_config)
        trial_trainer, history, pool_trial = _timed_step1_run(
            graphs, model, hidden, pool_config)
        loss_gap = max(loss_gap, float(np.max(np.abs(
            np.asarray(history.loss) - np.asarray(serial_history.loss)))))
        serial_rps = max(serial_rps, serial_trial)
        if pool_trial >= rounds_per_sec:
            rounds_per_sec = pool_trial
            trainer = trial_trainer
            stats = trial_trainer.backend.last_pipeline_stats or {}

    section = {
        "worker_speeds": list(worker_speeds),
        "eval_every": 1,
        "rounds": rounds,
        "repeats": max(1, repeats),
        "serial": {
            "rounds_per_sec": round(serial_rps, 3),
        },
        "process_pool": {
            "rounds_per_sec": round(rounds_per_sec, 3),
            "speedup_vs_serial": round(rounds_per_sec / serial_rps, 2),
            "test_accuracy": round(trainer.evaluate("test"), 4),
            "worker_utilization": round(
                stats.get("worker_utilization", 0.0), 3),
            "straggler_wait_sec": round(
                stats.get("straggler_wait_sec", 0.0), 4),
            "loss_gap": loss_gap,
        },
    }
    entry = section["process_pool"]
    print(f"step1 straggler   {rounds_per_sec:7.2f} rounds/s  "
          f"({entry['speedup_vs_serial']:.2f}x serial)  "
          f"util {entry['worker_utilization']:.2f}  "
          f"loss_gap {entry['loss_gap']:.2e}")
    return section


def run_step1_async(graphs, rounds: int = 10, local_epochs: int = 5,
                    hidden: int = 32, num_workers: int = 2,
                    model: str = "gcn", seed: int = 0,
                    async_buffer: int = 1, staleness_cap: int = 3,
                    worker_speeds: Sequence[float] = (1.0, 0.7),
                    sync_accuracy: Optional[float] = None) -> Dict:
    """Bounded-staleness async rounds: throughput, utilization, lag profile.

    Workers never wait for a round barrier — the server seals an aggregate
    after ``async_buffer`` shard reports and stale reports are merged with
    discounted weight — so a slow worker costs lag, not wall-clock.  The
    per-client round-lag distribution comes from the recorded history;
    ``accuracy_gap_vs_sync`` closes the loop against the synchronous run on
    the same split.
    """
    config = FederatedConfig(
        rounds=rounds, local_epochs=local_epochs, seed=seed,
        backend="process_pool", num_workers=num_workers, eval_every=1,
        round_mode="async", async_buffer=async_buffer,
        staleness_cap=staleness_cap, worker_speeds=list(worker_speeds))
    trainer, history, rounds_per_sec = _timed_step1_run(
        graphs, model, hidden, config)
    stats = trainer.backend.last_pipeline_stats or {}

    last_lag = history.client_lag[-1] if history.client_lag else {}
    accuracy = trainer.evaluate("test")
    section = {
        "config": {
            "async_buffer": async_buffer, "staleness_cap": staleness_cap,
            "worker_speeds": list(worker_speeds), "rounds": rounds,
        },
        "rounds_per_sec": round(rounds_per_sec, 3),
        "test_accuracy": round(accuracy, 4),
        "worker_utilization": round(stats.get("worker_utilization", 0.0), 3),
        "reports_merged": stats.get("reports_merged", 0),
        "reports_dropped": stats.get("reports_dropped", 0),
        "mean_report_lag": round(stats.get("mean_report_lag", 0.0), 3),
        "max_report_lag": stats.get("max_report_lag", 0),
        "per_client_lag": {str(cid): lag
                           for cid, lag in sorted(last_lag.items())},
    }
    if sync_accuracy is not None:
        section["accuracy_gap_vs_sync"] = round(sync_accuracy - accuracy, 4)
    print(f"step1 async       {rounds_per_sec:7.2f} seals/s   "
          f"util {section['worker_utilization']:.2f}  "
          f"lag mean {section['mean_report_lag']:.2f} "
          f"max {section['max_report_lag']}  "
          f"acc {section['test_accuracy']:.3f}")
    return section


def run_delta_codec(graphs, rounds: int = 10, local_epochs: int = 5,
                    hidden: int = 32, num_workers: int = 2,
                    model: str = "gcn", seed: int = 0,
                    top_ks: Sequence[int] = (16, 64),
                    bits_grid: Sequence[int] = (4, 8)) -> Dict:
    """Accuracy-vs-bytes for the upload transport codecs.

    The lossless bit-delta ships one 8-byte word per parameter per round;
    ``delta_codec="topk"`` ships only the k largest-magnitude delta entries
    (index + value words) with worker-side error feedback, and
    ``delta_codec="qtopk"`` additionally packs the kept values into
    ``delta_bits``-per-value uniform-grid words (the ``bits_grid`` axis, at
    the largest ``top_ks`` sparsity so the two lossy stages compose).
    Bytes are read off the same ``backend.transport`` accounting the engine
    always keeps, so the trade-off point is measured, not estimated.
    """
    quant_k = int(max(top_ks))
    section: Dict = {"codecs": []}
    for label, codec, k, bits in (
            [("bitdelta", "bitdelta", 0, 0)]
            + [(f"topk_{k}", "topk", int(k), 0) for k in top_ks]
            + [(f"qtopk_{quant_k}_b{bits}", "qtopk", quant_k, int(bits))
               for bits in bits_grid]):
        config = FederatedConfig(
            rounds=rounds, local_epochs=local_epochs, seed=seed,
            backend="process_pool", num_workers=num_workers,
            eval_every=rounds, delta_codec=codec,
            delta_top_k=max(1, k), delta_bits=max(2, bits))
        trainer, history, _ = _timed_step1_run(graphs, model, hidden, config)
        uploaded_values = trainer.backend.transport.uploaded[
            "parameter_delta"]
        entry = {
            "codec": label,
            "upload_mb_total": round(uploaded_values * 8 / 2 ** 20, 3),
            "upload_values_per_round": round(uploaded_values / rounds, 1),
            "test_accuracy": round(trainer.evaluate("test"), 4),
            "final_loss": round(history.loss[-1], 4),
        }
        if codec == "qtopk":
            entry["delta_bits"] = int(bits)
        section["codecs"].append(entry)
        print(f"step1 codec {label:10s} "
              f"{entry['upload_mb_total']:7.3f} MB up  "
              f"acc {entry['test_accuracy']:.3f}")
    reference = section["codecs"][0]
    for entry in section["codecs"][1:]:
        entry["bytes_ratio_vs_bitdelta"] = round(
            entry["upload_mb_total"]
            / max(reference["upload_mb_total"], 1e-9), 3)
        entry["accuracy_gap_vs_bitdelta"] = round(
            reference["test_accuracy"] - entry["test_accuracy"], 4)

    # qtopk index transport: sorted top-k indices ship delta+LEB128 packed
    # instead of as raw int64 words.  Measured on the top-k index structure
    # of the last trained global state (real magnitudes, real shapes).
    from repro.federated.engine.persistent import pack_indices

    raw_words = packed_words = 0
    for value in trainer.server.global_state.values():
        flat = np.abs(np.asarray(value, dtype=np.float64)).ravel()
        k = min(quant_k, flat.size)
        keep = np.sort(np.argpartition(flat, flat.size - k)[flat.size - k:])
        packed = pack_indices(keep)
        raw_words += k
        packed_words += -(-packed.nbytes // 8)
    section["index_transport"] = {
        "top_k": quant_k,
        "raw_index_words": int(raw_words),
        "varint_index_words": int(packed_words),
        "index_bytes_ratio": round(packed_words / max(raw_words, 1), 3),
    }
    print(f"step1 codec index varint: {raw_words} -> {packed_words} words "
          f"({section['index_transport']['index_bytes_ratio']:.2f}x)")
    return section


def run_step2_pool(num_clients: int = 8, nodes_per_client: int = 250,
                   epochs: int = 10, step1_rounds: int = 3,
                   num_workers: int = 2, seed: int = 0) -> Dict:
    """Step-2 serial vs persistent-pool timing plus an exact parity check.

    Step 1 is pinned serial on both sides so the comparison isolates the
    Step-2 execution path.  The pooled side spawns a pool for Step 2 and
    closes it afterwards; that start-up and shut-down is reported as
    ``pool_startup_sec`` / ``pool_close_sec`` and left out of
    ``step2_sec`` (the Step-2 epochs, jobs shipped and results returned),
    which ``speedup_vs_serial`` compares; ``wall_sec`` is the whole
    ``run_step2`` call.  ``report_gap`` is the largest per-client accuracy
    deviation between the two paths — the persistent pool must reproduce
    the serial ``client_reports`` exactly (0.0).
    """
    graphs = [make_graph(nodes_per_client, seed=seed + index)
              for index in range(num_clients)]
    base = AdaFGLConfig(hidden=64, seed=seed, rounds=step1_rounds,
                        local_epochs=2, personalized_epochs=epochs,
                        sparse_propagation=True, propagation_top_k=32,
                        backend="serial")

    section: Dict = {
        "config": {
            "num_clients": num_clients,
            "nodes_per_client": nodes_per_client, "epochs": epochs,
            "step1_rounds": step1_rounds, "num_workers": num_workers,
            "seed": seed,
        },
    }
    reports = {}
    for label, workers in (("serial", 0), ("persistent_pool", num_workers)):
        method = AdaFGL(graphs, dataclasses.replace(base,
                                                    num_workers=workers))
        method.run_step1()
        with _timed(ProcessPoolBackend, ("ensure_pool", "close")) as spent:
            start = time.perf_counter()
            method.run_step2()
            elapsed = time.perf_counter() - start
        step2_sec = elapsed - spent["ensure_pool"] - spent["close"]
        reports[label] = [r.accuracy for r in method.client_reports()]
        section[label] = {
            "step2_sec": round(step2_sec, 4),
            "epochs_per_sec": round(epochs / step2_sec, 3),
            "pool_startup_sec": round(spent["ensure_pool"], 4),
            "pool_close_sec": round(spent["close"], 4),
            "wall_sec": round(elapsed, 4),
            "test_accuracy": round(method.evaluate("test"), 4),
        }
    section["speedup_vs_serial"] = round(
        section["serial"]["step2_sec"]
        / section["persistent_pool"]["step2_sec"], 2)
    section["report_gap"] = float(np.max(np.abs(
        np.asarray(reports["serial"])
        - np.asarray(reports["persistent_pool"]))))
    pooled = section["persistent_pool"]
    print(f"step2 serial {section['serial']['step2_sec']:.2f}s  "
          f"pool {pooled['step2_sec']:.2f}s  "
          f"({section['speedup_vs_serial']:.2f}x)  "
          f"pool start-up {pooled['pool_startup_sec']:.2f}s  "
          f"close {pooled['pool_close_sec']:.2f}s  "
          f"report_gap {section['report_gap']:.2e}")
    return section


@contextlib.contextmanager
def _timed(cls, names: Sequence[str]):
    """Sum the wall seconds spent in ``cls``'s methods ``names`` (a dict
    filled while the block runs; the methods are restored on exit)."""
    spent = {name: 0.0 for name in names}
    originals = {name: cls.__dict__[name] for name in names}

    def timing(name, method):
        @functools.wraps(method)
        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return method(*args, **kwargs)
            finally:
                spent[name] += time.perf_counter() - start
        return timed

    for name, method in originals.items():
        setattr(cls, name, timing(name, method))
    try:
        yield spent
    finally:
        for name, method in originals.items():
            setattr(cls, name, method)


def run_faults_suite(num_clients: int = 8, nodes_per_client: int = 60,
                     rounds: int = 6, local_epochs: int = 3,
                     hidden: int = 32, num_features: int = 32,
                     num_workers: int = 2, model: str = "gcn", seed: int = 0,
                     crash_rates: Sequence[float] = (0.05, 0.15, 0.3),
                     stall_duration: float = 0.5,
                     round_timeout: float = 0.25,
                     output_name: str = "BENCH_faults") -> Dict:
    """Fault-tolerance cost model for the persistent-worker engine.

    Three sections against a fault-free baseline on one client split:

    * ``recovery`` — a single targeted worker crash under the ``restart``
      and ``redistribute`` policies.  ``loss_gap`` must be 0.0: recovery
      snapshots roll the lost residents back exactly, so the crash costs
      wall-clock (``overhead_sec``) but never accuracy.
    * ``chaos`` — :meth:`FaultPlan.seeded` sweeps over crash rates under
      ``restart``: survival, recovery counts and accuracy delta per rate.
    * ``timeout`` — one stalled worker against ``round_timeout``: the round
      drops the late shard and reweights, trading accuracy for latency
      (dropped report counts and the accuracy delta are recorded).
    """
    graphs = [make_graph(nodes_per_client, seed=seed + index,
                         num_features=num_features)
              for index in range(num_clients)]

    def run(fault_plan=None, **kwargs):
        config = FederatedConfig(
            rounds=rounds, local_epochs=local_epochs, seed=seed,
            backend="process_pool", num_workers=num_workers,
            intra_worker="serial", fault_plan=fault_plan, **kwargs)
        trainer, history, rounds_per_sec = _timed_step1_run(
            graphs, model, hidden, config)
        stats = dict(getattr(trainer.backend, "fault_stats", {}) or {})
        return trainer, history, rounds_per_sec, stats

    baseline_trainer, baseline, baseline_rps, _ = run()
    report: Dict = {
        "num_clients": num_clients,
        "rounds": rounds,
        "num_workers": num_workers,
        "model": model,
        "baseline": {
            "rounds_per_sec": round(baseline_rps, 3),
            "test_accuracy": round(baseline_trainer.evaluate("test"), 4),
        },
    }

    report["recovery"] = {}
    for policy in ("restart", "redistribute"):
        plan = FaultPlan([FaultEvent(worker=0, dispatch=2, kind="crash")])
        trainer, history, rps, stats = run(fault_plan=plan,
                                           on_worker_failure=policy)
        loss_gap = float(np.max(np.abs(
            np.asarray(history.loss) - np.asarray(baseline.loss))))
        entry = {
            "rounds_per_sec": round(rps, 3),
            "overhead_sec": round(
                elapsed_per_round(rps) * rounds
                - elapsed_per_round(baseline_rps) * rounds, 4),
            "test_accuracy": round(trainer.evaluate("test"), 4),
            "loss_gap": loss_gap,
            "fault_stats": stats,
        }
        report["recovery"][policy] = entry
        print(f"faults {policy:>12}  {rps:6.2f} r/s  "
              f"overhead {entry['overhead_sec']:+.3f}s  "
              f"loss_gap {loss_gap:.2e}")

    report["chaos"] = []
    for rate in crash_rates:
        plan = FaultPlan.seeded(seed, num_workers, dispatches=rounds,
                                crash_rate=rate)
        scheduled = plan.remaining
        trainer, history, rps, stats = run(fault_plan=plan,
                                           on_worker_failure="restart")
        entry = {
            "crash_rate": rate,
            "scheduled": scheduled,
            "fired": plan.fired_counts(),
            "rounds_per_sec": round(rps, 3),
            "test_accuracy": round(trainer.evaluate("test"), 4),
            "accuracy_delta": round(
                trainer.evaluate("test")
                - report["baseline"]["test_accuracy"], 4),
            "fault_stats": stats,
        }
        report["chaos"].append(entry)
        print(f"faults chaos p={rate:<5} crashes {stats.get('crashes', 0)}  "
              f"{rps:6.2f} r/s  acc {entry['test_accuracy']:.3f} "
              f"({entry['accuracy_delta']:+.3f})")

    stall_plan = FaultPlan([FaultEvent(worker=0, dispatch=2, kind="stall",
                                       duration=stall_duration)])
    trainer, history, rps, stats = run(fault_plan=stall_plan,
                                       on_worker_failure="restart",
                                       round_timeout=round_timeout)
    report["timeout"] = {
        "stall_duration": stall_duration,
        "round_timeout": round_timeout,
        "rounds_per_sec": round(rps, 3),
        "test_accuracy": round(trainer.evaluate("test"), 4),
        "accuracy_delta": round(
            trainer.evaluate("test")
            - report["baseline"]["test_accuracy"], 4),
        "dropped_reports": stats.get("dropped_reports", 0),
        "fault_stats": stats,
    }
    print(f"faults timeout    {rps:6.2f} r/s  "
          f"dropped {report['timeout']['dropped_reports']}  "
          f"acc {report['timeout']['test_accuracy']:.3f} "
          f"({report['timeout']['accuracy_delta']:+.3f})")

    record_json(output_name, report)
    return report


def run_topk_curve(num_nodes: int = 1000,
                   ks: Sequence[int] = (4, 8, 16, 32, 64),
                   epochs: int = 10, step1_rounds: int = 5, seed: int = 0,
                   output_name: str = "BENCH_topk") -> Dict:
    """Accuracy-vs-k curve for ``propagation_top_k`` (dense as reference).

    Reuses one Step-1 run per graph size, then trains a Step-2 client per
    sparsity level, recording test accuracy, epoch time and P̃ memory so a
    per-dataset default k can be read off the curve.
    """
    graph = make_graph(num_nodes, seed=seed)
    _, probs = bench_step1(graph, step1_rounds, seed=seed)
    base = AdaFGLConfig(hidden=64, seed=seed)

    dense = bench_client(graph, probs, dataclasses.replace(
        base, sparse_propagation=False, use_propagation_cache=False), epochs)
    report: Dict = {
        "config": {"num_nodes": num_nodes, "epochs": epochs,
                   "step1_rounds": step1_rounds, "seed": seed,
                   "k_prop": base.k_prop},
        "dense": dense,
        "curve": [],
    }
    print(f"topk  dense      acc {dense['test_accuracy']:.3f}  "
          f"{dense['sec_per_epoch']:.3f}s/ep  {dense['matrix_mb']:.1f} MB")
    for k in ks:
        sparse = bench_client(graph, probs, dataclasses.replace(
            base, sparse_propagation=True, propagation_top_k=int(k),
            use_propagation_cache=True), epochs)
        entry = {
            "top_k": int(k),
            **sparse,
            "accuracy_gap_vs_dense": round(
                dense["test_accuracy"] - sparse["test_accuracy"], 4),
            "epoch_speedup_vs_dense": round(
                dense["sec_per_epoch"] / sparse["sec_per_epoch"], 2),
        }
        report["curve"].append(entry)
        print(f"topk  k={k:<8d} acc {sparse['test_accuracy']:.3f}  "
              f"{sparse['sec_per_epoch']:.3f}s/ep  "
              f"{sparse['matrix_mb']:.2f} MB  "
              f"gap {entry['accuracy_gap_vs_dense']:+.4f}")

    record_json(output_name, report)
    return report


def main(argv: Optional[List[str]] = None) -> Dict:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--suite", default="step2",
                        choices=["step2", "step1", "step1_async", "topk",
                                 "faults", "all"])
    parser.add_argument("--nodes", default="500,1000,2000",
                        help="comma-separated cSBM sizes (step2 suite)")
    parser.add_argument("--epochs", type=int, default=10)
    parser.add_argument("--step1-rounds", type=int, default=5)
    parser.add_argument("--top-k", type=int, default=32)
    parser.add_argument("--top-k-grid", default="4,8,16,32,64",
                        help="comma-separated k values (topk suite)")
    parser.add_argument("--clients", type=int, default=50,
                        help="client count (step1 suite)")
    parser.add_argument("--client-nodes", type=int, default=40,
                        help="nodes per client (step1 suite)")
    parser.add_argument("--rounds", type=int, default=10,
                        help="federated rounds (step1 suite)")
    parser.add_argument("--local-epochs", type=int, default=5,
                        help="local epochs per round (step1 suite)")
    parser.add_argument("--workers", type=int, default=2,
                        help="process-pool width (step1 suite)")
    parser.add_argument("--model", default="gcn",
                        choices=["gcn", "sgc", "gamlp", "gprgnn"],
                        help="federated model (step1 suite; sgc/gamlp/"
                             "gprgnn exercise the batched propagation and "
                             "decoupled-hop families)")
    parser.add_argument("--async-buffer", type=int, default=1,
                        help="shard reports per server seal "
                             "(step1_async suite)")
    parser.add_argument("--staleness-cap", type=int, default=3,
                        help="drop reports older than this many server "
                             "rounds (step1_async suite)")
    parser.add_argument("--worker-speeds", default="1.0,0.7",
                        help="comma-separated simulated worker speeds "
                             "(straggler/async suites)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output-name", default=None,
                        help="override the JSON artifact name")
    args = parser.parse_args(argv)

    def parse_ints(text: str, flag: str) -> List[int]:
        try:
            values = [int(part) for part in text.split(",") if part]
        except ValueError:
            parser.error(f"{flag} expects comma-separated integers, "
                         f"got {text!r}")
        if not values:
            parser.error(f"{flag} must name at least one value")
        return values

    if args.top_k < 1:
        parser.error("--top-k must be >= 1")

    results: Dict = {}
    if args.suite in ("step2", "all"):
        sizes = parse_ints(args.nodes, "--nodes")
        results["step2"] = run_benchmark(
            sizes, epochs=args.epochs, step1_rounds=args.step1_rounds,
            top_k=args.top_k, seed=args.seed,
            output_name=(args.output_name if args.suite == "step2"
                         and args.output_name else "BENCH_step2"))
    if args.suite in ("step1", "all"):
        results["step1"] = run_step1_backends(
            num_clients=args.clients, nodes_per_client=args.client_nodes,
            rounds=args.rounds, local_epochs=args.local_epochs,
            num_workers=args.workers, model=args.model, seed=args.seed,
            worker_speeds=[float(part)
                           for part in args.worker_speeds.split(",") if part],
            output_name=(args.output_name if args.suite == "step1"
                         and args.output_name else "BENCH_step1"))
    if args.suite == "step1_async":
        # Standalone async iteration loop; the canonical numbers land in
        # BENCH_step1.json via the full step1 suite above.
        speeds = [float(part) for part in args.worker_speeds.split(",")
                  if part]
        graphs = [make_graph(args.client_nodes, seed=args.seed + index,
                             num_features=32)
                  for index in range(args.clients)]
        results["step1_async"] = run_step1_async(
            graphs, rounds=args.rounds, local_epochs=args.local_epochs,
            num_workers=args.workers, model=args.model, seed=args.seed,
            async_buffer=args.async_buffer,
            staleness_cap=args.staleness_cap, worker_speeds=speeds)
        record_json(args.output_name or "BENCH_step1_async",
                    results["step1_async"])
    if args.suite in ("faults", "all"):
        results["faults"] = run_faults_suite(
            num_clients=args.clients, nodes_per_client=args.client_nodes,
            rounds=args.rounds, local_epochs=args.local_epochs,
            num_workers=args.workers, model=args.model, seed=args.seed,
            output_name=(args.output_name if args.suite == "faults"
                         and args.output_name else "BENCH_faults"))
    if args.suite in ("topk", "all"):
        results["topk"] = run_topk_curve(
            ks=parse_ints(args.top_k_grid, "--top-k-grid"),
            epochs=args.epochs, step1_rounds=args.step1_rounds,
            seed=args.seed,
            output_name=(args.output_name if args.suite == "topk"
                         and args.output_name else "BENCH_topk"))
    return results if args.suite == "all" else results[args.suite]


if __name__ == "__main__":
    main()
