"""Serving load harness: throughput and tail latency of the query engine.

Measures the online serving subsystem the way serving systems are measured:
open-loop Poisson arrivals at configured rates, reporting achieved
queries/sec and p50/p99 latency across an **arrival-rate grid** for table
lookups (answered at admission, so no batching knob selects anything
there), a **batch-size × arrival-rate grid** for inductive queries (fused
batched subgraph inference, with the LRU's hit rate), a **crossover
section** (serial vs fused µs per inductive query at 2 / 4 / 8 / 32 per
flush — where ``serving.engine.FUSE_FROM`` comes from), a **miss-path
section** (µs per block for extract, normalise and serial forward, and a
whole served query on an LRU hit vs a miss), and a **parity bar**
asserting that served answers are bitwise-equal to offline
``Client.predict`` (and fused inductive answers bitwise-equal to
per-query serial forwards).

Usage::

    PYTHONPATH=src:. python benchmarks/bench_serving.py            # full grid
    PYTHONPATH=src:. python benchmarks/bench_serving.py --smoke    # CI smoke

The full run writes ``benchmarks/results/BENCH_serving.json``; ``--smoke``
writes ``BENCH_serving_smoke.json``.
"""

from __future__ import annotations

import argparse
import statistics
import time
from typing import Dict, List, Optional, Sequence

import numpy as np

from benchmarks.bench_utils import host_stamp, record_json
from repro.autograd import Tensor, no_grad
from repro.datasets import load_dataset
from repro.federated import FederatedConfig
from repro.fgl import build_baseline
from repro.models.base import prepare_propagation
from repro.serving import (
    InductiveQuery,
    QueryEngine,
    ServingSnapshot,
    SubgraphLRU,
    build_query_mix,
    extract_block,
    receptive_depth,
    run_open_loop,
)
from repro.serving.engine import FUSE_FROM, _Pending
from repro.simulation import community_split

#: inductive queries per flush the crossover section measures
CROSSOVER_SIZES = (2, 4, 8, 32)


def build_serving_snapshot(num_nodes: int = 600, num_clients: int = 5,
                           rounds: int = 3, seed: int = 0,
                           model: str = "fedgcn"):
    """Train a small federation and freeze it; returns (snapshot, trainer)."""
    graph = load_dataset("cora", seed=seed, num_nodes=num_nodes)
    subgraphs = community_split(graph, num_clients, seed=seed)
    trainer = build_baseline(
        model, subgraphs,
        config=FederatedConfig(rounds=rounds, local_epochs=1, seed=seed),
        hidden=32)
    trainer.run()
    return ServingSnapshot.from_trainer(trainer), trainer


def run_rate_grid(snapshot, *, rates: Sequence[float], queries_per_cell: int,
                  max_batches: Sequence[Optional[int]] = (None,),
                  inductive_fraction: float = 0.0,
                  max_delay_ms: float = 2.0, seed: int = 0) -> List[Dict]:
    """One open-loop run per (max_batch, rate) cell.

    ``max_batch`` is an axis only where something is queued: the table
    rows leave it at ``(None,)`` — engine default, no ``max_batch`` key.
    """
    points = []
    for max_batch in max_batches:
        knobs = {} if max_batch is None else {"max_batch": max_batch}
        for rate in rates:
            queries = build_query_mix(
                snapshot, queries_per_cell,
                inductive_fraction=inductive_fraction, seed=seed)
            with QueryEngine(snapshot, max_delay_ms=max_delay_ms,
                             **knobs) as engine:
                report = run_open_loop(engine, queries, rate, seed=seed)
                cache = engine.cache
            point = {**knobs, "inductive_fraction": inductive_fraction,
                     **report.as_dict()}
            point["cache"] = {"hits": cache.hits, "misses": cache.misses,
                              "evictions": cache.evictions}
            points.append(point)
            print(f"  batch={max_batch or '-'} rate={rate:.0f}: "
                  f"{report.achieved_qps:.0f} qps, "
                  f"p50 {report.p50_ms:.2f} ms, "
                  f"p99 {report.p99_ms:.2f} ms")
    return points


def run_crossover(snapshot, *, sizes: Sequence[int] = CROSSOVER_SIZES,
                  repeats: int = 60, seed: int = 0) -> Dict:
    """Serial vs fused µs per inductive query at ``sizes`` per flush.

    The engine's two inductive paths, called directly and alternately on
    the same queries with every block already in the LRU (the steady state:
    operators cached, no extraction); the median of ``repeats`` after a
    warm-up tenth.  ``measured_fuse_from`` is the smallest measured size
    from which fused wins at every larger one — ``FUSE_FROM`` in
    ``repro.serving.engine`` is set from the full run of this section.
    """
    queries = build_query_mix(snapshot, max(sizes), inductive_fraction=1.0,
                              seed=seed + 1)
    rows = []
    with QueryEngine(snapshot, cache_size=max(sizes)) as engine:
        items = [_Pending(query) for query in queries]
        for size in sizes:
            batch = items[:size]
            serial_us, fused_us = [], []
            for _ in range(repeats):
                start = time.perf_counter()
                for item in batch:
                    engine._serial_inductive(item.query)
                middle = time.perf_counter()
                fused = engine._fused_inductive(batch)
                end = time.perf_counter()
                assert fused is not None
                serial_us.append((middle - start) / size * 1e6)
                fused_us.append((end - middle) / size * 1e6)
            warm = repeats // 10
            rows.append({"per_flush": size,
                         "serial_us": statistics.median(serial_us[warm:]),
                         "fused_us": statistics.median(fused_us[warm:])})
            print(f"  {size:>2} per flush: serial "
                  f"{rows[-1]['serial_us']:.0f} us/query, fused "
                  f"{rows[-1]['fused_us']:.0f} us/query")
    crossover = None
    for row in reversed(rows):
        if row["fused_us"] >= row["serial_us"]:
            break
        crossover = row["per_flush"]
    return {"rows": rows, "repeats": repeats,
            "measured_fuse_from": crossover, "engine_fuse_from": FUSE_FROM}


def run_miss_path(snapshot, *, blocks: int = 16, repeats: int = 60,
                  seed: int = 0) -> Dict:
    """µs per block on the inductive miss path, layer by layer.

    For each of ``blocks`` inductive queries: ``extract_us`` (the
    receptive-field block), ``normalise_us`` (its propagation operator),
    ``forward_us`` (the serial forward with the operator built); then the
    whole served query through the engine on a cold LRU (``miss_us``) and
    again on the block it just cached (``hit_us``).  Medians over
    ``repeats`` of the per-block mean, after one untimed pass.
    """
    queries = build_query_mix(snapshot, blocks, inductive_fraction=1.0,
                              seed=seed + 2)
    names = ("extract_us", "normalise_us", "forward_us", "miss_us",
             "hit_us")
    samples = {name: [] for name in names}
    with QueryEngine(snapshot) as engine, no_grad():
        for repeat in range(repeats + 1):
            engine.cache = SubgraphLRU(len(queries))
            totals = dict.fromkeys(names, 0.0)
            for query in queries:
                entry = snapshot.entry(query.client_id)
                entry.model.eval()
                start = time.perf_counter()
                block = extract_block(entry.graph, query.anchors,
                                      receptive_depth(entry.model))
                extracted = time.perf_counter()
                prepare_propagation(block.adjacency)
                normalised = time.perf_counter()
                features = Tensor(np.concatenate(
                    [block.features, query.features.reshape(1, -1)]))
                entry.model(features, block.adjacency)  # caches the operator
                before = time.perf_counter()
                entry.model(features, block.adjacency)
                forwarded = time.perf_counter()
                engine._serial_inductive(query)     # a miss: the LRU is new
                missed = time.perf_counter()
                engine._serial_inductive(query)     # a hit on that block
                hit = time.perf_counter()
                for name, seconds in zip(names, (
                        extracted - start, normalised - extracted,
                        forwarded - before, missed - forwarded,
                        hit - missed)):
                    totals[name] += seconds
            if repeat:
                for name in names:
                    samples[name].append(totals[name] / len(queries) * 1e6)
    row = {name: statistics.median(values)
           for name, values in samples.items()}
    print("  " + ", ".join(f"{name} {value:.0f}"
                           for name, value in row.items()))
    return {"host": host_stamp(), "blocks": len(queries),
            "repeats": repeats, **row}


def run_parity_bar(snapshot, trainer, *, probes: int = 64,
                   seed: int = 0) -> Dict:
    """Bitwise parity of served answers vs offline references.

    * transductive: engine answers == a fresh serial ``Client.predict``
      recomputed offline (cache invalidated first);
    * inductive: fused batched answers == per-query serial forwards.
    """
    rng = np.random.default_rng(seed)
    offline = {}
    for client in trainer.clients:
        client.invalidate_cache()
        offline[client.client_id] = np.array(client.predict(), copy=True)

    transductive_checked = 0
    transductive_equal = True
    queries = build_query_mix(snapshot, probes, inductive_fraction=0.0,
                              seed=seed)
    with QueryEngine(snapshot, max_batch=16, max_delay_ms=1.0) as engine:
        for query in queries:
            served = engine.query(query, timeout=60)
            expected = offline[query.client_id][query.node_id]
            transductive_equal &= bool(
                np.array_equal(served.probs, expected))
            transductive_checked += 1

    inductive_queries = [
        query for query in build_query_mix(
            snapshot, probes, inductive_fraction=1.0, seed=seed + 1)
        if isinstance(query, InductiveQuery)]
    with QueryEngine(snapshot, max_batch=len(inductive_queries),
                     max_delay_ms=500.0) as engine:
        futures = [engine.submit(query) for query in inductive_queries]
        fused = [future.result(timeout=60) for future in futures]
    with QueryEngine(snapshot, max_batch=1, max_delay_ms=0.0) as engine:
        serial = [engine.query(query, timeout=60)
                  for query in inductive_queries]
    inductive_equal = all(
        np.array_equal(fused_r.probs, serial_r.probs)
        for fused_r, serial_r in zip(fused, serial))
    fused_used = sum(1 for result in fused if result.path == "fused")
    parity = {
        "transductive_bitwise_equal": bool(transductive_equal),
        "transductive_probes": transductive_checked,
        "inductive_fused_equals_serial": bool(inductive_equal),
        "inductive_probes": len(inductive_queries),
        "inductive_fused_path_answers": fused_used,
    }
    print(f"  parity: transductive bitwise={transductive_equal} "
          f"({transductive_checked} probes), "
          f"inductive fused==serial={inductive_equal} "
          f"({len(inductive_queries)} probes, {fused_used} fused)")
    return parity


def run_serving_suite(*, smoke: bool = False,
                      output_name: Optional[str] = None, seed: int = 0
                      ) -> Dict:
    if smoke:
        num_nodes, num_clients, rounds = 300, 3, 2
        max_batches = [1, 16]
        transductive_rates = [2000.0]
        inductive_rates = [300.0]
        queries_per_cell = 150
    else:
        num_nodes, num_clients, rounds = 600, 5, 3
        max_batches = [1, 8, 32]
        transductive_rates = [1000.0, 4000.0, 16000.0]
        inductive_rates = [100.0, 400.0, 1600.0]
        queries_per_cell = 800

    print(f"building snapshot ({num_nodes} nodes, {num_clients} clients)...")
    snapshot, trainer = build_serving_snapshot(
        num_nodes=num_nodes, num_clients=num_clients, rounds=rounds,
        seed=seed)

    print("transductive grid:")
    transductive = run_rate_grid(
        snapshot, rates=transductive_rates,
        queries_per_cell=queries_per_cell, inductive_fraction=0.0, seed=seed)
    print("inductive grid:")
    inductive = run_rate_grid(
        snapshot, max_batches=max_batches,
        rates=inductive_rates,
        queries_per_cell=max(queries_per_cell // 4, 50),
        inductive_fraction=1.0, seed=seed)
    print("crossover (serial vs fused, us per inductive query):")
    crossover = run_crossover(snapshot, repeats=10 if smoke else 60,
                              seed=seed)
    print("miss path (us per block):")
    miss_path = run_miss_path(snapshot, repeats=10 if smoke else 60,
                              seed=seed)
    print("parity bar:")
    parity = run_parity_bar(snapshot, trainer,
                            probes=32 if smoke else 64, seed=seed)

    best = max(transductive, key=lambda point: point["achieved_qps"])
    report = {
        "setup": {"dataset": "cora", "num_nodes": num_nodes,
                  "num_clients": num_clients, "rounds": rounds,
                  "model_family": snapshot.model_family,
                  "max_batches": list(max_batches),
                  "transductive_rates": list(transductive_rates),
                  "inductive_rates": list(inductive_rates),
                  "queries_per_cell": queries_per_cell, "seed": seed},
        "transductive": transductive,
        "inductive": inductive,
        "crossover": crossover,
        "miss_path": miss_path,
        "parity": parity,
        "headline": {"achieved_qps": best["achieved_qps"],
                     "p50_ms": best["p50_ms"], "p99_ms": best["p99_ms"]},
    }
    name = output_name or ("BENCH_serving_smoke" if smoke
                           else "BENCH_serving")
    record_json(name, report)
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="serving engine qps / latency harness")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny grid for CI (BENCH_serving_smoke.json)")
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    report = run_serving_suite(smoke=args.smoke, seed=args.seed)
    assert report["parity"]["transductive_bitwise_equal"]
    assert report["parity"]["inductive_fused_equals_serial"]
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
