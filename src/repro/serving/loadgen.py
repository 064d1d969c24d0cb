"""Open-loop load generation and latency accounting for the query engine.

Serving systems are measured under *open-loop* load: arrivals follow a
Poisson process at a configured rate regardless of how fast the server
answers, so queueing delay shows up in the tail instead of being hidden by
a closed feedback loop.  :func:`run_open_loop` schedules seeded exponential
inter-arrivals, submits each query at its scheduled instant (catching up
without dropping when the generator itself falls behind), and measures
latency from the *scheduled* arrival to completion — backlog counts.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Sequence

import numpy as np

from repro.serving.engine import (
    AdmissionRejected,
    InductiveQuery,
    Query,
    TransductiveQuery,
)


@dataclass
class LoadReport:
    """Aggregate latency/throughput statistics of one open-loop run."""

    queries: int
    offered_qps: float
    achieved_qps: float
    duration_s: float
    p50_ms: float
    p99_ms: float
    mean_ms: float
    max_ms: float
    #: ``batch_log`` records of the run: one per flush of the queue plus
    #: one (size 1, trigger "inline") per table read answered at admission,
    #: so ``mean_batch`` and ``triggers`` cover every answer
    batches: int
    mean_batch: float
    triggers: Dict[str, int] = field(default_factory=dict)
    paths: Dict[str, int] = field(default_factory=dict)
    #: queries the bounded admission queue fast-failed (overload shedding);
    #: they never entered the engine, so they carry no latency sample
    rejected: int = 0

    def as_dict(self) -> Dict:
        from dataclasses import asdict

        return asdict(self)


def build_query_mix(snapshot, count: int, *, inductive_fraction: float = 0.0,
                    seed: int = 0, anchors_per_query: int = 2,
                    feature_noise: float = 0.1) -> List[Query]:
    """A seeded query stream over the snapshot's clients.

    Transductive queries pick a uniform (client, node); inductive queries
    pick ``anchors_per_query`` distinct anchor nodes and perturb an
    existing node's features with Gaussian noise, approximating a new node
    of the same population.  ``inductive_fraction`` is clamped to zero for
    transductive-only snapshots.
    """
    rng = np.random.default_rng(seed)
    ids = snapshot.client_ids
    if not ids:
        raise ValueError("snapshot has no clients to query")
    if not snapshot.inductive_capable:
        inductive_fraction = 0.0
    queries: List[Query] = []
    for _ in range(int(count)):
        client_id = ids[int(rng.integers(len(ids)))]
        entry = snapshot.entry(client_id)
        nodes = entry.graph.num_nodes
        if rng.random() < inductive_fraction:
            anchors = rng.choice(nodes, size=min(anchors_per_query, nodes),
                                 replace=False)
            base = np.asarray(entry.graph.features)[int(anchors[0])]
            features = base + feature_noise * rng.standard_normal(base.shape)
            queries.append(InductiveQuery(client_id, features, anchors))
        else:
            queries.append(TransductiveQuery(client_id,
                                             int(rng.integers(nodes))))
    return queries


def run_open_loop(engine, queries: Sequence[Query], rate: float, *,
                  seed: int = 0, timeout: float = 120.0) -> LoadReport:
    """Drive ``queries`` through ``engine`` at ``rate`` Poisson arrivals/s."""
    if rate <= 0:
        raise ValueError("arrival rate must be > 0 queries/sec")
    queries = list(queries)
    if not queries:
        raise ValueError("nothing to submit")
    rng = np.random.default_rng(seed)
    offsets = np.cumsum(rng.exponential(1.0 / rate, size=len(queries)))
    log_start = len(engine.batch_log)
    start = time.perf_counter()
    pending = []
    rejected = 0
    for query, offset in zip(queries, offsets):
        target = start + float(offset)
        delay = target - time.perf_counter()
        if delay > 0:
            time.sleep(delay)
        try:
            pending.append((target, engine.submit(query)))
        except AdmissionRejected:
            rejected += 1
    if not pending:
        raise RuntimeError(
            f"the admission queue rejected all {rejected} submissions")
    results = [(target, future.result(timeout=timeout))
               for target, future in pending]
    end = max(result.completed for _, result in results)
    duration = max(end - start, 1e-9)
    latencies_ms = np.array([(result.completed - target) * 1000.0
                             for target, result in results])
    batches = engine.batch_log[log_start:]
    triggers: Dict[str, int] = {}
    for record in batches:
        triggers[record["trigger"]] = triggers.get(record["trigger"], 0) + 1
    paths: Dict[str, int] = {}
    for _, result in results:
        paths[result.path] = paths.get(result.path, 0) + 1
    return LoadReport(
        queries=len(results),
        offered_qps=float(rate),
        achieved_qps=len(results) / duration,
        duration_s=duration,
        p50_ms=float(np.percentile(latencies_ms, 50)),
        p99_ms=float(np.percentile(latencies_ms, 99)),
        mean_ms=float(latencies_ms.mean()),
        max_ms=float(latencies_ms.max()),
        batches=len(batches),
        mean_batch=(sum(r["size"] for r in batches) / len(batches)
                    if batches else 0.0),
        triggers=triggers,
        paths=paths,
        rejected=rejected)
