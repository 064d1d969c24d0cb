"""Online serving: frozen snapshots, micro-batched queries, load tooling.

Layered as the serving PR describes:

* :mod:`repro.serving.snapshot` — :class:`ServingSnapshot`, an immutable
  export of a trained federation (from a live trainer, a finished AdaFGL
  run, or a checkpoint file) with transductive answers precomputed;
* :mod:`repro.serving.engine` — :class:`QueryEngine`, an admission queue
  with adaptive micro-batching over the snapshot (transductive table reads,
  fused batched inductive forwards, subgraph LRU);
* :mod:`repro.serving.loadgen` — open-loop Poisson load generation and
  latency reporting shared by ``repro.cli serve`` and
  ``benchmarks/bench_serving.py``.
"""

from repro.serving.engine import (
    AdmissionRejected,
    InductiveQuery,
    QueryEngine,
    QueryResult,
    SubgraphLRU,
    TransductiveQuery,
)
from repro.serving.loadgen import LoadReport, build_query_mix, run_open_loop
from repro.serving.snapshot import ClientEntry, ServingSnapshot
from repro.serving.subgraph import (
    SubgraphBlock,
    extract_block,
    khop_nodes,
    receptive_depth,
)

__all__ = [
    "AdmissionRejected",
    "ClientEntry",
    "InductiveQuery",
    "LoadReport",
    "QueryEngine",
    "QueryResult",
    "ServingSnapshot",
    "SubgraphBlock",
    "SubgraphLRU",
    "TransductiveQuery",
    "build_query_mix",
    "extract_block",
    "khop_nodes",
    "receptive_depth",
    "run_open_loop",
]
