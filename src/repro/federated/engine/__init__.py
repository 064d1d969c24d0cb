"""The unified federation engine: execution backends × aggregation strategies.

Two orthogonal plug-in axes shared by Step-1 collaborative training, the
five FGL baselines and AdaFGL:

* **Execution backends** (:mod:`~repro.federated.engine.backends`) decide
  *how* the selected participants run their local epochs each round —
  serially, in a process pool, or fused into one batched autograd graph
  (:mod:`~repro.federated.engine.batched`).  All backends reconstruct the
  serial training state (weights, optimizer moments, RNG streams) exactly.
* **Aggregation strategies** (:mod:`~repro.federated.engine.aggregation`)
  decide *what* the server does with the uploaded states — FedAvg for
  every trainer, or the personalized schemes the FED-PUB / GCFL+ baselines
  declare.

Select the backend through :class:`~repro.federated.FederatedConfig`
(``backend=``) or the CLI (``--backend``); every execution knob is declared
once, in :class:`~repro.federated.engine.config.EngineConfig`.
"""

from repro.federated.engine.aggregation import (
    AggregationContext,
    AggregationStrategy,
    FedAvgAggregation,
    StreamingAggregate,
)
from repro.federated.engine.backends import (
    BACKEND_REGISTRY,
    ExecutionBackend,
    PendingRound,
    ProcessPoolBackend,
    SerialBackend,
    list_backends,
    make_backend,
    register_backend,
    restore_client_state,
    snapshot_client_state,
)
from repro.federated.engine.batched import (
    BatchedBackend,
    build_eval_plan,
    group_states_by_identity,
)
from repro.federated.engine.clientstore import (
    ClientStore,
    ModelSpec,
    StoreFederatedTrainer,
)
from repro.federated.engine.config import (
    EngineConfig,
    check_composition,
    engine_fields,
)
from repro.federated.engine.faults import (
    DOWNLINK_KINDS,
    NETWORK_KINDS,
    FaultEvent,
    FaultPlan,
    payload_checksum,
)
from repro.federated.engine.persistent import (
    BroadcastCorrupted,
    PersistentWorkerPool,
    WorkerCrash,
    WorkerError,
    apply_state_delta,
    apply_topk_delta,
    encode_state_delta,
    encode_topk_delta,
    pack_indices,
    quantise_uniform,
    unpack_indices,
)
from repro.federated.engine.pipeline import (
    AsyncRoundLoop,
    SyncRoundLoop,
    resolve_round_loop,
)
from repro.federated.engine.transport import (
    TRANSPORTS,
    PipeTransport,
    TcpTransport,
    TransportKnobs,
    WanLink,
    WanModel,
    WorkerTransport,
    make_transport,
    run_tcp_worker,
)

__all__ = [
    "AggregationContext",
    "AggregationStrategy",
    "FedAvgAggregation",
    "StreamingAggregate",
    "BACKEND_REGISTRY",
    "ExecutionBackend",
    "PendingRound",
    "SerialBackend",
    "ProcessPoolBackend",
    "BatchedBackend",
    "build_eval_plan",
    "group_states_by_identity",
    "quantise_uniform",
    "list_backends",
    "make_backend",
    "register_backend",
    "snapshot_client_state",
    "restore_client_state",
    "DOWNLINK_KINDS",
    "NETWORK_KINDS",
    "FaultEvent",
    "FaultPlan",
    "payload_checksum",
    "BroadcastCorrupted",
    "PersistentWorkerPool",
    "WorkerCrash",
    "WorkerError",
    "encode_state_delta",
    "apply_state_delta",
    "encode_topk_delta",
    "apply_topk_delta",
    "pack_indices",
    "unpack_indices",
    "ClientStore",
    "ModelSpec",
    "StoreFederatedTrainer",
    "EngineConfig",
    "check_composition",
    "engine_fields",
    "AsyncRoundLoop",
    "SyncRoundLoop",
    "resolve_round_loop",
    "TRANSPORTS",
    "PipeTransport",
    "TcpTransport",
    "TransportKnobs",
    "WanLink",
    "WanModel",
    "WorkerTransport",
    "make_transport",
    "run_tcp_worker",
]
