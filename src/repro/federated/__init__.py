"""Federated learning framework: clients, server, engine, trainer."""

from repro.federated.client import Client
from repro.federated.server import DeterministicSum, Server, fedavg_aggregate
from repro.federated.engine import (
    AggregationContext,
    AggregationStrategy,
    BatchedBackend,
    ClientStore,
    ExecutionBackend,
    ModelSpec,
    ProcessPoolBackend,
    SerialBackend,
    StoreFederatedTrainer,
    list_backends,
    make_backend,
)
from repro.federated.trainer import FederatedTrainer, FederatedConfig
from repro.federated.communication import CommunicationTracker

__all__ = [
    "Client",
    "Server",
    "DeterministicSum",
    "fedavg_aggregate",
    "ClientStore",
    "ModelSpec",
    "StoreFederatedTrainer",
    "FederatedTrainer",
    "FederatedConfig",
    "CommunicationTracker",
    "AggregationContext",
    "AggregationStrategy",
    "ExecutionBackend",
    "SerialBackend",
    "ProcessPoolBackend",
    "BatchedBackend",
    "list_backends",
    "make_backend",
]
