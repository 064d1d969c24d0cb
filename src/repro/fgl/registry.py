"""Unified construction of every federated method evaluated in the paper.

Every trainer built here runs through the federation engine
(:mod:`repro.federated.engine`): the ``config`` argument's ``backend`` /
``num_workers`` fields select the execution backend.  ``fed-pub`` and
``gcfl+`` declare their own aggregation strategy; the rest aggregate with
FedAvg.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

from repro.federated import FederatedConfig, FederatedTrainer
from repro.fgl.fedgl import FedGL
from repro.fgl.fedgnn import FederatedGNN
from repro.fgl.fedpub import FedPub
from repro.fgl.fedsage import FedSagePlus
from repro.fgl.gcfl import GCFLPlus
from repro.graph import Graph


def _fed_gnn(model_name: str):
    def build(subgraphs, config, hidden):
        return FederatedGNN(subgraphs, model_name=model_name, hidden=hidden,
                            config=config)
    return build


BASELINE_REGISTRY: Dict[str, Callable] = {
    # Federated implementations of centralised GNNs.
    "fedmlp": _fed_gnn("mlp"),
    "fedgcn": _fed_gnn("gcn"),
    "fedsgc": _fed_gnn("sgc"),
    "fedgcnii": _fed_gnn("gcnii"),
    "fedgamlp": _fed_gnn("gamlp"),
    "fedgprgnn": _fed_gnn("gprgnn"),
    "fedggcn": _fed_gnn("ggcn"),
    "fedglognn": _fed_gnn("glognn"),
    # FGL-specific baselines.
    "fedgl": lambda subgraphs, config, hidden: FedGL(
        subgraphs, hidden=hidden, config=config),
    "gcfl+": lambda subgraphs, config, hidden: GCFLPlus(
        subgraphs, hidden=hidden, config=config),
    "fedsage+": lambda subgraphs, config, hidden: FedSagePlus(
        subgraphs, hidden=hidden, config=config),
    "fed-pub": lambda subgraphs, config, hidden: FedPub(
        subgraphs, hidden=hidden, config=config),
}


def list_baselines() -> List[str]:
    """Names of every registered federated baseline."""
    return sorted(BASELINE_REGISTRY)


def build_baseline(name: str, subgraphs: Sequence[Graph],
                   config: Optional[FederatedConfig] = None,
                   hidden: int = 64) -> FederatedTrainer:
    """Instantiate a federated baseline by name."""
    key = name.lower()
    if key not in BASELINE_REGISTRY:
        raise KeyError(
            f"unknown baseline '{name}'; available: {', '.join(list_baselines())}")
    return BASELINE_REGISTRY[key](list(subgraphs), config or FederatedConfig(),
                                  hidden)
