"""Federated implementations of representative GNNs (FedGCN, FedGloGNN, ...).

These baselines apply plain FedAvg to a centralised GNN architecture: each
client trains the same architecture locally and the server averages weights.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.federated import FederatedConfig, FederatedTrainer
from repro.graph import Graph
from repro.models import (
    GAMLP,
    GCN,
    GCNII,
    GGCN,
    MLP,
    GPRGNN,
    GloGNN,
    SGC,
)
from repro.nn import Module


class FeatureOnlyModel(Module):
    """Adapter giving an MLP the ``forward(x, adjacency)`` graph-model API."""

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 dropout: float = 0.5, seed: int = 0):
        super().__init__()
        self.mlp = MLP(in_features, [hidden], out_features, dropout=dropout,
                       seed=seed)

    def forward(self, x, adjacency=None):
        del adjacency  # structure-agnostic baseline
        return self.mlp(x)


#: propagation depth each decoupled/propagation-family model defaults to
DEFAULT_PROPAGATION_DEPTH = {"sgc": 2, "gamlp": 3, "gprgnn": 4}


def make_model_factory(model_name: str, hidden: int = 64, dropout: float = 0.5,
                       seed: int = 0,
                       k: Optional[int] = None) -> Callable[[Graph], Module]:
    """Return a callable building the requested model for a client subgraph.

    ``k`` overrides the propagation depth of the decoupled/propagation
    family (SGC / GAMLP / GPR-GNN — every client must share it for the
    batched engine to fuse the federation); other models ignore it.
    """
    name = model_name.lower()
    depth = k if k is not None else DEFAULT_PROPAGATION_DEPTH.get(name)

    def factory(graph: Graph) -> Module:
        in_features = graph.num_features
        out_features = graph.num_classes
        if name == "mlp":
            return FeatureOnlyModel(in_features, hidden, out_features,
                                    dropout=dropout, seed=seed)
        if name == "gcn":
            return GCN(in_features, hidden, out_features, dropout=dropout,
                       seed=seed)
        if name == "sgc":
            return SGC(in_features, out_features, k=depth, seed=seed)
        if name == "gcnii":
            return GCNII(in_features, hidden, out_features, num_layers=4,
                         dropout=dropout, seed=seed)
        if name == "gamlp":
            return GAMLP(in_features, hidden, out_features, k=depth,
                         dropout=dropout, seed=seed)
        if name == "gprgnn":
            return GPRGNN(in_features, hidden, out_features, k=depth,
                          dropout=dropout, seed=seed)
        if name == "ggcn":
            return GGCN(in_features, hidden, out_features, dropout=dropout,
                        seed=seed)
        if name == "glognn":
            return GloGNN(in_features, hidden, out_features, dropout=dropout,
                          seed=seed)
        raise KeyError(f"unknown model '{model_name}'")

    return factory


class FederatedGNN(FederatedTrainer):
    """FedAvg applied to a centralised GNN architecture (e.g. FedGCN)."""

    def __init__(self, subgraphs: Sequence[Graph], model_name: str = "gcn",
                 hidden: int = 64, dropout: float = 0.5,
                 k: Optional[int] = None,
                 config: Optional[FederatedConfig] = None):
        self.model_name = model_name.lower()
        self.name = f"Fed{model_name.upper()}"
        factory = make_model_factory(
            model_name, hidden=hidden, dropout=dropout,
            seed=(config.seed if config else 0), k=k)
        super().__init__(subgraphs, factory, config)
