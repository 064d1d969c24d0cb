"""The :class:`Graph` container used throughout the library.

A graph bundles a sparse adjacency matrix, dense node features, integer node
labels and (optional) train/val/test masks.  All federated splits, datasets
and models exchange this type.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional

import numpy as np
import scipy.sparse as sp


@dataclass
class Graph:
    """An attributed, labelled graph for semi-supervised node classification.

    Attributes
    ----------
    adjacency:
        Symmetric sparse adjacency matrix without self-loops, shape ``(n, n)``.
    features:
        Dense node feature matrix, shape ``(n, f)``.
    labels:
        Integer class labels, shape ``(n,)``.
    train_mask / val_mask / test_mask:
        Boolean masks of shape ``(n,)``; may be all-False if unset.
    name:
        Optional human-readable dataset name.
    metadata:
        Free-form dictionary (e.g. original global node ids after a split).
    """

    adjacency: sp.spmatrix
    features: np.ndarray
    labels: np.ndarray
    train_mask: Optional[np.ndarray] = None
    val_mask: Optional[np.ndarray] = None
    test_mask: Optional[np.ndarray] = None
    name: str = "graph"
    metadata: Dict = field(default_factory=dict)

    def __post_init__(self):
        self.adjacency = sp.csr_matrix(self.adjacency, dtype=np.float64)
        self.features = np.asarray(self.features, dtype=np.float64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.adjacency.shape[0]
        if self.adjacency.shape[0] != self.adjacency.shape[1]:
            raise ValueError("adjacency must be square")
        if self.features.shape[0] != n:
            raise ValueError(
                f"features have {self.features.shape[0]} rows but the graph "
                f"has {n} nodes")
        if self.labels.shape[0] != n:
            raise ValueError(
                f"labels have {self.labels.shape[0]} entries but the graph "
                f"has {n} nodes")
        for attr in ("train_mask", "val_mask", "test_mask"):
            mask = getattr(self, attr)
            if mask is None:
                setattr(self, attr, np.zeros(n, dtype=bool))
            else:
                mask = np.asarray(mask, dtype=bool)
                if mask.shape[0] != n:
                    raise ValueError(f"{attr} has wrong length {mask.shape[0]}")
                setattr(self, attr, mask)

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def num_nodes(self) -> int:
        return self.adjacency.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return int(self.adjacency.nnz // 2)

    @property
    def num_features(self) -> int:
        return self.features.shape[1]

    @property
    def num_classes(self) -> int:
        """Number of classes in the *global* problem.

        Subgraphs produced by the split strategies may not contain every
        class, so the global class count is carried through ``metadata``
        (falling back to ``labels.max() + 1`` for standalone graphs).
        """
        declared = self.metadata.get("num_classes")
        if declared is not None:
            return int(declared)
        return int(self.labels.max()) + 1 if self.labels.size else 0

    @property
    def degrees(self) -> np.ndarray:
        return np.asarray(self.adjacency.sum(axis=1)).ravel()

    def train_indices(self) -> np.ndarray:
        return np.nonzero(self.train_mask)[0]

    def val_indices(self) -> np.ndarray:
        return np.nonzero(self.val_mask)[0]

    # ------------------------------------------------------------------
    # Manipulation
    # ------------------------------------------------------------------
    def copy(self) -> "Graph":
        return Graph(
            adjacency=self.adjacency.copy(),
            features=self.features.copy(),
            labels=self.labels.copy(),
            train_mask=self.train_mask.copy(),
            val_mask=self.val_mask.copy(),
            test_mask=self.test_mask.copy(),
            name=self.name,
            metadata=dict(self.metadata),
        )

    def with_adjacency(self, adjacency: sp.spmatrix) -> "Graph":
        """Return a copy of the graph with a replaced adjacency matrix."""
        out = self.copy()
        out.adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
        if out.adjacency.shape != (self.num_nodes, self.num_nodes):
            raise ValueError("replacement adjacency has the wrong shape")
        return out

    def node_subgraph(self, nodes: np.ndarray, name: Optional[str] = None) -> "Graph":
        """Extract the induced subgraph over ``nodes`` (keeps split masks)."""
        nodes = np.asarray(nodes, dtype=np.int64)
        adjacency = self.adjacency[nodes][:, nodes]
        return Graph(
            adjacency=adjacency,
            features=self.features[nodes],
            labels=self.labels[nodes],
            train_mask=self.train_mask[nodes],
            val_mask=self.val_mask[nodes],
            test_mask=self.test_mask[nodes],
            name=name or f"{self.name}-sub",
            metadata={**self.metadata, "global_ids": nodes.copy(),
                      "num_classes": self.num_classes},
        )

    def label_onehot(self) -> np.ndarray:
        """Return labels as a one-hot matrix of shape ``(n, num_classes)``."""
        onehot = np.zeros((self.num_nodes, self.num_classes))
        onehot[np.arange(self.num_nodes), self.labels] = 1.0
        return onehot

    def label_distribution(self) -> np.ndarray:
        """Return the class histogram (counts per class)."""
        return np.bincount(self.labels, minlength=self.num_classes)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (f"Graph(name={self.name!r}, nodes={self.num_nodes}, "
                f"edges={self.num_edges}, features={self.num_features}, "
                f"classes={self.num_classes})")
