"""Sparse graph utilities: edge-list conversion, k-hop operators, components."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.csgraph as csgraph


def edges_from_adjacency(adjacency: sp.spmatrix) -> np.ndarray:
    """Return the undirected edge list as an ``(m, 2)`` array with u < v."""
    coo = sp.coo_matrix(adjacency)
    mask = coo.row < coo.col
    return np.stack([coo.row[mask], coo.col[mask]], axis=1)


def adjacency_from_edges(edges: np.ndarray, num_nodes: int,
                         symmetric: bool = True) -> sp.csr_matrix:
    """Build a binary adjacency matrix from an ``(m, 2)`` edge list."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if edges.size == 0:
        return sp.csr_matrix((num_nodes, num_nodes))
    data = np.ones(edges.shape[0])
    adjacency = sp.coo_matrix(
        (data, (edges[:, 0], edges[:, 1])), shape=(num_nodes, num_nodes))
    if symmetric:
        adjacency = adjacency.maximum(adjacency.T)
    adjacency = sp.csr_matrix(adjacency)
    adjacency.data = np.ones_like(adjacency.data)
    adjacency.setdiag(0)
    adjacency.eliminate_zeros()
    return adjacency


def k_hop_adjacency(adjacency: sp.spmatrix, k: int) -> sp.csr_matrix:
    """Binary reachability within exactly ``k`` hops (powers of the adjacency)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    adjacency = sp.csr_matrix(adjacency)
    adjacency.data = np.ones_like(adjacency.data)
    power = adjacency.copy()
    for _ in range(k - 1):
        power = power @ adjacency
        power.data = np.ones_like(power.data)
    power.setdiag(0)
    power.eliminate_zeros()
    return power.tocsr()


def largest_connected_component(adjacency: sp.spmatrix) -> np.ndarray:
    """Return the node indices of the largest connected component."""
    n_components, component = csgraph.connected_components(
        sp.csr_matrix(adjacency), directed=False)
    if n_components <= 1:
        return np.arange(adjacency.shape[0])
    sizes = np.bincount(component)
    return np.nonzero(component == sizes.argmax())[0]


def subgraph(adjacency: sp.spmatrix, nodes: np.ndarray) -> sp.csr_matrix:
    """Induced-subgraph adjacency over ``nodes``."""
    nodes = np.asarray(nodes, dtype=np.int64)
    return sp.csr_matrix(adjacency)[nodes][:, nodes]
