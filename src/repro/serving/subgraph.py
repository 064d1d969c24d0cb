"""k-hop receptive-field extraction for inductive serving queries.

An inductive query presents a node the snapshot has never seen: a feature
vector plus the ids of the existing local nodes it attaches to (its
*anchors*).  Answering it only needs the new node's receptive field — the
anchors and ``depth - 1`` hops around them, since the new node itself sits
one hop from its anchors — so the engine extracts that induced subgraph,
appends the new node last with symmetric unit edges to each anchor, and runs
the frozen model over the augmented block.  The model's own
``prepare_propagation`` then renormalizes the augmented adjacency, exactly
as it would for any client subgraph: an inductive answer is *defined* as
the model's forward over the extracted augmented subgraph, consistent with
the repo-wide convention that every client already computes on an induced
subgraph of some larger graph.

Extraction is structure-only (node set, augmented adjacency, base feature
slice); the query's feature vector is appended per query, so one extracted
block serves every query sharing ``(client, anchors)`` — that is what the
engine's LRU caches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
import scipy.sparse as sp

from repro.graph.normalize import canonical_csr, csr_from_entries
from repro.models.gamlp import GAMLP
from repro.models.gcn import GCN, SGC
from repro.models.gcnii import GCNII
from repro.models.ggcn import GGCN
from repro.models.gprgnn import GPRGNN


def receptive_depth(model) -> Optional[int]:
    """How many hops of structure one node's prediction can see.

    ``None`` means unbounded/unknown (e.g. GloGNN's global low-rank
    aggregation attends over every node pair): callers must keep the whole
    client graph.
    """
    if isinstance(model, (SGC, GAMLP, GPRGNN)):
        return int(model.k)
    if isinstance(model, (GCN, GGCN)):
        return len(model._layer_names)
    if isinstance(model, GCNII):
        return int(model.num_layers)
    return None


def _row_entries(indptr: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Positions of the stored entries of ``rows``, row after row."""
    starts = indptr[rows]
    counts = indptr[rows + 1] - starts
    return (np.repeat(starts - np.cumsum(counts) + counts, counts)
            + np.arange(counts.sum()))


def khop_nodes(adjacency, seeds: Sequence[int], depth: int) -> np.ndarray:
    """Sorted node ids within ``depth`` hops of ``seeds`` (seeds included).

    Every stored entry is an edge, explicit zeros included.
    """
    visited = np.unique(np.asarray(seeds, dtype=np.int64))
    depth = int(depth)
    if depth <= 0 or visited.size == 0:
        return visited
    if not (sp.issparse(adjacency) and adjacency.format == "csr"):
        adjacency = sp.csr_matrix(adjacency)
    indptr, indices = adjacency.indptr, adjacency.indices
    if visited[0] < 0 or visited[-1] >= adjacency.shape[0]:
        raise IndexError(f"seed ids {visited.tolist()} out of range for "
                         f"{adjacency.shape[0]} nodes")
    reached = np.zeros(adjacency.shape[0], dtype=bool)
    reached[visited] = True
    frontier = visited
    for _ in range(depth):
        neighbours = indices[_row_entries(indptr, frontier)]
        frontier = np.unique(neighbours[~reached[neighbours]])
        if frontier.size == 0:
            break
        reached[frontier] = True
    return np.flatnonzero(reached)


@dataclass(frozen=True)
class SubgraphBlock:
    """Structure-only extraction for one ``(client, anchors)`` pair.

    ``nodes`` are the base-graph ids inside the receptive field (sorted
    ascending); ``adjacency`` is the augmented CSR over ``len(nodes) + 1``
    nodes with the new node appended at position ``new_index == len(nodes)``
    and linked to each anchor in both directions; ``features`` is the base
    feature slice for ``nodes`` (the new node's row is appended per query).
    """

    nodes: np.ndarray
    adjacency: sp.csr_matrix
    features: np.ndarray
    new_index: int


def extract_block(graph, anchors: Sequence[int],
                  depth: Optional[int]) -> SubgraphBlock:
    """Extract the augmented receptive-field block for one anchor set.

    ``depth`` is the model's receptive depth (``None`` keeps the whole
    graph); the block spans ``depth - 1`` hops around the anchors because
    the new node adds the remaining hop.
    """
    anchors = np.unique(np.asarray(anchors, dtype=np.int64))
    if anchors.size == 0:
        raise ValueError("an inductive query needs at least one anchor node")
    if anchors[0] < 0 or anchors[-1] >= graph.num_nodes:
        raise ValueError(
            f"anchor ids {anchors.tolist()} out of range for a graph of "
            f"{graph.num_nodes} nodes")
    adjacency = canonical_csr(graph.adjacency)
    if depth is None:
        nodes = np.arange(graph.num_nodes, dtype=np.int64)
    else:
        nodes = khop_nodes(adjacency, anchors, max(int(depth) - 1, 0))
    size = int(nodes.size)
    # The induced block: the rows of ``nodes``, columns renumbered by
    # position in ``nodes`` (ascending, so sorted rows stay sorted) ...
    entries = _row_entries(adjacency.indptr, nodes)
    position = np.full(graph.num_nodes, -1, dtype=np.int64)
    position[nodes] = np.arange(size)
    cols = position[adjacency.indices[entries]]
    keep = cols >= 0
    rows = np.repeat(np.arange(size), np.diff(adjacency.indptr)[nodes])
    # ... each anchor row gaining the new node's column last, and the new
    # node's row listing the anchors.
    anchor_positions = np.searchsorted(nodes, anchors)
    new = np.full(anchors.size, size, dtype=np.int64)
    rows = np.concatenate([rows[keep], anchor_positions, new])
    order = np.argsort(rows, kind="stable")
    rows = rows[order]
    cols = np.concatenate([cols[keep], new, anchor_positions])[order]
    data = np.concatenate([adjacency.data[entries][keep],
                           np.ones(2 * anchors.size)])[order]
    block = csr_from_entries(size + 1, rows, cols, data)
    features = np.asarray(graph.features)[nodes]
    return SubgraphBlock(nodes=nodes, adjacency=block,
                         features=features, new_index=size)
