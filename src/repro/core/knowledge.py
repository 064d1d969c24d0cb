"""Step 1 of AdaFGL: the federated knowledge extractor and topology optimisation.

The federated knowledge extractor is the global model aggregated in the final
round of standard federated collaborative training (Sec. III-B).  Each client
then uses its local predictions ``P̂ = f(X, A, W^{T+1})`` to build the corrected
probability propagation matrix

``P = α A + (1 − α) P̂ P̂ᵀ``                               (Eq. 5)

followed by the degree-style rescaling of Eq. 6 that removes self-affinity
bias and re-normalises the propagation weights.

Sparse-first engine
-------------------
The ``P̂ P̂ᵀ`` similarity term is dense by construction, so the textbook
implementation materialises an ``(n, n)`` array per client.  For the hot path
we instead offer a *top-k sparsified* variant (``sparse=True``): the local
topology term stays in CSR form and only the ``top_k`` strongest similarity
entries per row are kept, computed blockwise so the full dense product is
never materialised.  With ``top_k=None`` the sparse path keeps every
off-diagonal similarity entry and is numerically identical to the dense path
(used by the equivalence tests); with small ``top_k`` it is an approximation
that preserves accuracy in practice (see ``benchmarks/bench_perf.py``) while
cutting both memory and the per-epoch propagation cost from ``O(n²)`` to
``O(n·k)``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.federated import FederatedConfig
from repro.fgl.fedgnn import FederatedGNN
from repro.graph import Graph
from repro.graph.normalize import normalize_adjacency
from repro.metrics import TrainingHistory


def _topk_similarity(probabilities: np.ndarray, top_k: Optional[int],
                     block_size: int = 2048) -> sp.csr_matrix:
    """Top-k rows of ``P̂ P̂ᵀ`` (diagonal excluded), computed blockwise.

    Only ``block_size`` rows of the similarity product exist at any moment,
    so peak memory is ``O(block_size · n)`` instead of ``O(n²)``.
    """
    probabilities = np.asarray(probabilities, dtype=np.float64)
    n = probabilities.shape[0]
    k = n - 1 if top_k is None else min(int(top_k), n - 1)
    if k <= 0:
        return sp.csr_matrix((n, n), dtype=np.float64)

    rows: List[np.ndarray] = []
    cols: List[np.ndarray] = []
    vals: List[np.ndarray] = []
    for start in range(0, n, block_size):
        stop = min(start + block_size, n)
        block = probabilities[start:stop] @ probabilities.T
        # Eq. 6 removes self-affinity anyway, so never spend top-k slots on it.
        local_rows = np.arange(stop - start)
        block[local_rows, np.arange(start, stop)] = -np.inf
        if k < n - 1:
            idx = np.argpartition(block, -k, axis=1)[:, -k:]
        else:
            idx = np.argsort(block, axis=1)[:, 1:]
        val = np.take_along_axis(block, idx, axis=1)
        keep = val > 0.0
        row_ids = np.broadcast_to(local_rows[:, None] + start, idx.shape)
        rows.append(row_ids[keep])
        cols.append(idx[keep])
        vals.append(val[keep])

    matrix = sp.csr_matrix(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(n, n), dtype=np.float64)
    return matrix


def _debias_sparse(blended: sp.spmatrix, n: int) -> sp.csr_matrix:
    """Eq. 6 on a sparse blend: zero diagonal, row-normalise, tiny self-loop."""
    coo = blended.tocoo()
    off_diag = coo.row != coo.col
    corrected = sp.csr_matrix(
        (coo.data[off_diag], (coo.row[off_diag], coo.col[off_diag])),
        shape=(n, n), dtype=np.float64)

    row_scale = np.asarray(corrected.sum(axis=1)).ravel()
    row_scale[row_scale <= 1e-12] = 1.0
    row_nnz = np.diff(corrected.indptr)
    corrected.data /= np.repeat(row_scale, row_nnz)

    # Small self-loop so isolated nodes still propagate their own signal
    # (sparse counterpart of the in-place diagonal update on the dense path).
    corrected = (corrected + sp.diags(np.full(n, 1e-3), format="csr")).tocsr()
    total = np.asarray(corrected.sum(axis=1)).ravel()
    corrected.data /= np.repeat(total, np.diff(corrected.indptr))
    return corrected


def optimized_propagation_matrix(adjacency: sp.spmatrix,
                                 probabilities: np.ndarray,
                                 alpha: float = 0.7,
                                 *,
                                 sparse: bool = False,
                                 top_k: Optional[int] = None,
                                 block_size: int = 2048,
                                 ) -> Union[np.ndarray, sp.csr_matrix]:
    """Build the federated-knowledge-guided propagation matrix P̃ (Eq. 5–6).

    Parameters
    ----------
    adjacency:
        Local subgraph adjacency (unnormalised, no self-loops).
    probabilities:
        Class-probability matrix ``P̂`` produced by the federated knowledge
        extractor on the local nodes, shape ``(n, num_classes)``.
    alpha:
        Topology-optimisation coefficient: 1.0 keeps the original topology,
        0.0 relies entirely on prediction similarity.
    sparse:
        Return a :class:`scipy.sparse.csr_matrix` built without ever
        materialising the dense ``P̂ P̂ᵀ`` product.
    top_k:
        Number of similarity entries kept per row on the sparse path
        (``None`` keeps all off-diagonal entries, which is numerically
        identical to the dense path).  Only valid with ``sparse=True``.
    block_size:
        Row-block size of the blockwise similarity sweep (sparse path only).

    Returns
    -------
    A row-normalised ``(n, n)`` propagation matrix: dense ``np.ndarray`` by
    default, CSR when ``sparse=True``.
    """
    if not 0.0 <= alpha <= 1.0:
        raise ValueError("alpha must be in [0, 1]")
    if top_k is not None and not sparse:
        raise ValueError("top_k is only meaningful with sparse=True")
    if top_k is not None and top_k < 1:
        raise ValueError("top_k must be >= 1")
    probabilities = np.asarray(probabilities, dtype=np.float64)
    n = probabilities.shape[0]
    if adjacency.shape[0] != n:
        raise ValueError("adjacency and probabilities disagree on node count")

    local = normalize_adjacency(adjacency, r=0.5, self_loops=True)

    if sparse:
        similarity = _topk_similarity(probabilities, top_k,
                                      block_size=block_size)
        blended = (alpha * local + (1.0 - alpha) * similarity).tocsr()
        return _debias_sparse(blended, n)

    similarity = probabilities @ probabilities.T

    blended = alpha * local.toarray()
    blended += (1.0 - alpha) * similarity

    # Eq. 6: remove the self-affinity diagonal and rescale by the pairwise
    # "identity distance" so that no single node dominates the propagation.
    np.fill_diagonal(blended, 0.0)
    row_scale = blended.sum(axis=1, keepdims=True)
    row_scale[row_scale <= 1e-12] = 1.0
    blended /= row_scale

    # Keep a small self-loop so isolated nodes still propagate their own
    # signal (in-place diagonal update; no dense identity allocation).
    diag = np.arange(n)
    blended[diag, diag] += 1e-3
    blended /= blended.sum(axis=1, keepdims=True)
    return blended


class FederatedKnowledgeExtractor:
    """Runs Step 1 and exposes the per-client knowledge products.

    In our implementation the extractor is a federated GCN trained with
    FedAvg (the paper's default); any :class:`repro.fgl.FederatedGNN` model
    name can be substituted.  ``client_probabilities`` is computed once after
    Step 1 and cached — P̂ depends only on the final broadcast global model,
    so repeated calls (per-client P̃ construction, ablations, reports) reuse
    the same arrays.
    """

    def __init__(self, subgraphs: Sequence[Graph], model_name: str = "gcn",
                 hidden: int = 64,
                 config: Optional[FederatedConfig] = None):
        self.config = config or FederatedConfig()
        self.trainer = FederatedGNN(list(subgraphs), model_name=model_name,
                                    hidden=hidden, config=self.config)
        self.history: Optional[TrainingHistory] = None
        self._probabilities: Optional[List[np.ndarray]] = None

    def run(self, rounds: Optional[int] = None) -> TrainingHistory:
        """Execute the standard federated collaborative training (Alg. 1)."""
        self._probabilities = None
        self.history = self.trainer.run(rounds=rounds)
        return self.history

    @property
    def global_state(self) -> Dict[str, np.ndarray]:
        return self.trainer.global_state

    def client_probabilities(self, refresh: bool = False) -> List[np.ndarray]:
        """``P̂_i`` for every client using the final broadcast global model.

        Cached after the first call; pass ``refresh=True`` to force a
        recomputation (e.g. after manually mutating the global state).
        """
        if refresh or self._probabilities is None:
            if refresh:
                # Punch through the per-client prediction cache too, so
                # out-of-band weight mutations are picked up.
                for client in self.trainer.clients:
                    client.invalidate_cache()
            self._probabilities = [client.predict()
                                   for client in self.trainer.clients]
        return self._probabilities

    def client_graphs(self) -> List[Graph]:
        return [client.graph for client in self.trainer.clients]

    def optimized_matrices(self, alpha: float = 0.7, *, sparse: bool = False,
                           top_k: Optional[int] = None
                           ) -> List[Union[np.ndarray, sp.csr_matrix]]:
        """The optimized propagation matrix P̃ for every client (Eq. 5–6)."""
        return [
            optimized_propagation_matrix(graph.adjacency, probs, alpha=alpha,
                                         sparse=sparse, top_k=top_k)
            for graph, probs in zip(self.client_graphs(),
                                    self.client_probabilities())
        ]
