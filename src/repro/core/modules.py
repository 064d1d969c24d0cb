"""Step 2 building blocks: personalized propagation modules (Sec. III-C).

The per-client model combines:

* **knowledge smoothing** (Eq. 7) — k-step propagation of features through the
  optimized matrix P̃, learned by the ``MessageUpdater`` MLP (Θ_knowledge);
* **homophilous propagation** (Eq. 8–9) — knowledge-preserving loss plus the
  comprehensive prediction mixing knowledge embeddings with P̂;
* **heterophilous propagation** (Eq. 10–13) — topology-independent feature
  embedding (Θ_feature), global-dependent node embedding (the same knowledge
  embedding, without knowledge preservation) and the learnable positive /
  negative message-passing mechanism (Θ_message).
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd import Tensor, functional as F
from repro.autograd.backend import pattern_rows
from repro.core.propagation import PropagationCache
from repro.nn import Linear, MLP, Module
from repro.nn.module import Parameter

#: Propagation operators accepted throughout Step 2: dense arrays or any
#: scipy sparse matrix (the sparse-first engine hands around CSR).
PropagationMatrix = Union[np.ndarray, sp.spmatrix]


class MessageUpdater(Module):
    """MLP over concatenated multi-hop propagated features (Eq. 7)."""

    def __init__(self, in_features: int, hidden: int, out_features: int,
                 k: int, dropout: float = 0.3, seed: int = 0):
        super().__init__()
        self.k = k
        self.in_features = in_features
        self.mlp = MLP(in_features * k, [hidden], out_features,
                       dropout=dropout, seed=seed)

    def forward(self, propagated: Union[Sequence[Tensor], Tensor]) -> Tensor:
        if isinstance(propagated, Tensor):
            # Pre-concatenated (n, k·f) block straight from a PropagationCache.
            if propagated.shape[1] != self.k * self.in_features:
                raise ValueError(
                    f"expected a concatenated block of width "
                    f"{self.k * self.in_features}, got {propagated.shape[1]}")
            return self.mlp(propagated)
        if len(propagated) != self.k:
            raise ValueError(
                f"expected {self.k} propagated feature blocks, got {len(propagated)}")
        return self.mlp(F.concat(propagated, axis=1))


class LearnableMessagePassing(Module):
    """End-to-end learnable positive/negative message modelling (Eq. 11–12)."""

    def __init__(self, num_classes: int, num_layers: int = 2,
                 beta: float = 0.7, seed: int = 0):
        super().__init__()
        if num_layers < 1:
            raise ValueError("num_layers must be >= 1")
        if not 0.0 <= beta <= 1.0:
            raise ValueError("beta must be in [0, 1]")
        self.num_layers = num_layers
        self.beta = beta
        self._layer_names = []
        rng_seed = seed
        for index in range(num_layers):
            name = f"message{index}"
            setattr(self, name, Linear(num_classes, num_classes,
                                       rng=np.random.default_rng(rng_seed + index)))
            self._layer_names.append(name)

    def forward(self, knowledge_embedding: Tensor,
                propagation_matrix: PropagationMatrix) -> Tensor:
        """Run the signed message-passing refinement.

        ``knowledge_embedding`` is H_m^{(0)} = H̃ and ``propagation_matrix``
        is P̃^{(0)}; both are per-client quantities from Step 1.

        A dense P̃ follows the textbook Eq. 11–12 with an explicit ``(n, n)``
        similarity update.  A sparse P̃ routes through the sparse-first path
        instead: the similarity refinement is restricted to the fixed support
        of P̃ (an SDDMM), so the whole module stays ``O(nnz · c)``.  When P̃
        keeps every off-diagonal entry (``top_k=None``) the support is full
        and both paths coincide numerically.
        """
        h_m = knowledge_embedding
        if sp.issparse(propagation_matrix):
            return self._forward_sparse(h_m, propagation_matrix.tocsr())
        p_current = Tensor(np.asarray(propagation_matrix))
        for name in self._layer_names:
            h_m = F.relu(getattr(self, name)(h_m))
            similarity = h_m.matmul(h_m.T)
            p_current = p_current * self.beta + similarity * (1.0 - self.beta)
            h_pos = F.relu(p_current).matmul(h_m)
            h_neg = F.relu(-p_current).matmul(h_m)
            scale = 1.0 / max(1.0, float(h_m.shape[0]))
            h_m = h_m + (h_pos - h_neg) * scale
        return h_m

    def _forward_sparse(self, h_m: Tensor, pattern: sp.csr_matrix) -> Tensor:
        """Eq. 11–12 on the fixed support of a sparse P̃ (never ``(n, n)``).

        Eq. 12's positive and negative messages are one node,
        :func:`~repro.autograd.functional.signed_spmm_pattern`, bitwise the
        two-product composition it stands for.
        """
        rows = pattern_rows(pattern)
        cols = pattern.indices
        p_values = Tensor(pattern.data)
        scale = 1.0 / max(1.0, float(h_m.shape[0]))
        for name in self._layer_names:
            h_m = F.relu(getattr(self, name)(h_m))
            similarity = F.sddmm(rows, cols, h_m, h_m)
            p_values = p_values * self.beta + similarity * (1.0 - self.beta)
            messages = F.signed_spmm_pattern(pattern, p_values, h_m)
            h_m = h_m + messages * scale
        return h_m


class AdaFGLClientModel(Module):
    """The full per-client Step-2 model.

    Parameters
    ----------
    in_features / hidden / num_classes:
        Dimensions of the local subgraph problem.
    k_prop:
        Number of knowledge-smoothing propagation steps (Eq. 7).
    message_layers / beta:
        Depth and residual coefficient of the learnable message passing.
    use_topology_independent / use_learnable_message:
        Ablation switches for the heterophilous module (T.F. and L.M.).
    """

    def __init__(self, in_features: int, hidden: int, num_classes: int,
                 k_prop: int = 3, message_layers: int = 2, beta: float = 0.7,
                 dropout: float = 0.3, seed: int = 0,
                 use_topology_independent: bool = True,
                 use_learnable_message: bool = True):
        super().__init__()
        self.k_prop = k_prop
        self.num_classes = num_classes
        self.use_topology_independent = use_topology_independent
        self.use_learnable_message = use_learnable_message

        self.knowledge_updater = MessageUpdater(
            in_features, hidden, num_classes, k=k_prop, dropout=dropout,
            seed=seed)
        if use_topology_independent:
            self.feature_mlp = MLP(in_features, [hidden], num_classes,
                                   dropout=dropout, seed=seed + 7)
        if use_learnable_message:
            self.message_passing = LearnableMessagePassing(
                num_classes, num_layers=message_layers, beta=beta,
                seed=seed + 13)
        # Learnable combination of the heterophilous views (Eq. 13 uses a
        # plain average; a per-client softmax gate lets each client emphasise
        # whichever view its topology supports — see README, "Departures
        # from the paper").
        num_views = 1 + int(use_topology_independent) + int(use_learnable_message)
        self.view_logits = Parameter(np.zeros(num_views), name="view_logits")

    # ------------------------------------------------------------------
    def knowledge_embedding(self, features: np.ndarray,
                            propagation_matrix: PropagationMatrix,
                            cache: Optional[PropagationCache] = None) -> Tensor:
        """Eq. 7: H̃ from k-step smoothing through P̃ and the MessageUpdater.

        When a :class:`PropagationCache` is supplied, the k-hop products (and
        their concatenation) are constants fetched from the cache instead of
        being recomputed — they never change across epochs.  The cache is
        assumed to wrap the same operator as ``propagation_matrix``
        (``PersonalizedClient`` keeps the two in sync on reassignment).
        """
        if cache is not None:
            return self.knowledge_updater(cache.concatenated(self.k_prop))
        propagated: List[Tensor] = []
        current = F.as_tensor(features)
        if sp.issparse(propagation_matrix):
            operator = propagation_matrix.tocsr()
            for _ in range(self.k_prop):
                current = F.spmm(operator, current)
                propagated.append(current)
        else:
            # Wrap the dense operator exactly once, not per hop per epoch.
            operator = F.as_tensor(propagation_matrix)
            for _ in range(self.k_prop):
                current = operator.matmul(current)
                propagated.append(current)
        return self.knowledge_updater(propagated)

    def homophilous_prediction(self, knowledge_embedding: Tensor,
                               extractor_probs: np.ndarray) -> Tensor:
        """Eq. 9: Ŷ_ho = (softmax(H̃) + P̂) / 2."""
        return (F.softmax(knowledge_embedding, axis=-1)
                + Tensor(np.asarray(extractor_probs))) * 0.5

    def heterophilous_prediction(self, features: np.ndarray,
                                 knowledge_embedding: Tensor,
                                 propagation_matrix: PropagationMatrix) -> Tensor:
        """Eq. 13: gated combination of the available heterophilous views."""
        views = [F.softmax(knowledge_embedding, axis=-1)]
        if self.use_topology_independent:
            h_f = self.feature_mlp(Tensor(np.asarray(features)))
            views.append(F.softmax(h_f, axis=-1))
        if self.use_learnable_message:
            h_m = self.message_passing(knowledge_embedding, propagation_matrix)
            views.append(F.softmax(h_m, axis=-1))
        gates = F.softmax(self.view_logits.reshape(1, -1), axis=-1)
        combined = None
        for index, view in enumerate(views):
            weighted = view * gates[0, index]
            combined = weighted if combined is None else combined + weighted
        return combined

    def forward(self, features: np.ndarray,
                propagation_matrix: PropagationMatrix,
                extractor_probs: np.ndarray, hcs: float,
                cache: Optional[PropagationCache] = None) -> dict:
        """Produce every prediction head and the HCS-combined output (Eq. 17)."""
        knowledge = self.knowledge_embedding(features, propagation_matrix,
                                             cache=cache)
        y_ho = self.homophilous_prediction(knowledge, extractor_probs)
        y_he = self.heterophilous_prediction(features, knowledge,
                                             propagation_matrix)
        combined = y_ho * hcs + y_he * (1.0 - hcs)
        return {
            "knowledge": knowledge,
            "homophilous": y_ho,
            "heterophilous": y_he,
            "combined": combined,
        }
