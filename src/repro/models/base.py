"""Common interface for graph models.

Every model implements ``forward(x, adjacency)`` where ``x`` is a feature
:class:`~repro.autograd.Tensor` and ``adjacency`` is the *raw* (unnormalised)
sparse adjacency of the local subgraph; each model applies its propagation
operator internally, read from one cache keyed on the adjacency object (by
identity), so nothing that sees the same subgraph twice re-normalises it.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.autograd import Tensor
from repro.autograd.backend import cached_structure, cached_transpose
from repro.graph.normalize import normalize_adjacency
from repro.nn import Module


def prepare_propagation(adjacency: sp.spmatrix, r: float = 0.5,
                        self_loops: bool = True) -> sp.csr_matrix:
    """Symmetric-normalised propagation operator (Eq. 1 with r = 1/2)."""
    return normalize_adjacency(adjacency, r=r, self_loops=self_loops)


def propagation_operator(adjacency: sp.spmatrix,
                         r: float = 0.5) -> sp.csr_matrix:
    """:func:`prepare_propagation`, built once per live ``adjacency`` object.

    The one cache of normalised operators — models, batched plans and the
    serving snapshot all read it — held in the dispatch layer's structure
    cache: an operator lives exactly as long as its adjacency, which must
    therefore not be mutated in place after its first use.
    """
    return cached_structure(adjacency, prepare_propagation, r)


class GraphModel(Module):
    """Base class routing every model through the shared operator cache."""

    def propagation_matrix(self, adjacency: sp.spmatrix,
                           r: float = 0.5) -> sp.csr_matrix:
        return propagation_operator(adjacency, r)

    def propagation_matrix_t(self, adjacency: sp.spmatrix,
                             r: float = 0.5) -> sp.csr_matrix:
        """CSR transpose of :meth:`propagation_matrix`, cached alongside it.

        The hot operand of every ``spmm`` backward (``P̃ᵀ @ grad``): passing
        it as ``adjacency_t`` replaces the per-backward CSC product with a
        cached CSR one.  Both accumulate each output row's contributions in
        ascending source-row order, so results are bitwise-unchanged.

        Delegates to the dispatch layer's process-wide
        :func:`~repro.autograd.backend.cached_transpose`, the same cache the
        ``spmm`` backward consults when no ``adjacency_t`` is supplied — so
        serial, batched and personalized paths all share one transpose per
        operator object.
        """
        return cached_transpose(self.propagation_matrix(adjacency, r=r))

    def forward(self, x: Tensor, adjacency: sp.spmatrix) -> Tensor:
        raise NotImplementedError

    def predict_probabilities(self, x, adjacency) -> np.ndarray:
        """Convenience inference helper returning softmax probabilities."""
        from repro.autograd import functional as F
        from repro.autograd import no_grad

        was_training = self.training
        self.eval()
        with no_grad():
            logits = self.forward(F.as_tensor(x), adjacency)
            probs = F.softmax(logits, axis=-1).numpy()
        if was_training:
            self.train()
        return probs
