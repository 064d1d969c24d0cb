"""Functional operations used by the GNN layers.

Everything here returns a :class:`~repro.autograd.tensor.Tensor` that is wired
into the autodiff graph.  Sparse propagation matrices (scipy CSR) enter the
graph as constants through :func:`spmm`.

The sparse/fused hot-path primitives (``spmm``, ``spmm_batched``, ``sddmm``,
``spmm_pattern``, ``signed_spmm_pattern``, ``dropout``) contain **no array
math of their own**: they dispatch to the kernel table ``backend``
(:class:`~repro.autograd.backend.ArrayBackend`;
``tools/check_backend_dispatch.py`` rejects bare ``np.`` calls inside them),
so a kernel swapped on the table serves every caller.  Only
``signed_spmm_pattern``'s sign masks are elementwise operators of its own,
as ``Tensor.relu`` and ``Tensor.__neg__`` would compute them.
"""

from __future__ import annotations

from typing import Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.autograd.backend import resolve_backend
from repro.autograd.tensor import (
    Tensor,
    _unbroadcast,
    is_grad_enabled,
    scratch,
)

ArrayOrTensor = Union[np.ndarray, Tensor]

#: the kernel table the hot paths dispatch through
backend = resolve_backend(None)


def as_tensor(value: ArrayOrTensor, requires_grad: bool = False) -> Tensor:
    """Coerce a numpy array (or tensor) into a :class:`Tensor`."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value, requires_grad=requires_grad)


# ----------------------------------------------------------------------
# Sparse propagation
# ----------------------------------------------------------------------
def spmm(adjacency: sp.spmatrix, dense: Tensor,
         adjacency_t: Optional[sp.spmatrix] = None) -> Tensor:
    """Multiply a constant sparse matrix by a dense tensor: ``A @ X``.

    The sparse operand is treated as a constant (no gradient flows into the
    adjacency), matching how propagation matrices are used in GNNs.  Callers
    on a hot path may pass ``adjacency_t`` (a precomputed ``A.T`` in CSR
    form); otherwise the backward reuses the dispatch layer's shared
    structure cache, so no path re-transposes per call.
    """
    if not sp.issparse(adjacency):
        raise TypeError("spmm expects a scipy sparse matrix as first operand")
    adjacency = adjacency.tocsr()
    out_data = backend.spmm(adjacency, dense.data)

    def backward(grad):
        dense._accumulate(backend.spmm_backward(adjacency, adjacency_t, grad))

    return Tensor._make(out_data, (dense,), backward)


def propagate(adjacency: Union[sp.spmatrix, np.ndarray], features: Tensor) -> Tensor:
    """Propagate ``features`` with either a sparse or dense operator."""
    if sp.issparse(adjacency):
        return spmm(adjacency, features)
    return as_tensor(adjacency).matmul(features)


def spmm_batched(adjacency: sp.spmatrix, dense: Tensor,
                 adjacency_t: Optional[sp.spmatrix] = None) -> Tensor:
    """``A @ X`` for a stacked dense tensor ``X`` of shape ``(B, n, f)``.

    ``adjacency`` is the ``(B·n, B·n)`` block-diagonal operator whose ``i``-th
    block acts on batch entry ``i`` (rows of absent nodes are all-zero).  The
    stacked tensor is routed through the 2-D :func:`spmm` kernel via
    differentiable reshapes, so one sparse product propagates every batch
    entry — the propagation step of the batched execution backend.  Both
    products land in the open :class:`~repro.autograd.tensor.Workspace`'s
    buffers when there is one (``out=None`` otherwise: the kernel allocates).
    """
    if dense.ndim != 3:
        raise ValueError(
            f"spmm_batched expects a (B, n, f) tensor, got shape {dense.shape}")
    batch, nodes, channels = dense.shape
    if adjacency.shape[0] != batch * nodes:
        raise ValueError(
            f"block-diagonal operator has {adjacency.shape[0]} rows, "
            f"expected {batch * nodes}")
    adjacency = adjacency.tocsr()
    out_data = backend.spmm_batched(adjacency, dense.data,
                                    out=scratch(dense.shape))

    def backward(grad):
        flat = grad.reshape(batch * nodes, channels)
        dense._accumulate(
            backend.spmm_backward(adjacency, adjacency_t, flat,
                                  out=scratch(flat.shape)
                                  ).reshape(batch, nodes, channels))

    return Tensor._make(out_data, (dense,), backward)


def sddmm(rows: np.ndarray, cols: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Sampled dense-dense matmul: ``out[e] = a[rows[e]] · b[cols[e]]``.

    Computes the entries of ``A Bᵀ`` only at the sampled ``(rows, cols)``
    positions — ``O(nnz · c)`` instead of ``O(n² · c)`` — and is
    differentiable in both dense operands.  This is the similarity kernel of
    the sparse-first message passing: restricted to a fixed support, the
    ``H Hᵀ`` update never materialises an ``(n, n)`` matrix.
    """
    out_data = backend.sddmm(rows, cols, a.data, b.data)

    def backward(grad):
        grad_a, grad_b = backend.sddmm_backward(
            rows, cols, a.data, b.data, grad,
            a.requires_grad, b.requires_grad)
        if grad_a is not None:
            a._accumulate(grad_a)
        if grad_b is not None:
            b._accumulate(grad_b)

    return Tensor._make(out_data, (a, b), backward)


def _checked_pattern(pattern: sp.csr_matrix, values: Tensor, name: str
                    ) -> sp.csr_matrix:
    """``pattern`` as CSR, checked to hold one entry of ``values`` per
    stored element."""
    if not sp.issparse(pattern):
        raise TypeError(f"{name} expects a scipy sparse pattern")
    pattern = pattern.tocsr()
    if values.data.shape != (pattern.nnz,):
        raise ValueError(
            f"values must have one entry per stored element "
            f"({pattern.nnz}), got shape {values.data.shape}")
    return pattern


def spmm_pattern(pattern: sp.csr_matrix, values: Tensor,
                 dense: Tensor) -> Tensor:
    """``S(values) @ dense`` where ``S`` has the fixed CSR ``pattern``.

    Unlike :func:`spmm`, the nonzero *values* are a differentiable tensor
    (one entry per stored position of ``pattern``, in CSR order); only the
    sparsity structure is constant.  Gradients: ``d values = sddmm(grad,
    dense)`` on the pattern and ``d dense = Sᵀ grad``.
    """
    pattern = _checked_pattern(pattern, values, "spmm_pattern")
    out_data, handle = backend.spmm_pattern(pattern, values.data, dense.data)

    def backward(grad):
        if values.requires_grad:
            values._accumulate(
                backend.spmm_pattern_backward_values(pattern, grad,
                                                     dense.data))
        if dense.requires_grad:
            dense._accumulate(backend.spmm_pattern_backward_dense(handle,
                                                                  grad))

    return Tensor._make(out_data, (values, dense), backward)


def signed_spmm_pattern(pattern: sp.csr_matrix, values: Tensor,
                        dense: Tensor) -> Tensor:
    """``S(relu(values)) @ dense − S(relu(−values)) @ dense`` as one node.

    The positive and negative messages of the learnable message passing
    (Eq. 11–12) on the fixed CSR ``pattern``, bit for bit the composition
    ``spmm_pattern(pattern, relu(values), dense) − spmm_pattern(pattern,
    relu(−values), dense)`` it replaces: the same two products and
    difference forward, and backward the same contributions, accumulated
    into ``values`` and ``dense`` in the composition's order.  ``grad`` is
    gathered once: with ``d`` the positive product's values-gradient, the
    negative product's is ``−d`` exactly (``sddmm(−grad, dense)``), so the
    composition's ``−((−d) · [−values > 0])`` is ``d · [−values > 0]``,
    bit for bit.
    """
    pattern = _checked_pattern(pattern, values, "signed_spmm_pattern")
    negated = -values.data
    positive = values.data > 0
    negative = negated > 0
    pos_data, pos_handle = backend.spmm_pattern(
        pattern, values.data * positive, dense.data)
    neg_data, neg_handle = backend.spmm_pattern(
        pattern, negated * negative, dense.data)

    def backward(grad):
        if values.requires_grad:
            values_grad = backend.spmm_pattern_backward_values(
                pattern, grad, dense.data)
            values._accumulate(values_grad * positive)
        if dense.requires_grad:
            dense._accumulate(
                backend.spmm_pattern_backward_dense(pos_handle, grad))
        if values.requires_grad:
            values._accumulate(values_grad * negative)
        if dense.requires_grad:
            dense._accumulate(
                backend.spmm_pattern_backward_dense(neg_handle, -grad))

    return Tensor._make(pos_data - neg_data, (values, dense), backward)


# ----------------------------------------------------------------------
# Activations / normalisations
# ----------------------------------------------------------------------
def relu(x: Tensor) -> Tensor:
    return x.relu()


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    mask = x.data > 0
    scale = mask + (~mask) * negative_slope
    out_data = x.data * scale

    def backward(grad):
        x._accumulate(grad * scale)

    return Tensor._make(out_data, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    mask = x.data > 0
    exp_part = alpha * (np.exp(np.minimum(x.data, 0.0)) - 1.0)
    out_data = np.where(mask, x.data, exp_part)

    def backward(grad):
        local = np.where(mask, 1.0, exp_part + alpha)
        x._accumulate(grad * local)

    return Tensor._make(out_data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically-stable softmax along ``axis``."""
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    exp = np.exp(shifted)
    out_data = exp / exp.sum(axis=axis, keepdims=True)

    def backward(grad):
        dot = (grad * out_data).sum(axis=axis, keepdims=True)
        x._accumulate(out_data * (grad - dot))

    return Tensor._make(out_data, (x,), backward)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    shifted = x.data - x.data.max(axis=axis, keepdims=True)
    logsumexp = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
    out_data = shifted - logsumexp
    probs = np.exp(out_data)

    def backward(grad):
        x._accumulate(grad - probs * grad.sum(axis=axis, keepdims=True))

    return Tensor._make(out_data, (x,), backward)


def dropout(x: Tensor, p: float, training: bool = True,
            rng: Optional[np.random.Generator] = None) -> Tensor:
    """Inverted dropout.  A no-op when ``training`` is False or ``p == 0``.

    An *active* dropout (training, ``0 < p < 1``) requires an explicit
    seeded generator: the old ``rng=None`` fallback silently drew from an
    unseeded ``np.random.default_rng()``, making runs unreproducible.
    Layers thread their own seeded generator
    (:class:`repro.nn.layers.Dropout` owns one per module).
    """
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    if rng is None:
        raise ValueError(
            "active dropout requires an explicit random generator; pass "
            "rng= (e.g. the owning module's seeded generator) instead of "
            "relying on the removed unseeded default_rng() fallback")
    mask = backend.dropout_mask(rng, x.data.shape, p)
    out_data = backend.apply_mask(x.data, mask)

    def backward(grad):
        x._accumulate(backend.apply_mask(grad, mask))

    return Tensor._make(out_data, (x,), backward)


# ----------------------------------------------------------------------
# Combination helpers
# ----------------------------------------------------------------------
def concat(tensors: Sequence[Tensor], axis: int = 1) -> Tensor:
    """Concatenate tensors along ``axis`` (differentiable)."""
    tensors = [as_tensor(t) for t in tensors]
    out_data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        for tensor, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, stop)
            tensor._accumulate(grad[tuple(slicer)])

    return Tensor._make(out_data, tuple(tensors), backward)


def stack_mean(tensors: Sequence[Tensor]) -> Tensor:
    """Average a list of equally-shaped tensors."""
    total = tensors[0]
    for tensor in tensors[1:]:
        total = total + tensor
    return total * (1.0 / len(tensors))


# ----------------------------------------------------------------------
# Losses
# ----------------------------------------------------------------------
def cross_entropy(logits: Tensor, labels: np.ndarray,
                  mask: Optional[np.ndarray] = None) -> Tensor:
    """Mean cross-entropy between ``logits`` and integer ``labels``.

    Parameters
    ----------
    logits:
        Shape ``(n, num_classes)``.
    labels:
        Integer class ids of shape ``(n,)``.
    mask:
        Optional boolean or index mask selecting the supervised rows.
    """
    labels = np.asarray(labels)
    if mask is not None:
        mask = np.asarray(mask)
        if mask.dtype == bool:
            idx = np.nonzero(mask)[0]
        else:
            idx = mask
    else:
        idx = np.arange(logits.data.shape[0])
    if idx.size == 0:
        raise ValueError("cross_entropy received an empty supervision mask")

    log_probs = log_softmax(logits, axis=-1)
    picked = log_probs[idx, labels[idx]]
    return -picked.mean()


def nll_loss(log_probs: Tensor, labels: np.ndarray,
             mask: Optional[np.ndarray] = None) -> Tensor:
    """Negative log-likelihood given already log-softmaxed inputs."""
    labels = np.asarray(labels)
    if mask is not None:
        mask = np.asarray(mask)
        idx = np.nonzero(mask)[0] if mask.dtype == bool else mask
    else:
        idx = np.arange(log_probs.data.shape[0])
    picked = log_probs[idx, labels[idx]]
    return -picked.mean()


def mse_loss(prediction: Tensor, target: ArrayOrTensor) -> Tensor:
    target = as_tensor(target)
    diff = prediction - target.detach()
    return (diff * diff).mean()


def frobenius_loss(prediction: Tensor, target: ArrayOrTensor) -> Tensor:
    """Frobenius-norm discrepancy ``||A - B||_F`` used as knowledge loss."""
    target = as_tensor(target)
    diff = prediction - target.detach()
    return ((diff * diff).sum() + 1e-12) ** 0.5


def l2_regularisation(tensors: Sequence[Tensor]) -> Tensor:
    """Sum of squared entries of every tensor (weight decay term)."""
    total = None
    for tensor in tensors:
        term = (tensor * tensor).sum()
        total = term if total is None else total + term
    if total is None:
        return Tensor(0.0)
    return total
